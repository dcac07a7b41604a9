"""Command-line entry point: deterministic CSV-producing subcommands.

Every run writes its outputs plus a ``resolved-config.txt`` (sorted
key=value) into the output directory; re-running a resolved config
reproduces the outputs byte for byte.  Floats are printed with 17
significant digits so CSV round-trips are exact.  Thread count comes from
--threads or the SHE_THREADS environment variable and never changes
results.  Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from pathlib import Path

import numpy as np

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_resolved(outdir: Path, args: argparse.Namespace) -> None:
    """The flags of this run in the form --config reads: flag=value, list
    items separated by spaces (shell-quoted), a set store_true flag bare."""
    skip = {"func", "config", "command", "sub", "out"}
    lines = []
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None or v is False:
            continue
        flag = k.replace("_", "-")
        if v is True:
            lines.append(flag)
        else:
            vals = v if isinstance(v, list) else [v]
            lines.append(f"{flag}={' '.join(shlex.quote(_fmt(x)) for x in vals)}")
    (outdir / "resolved-config.txt").write_text("\n".join(lines) + "\n")


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError("grid must be N,M,L,T")
    return int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])


def _parse_u0(text: str):
    """--u0 of solve and converge: dirac, const:C or file:PATH."""
    kind, _, arg = text.partition(":")
    if text == "dirac":
        return "dirac"
    if kind == "const" and np.isfinite(float(arg)):
        return ("const", float(arg))
    if kind == "file":
        from .noise import read_field

        return read_field(arg)
    raise ValueError(f"bad initial condition {text!r}: use dirac, const:C with a finite C, "
                     "or file:PATH")


def _nonnegative_int(text: str) -> int:
    # seeds key Philox streams and SeedSequences, which take unsigned integers
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _threads(args) -> int:
    if getattr(args, "threads", 0):
        return args.threads
    return int(os.environ.get("SHE_THREADS", "1"))


# -- subcommand implementations ----------------------------------------------


def cmd_structure_table(args, outdir: Path):
    from .structure import StructureParams, build_structure

    rs = build_structure(StructureParams(kappa=args.kappa, d=args.d))
    rows = [(sym, str(q), m, val) for _, sym, q, m, val in rs.table()]
    _write_csv(outdir / "structure-table.csv", ["symbol", "q", "m", "value"], rows)
    return EXIT_OK


def cmd_kernel_check(args, outdir: Path):
    from .kernel import decompose, heat_kernel

    dec = decompose(args.d, args.r)
    rng = np.random.default_rng(args.seed)
    n = args.points
    sc = 10.0 ** rng.uniform(-3, 1, n)
    tt = np.sign(rng.normal(size=n)) * rng.uniform(0.1, 1, n) * sc ** 2
    xx = rng.uniform(-1, 1, (n, args.d)) * sc[:, None]
    ref = heat_kernel(tt, xx, args.d)
    got = dec.reassemble(tt, xx, n_max=12)
    denom = np.maximum(np.abs(ref), 1e-30)
    rows = [("reassembly_max_rel", float(np.max(np.abs(got - ref) / denom)))]
    for k0 in range(args.r // 2 + 1):
        for k1 in range(args.r + 1):
            if 2 * k0 + k1 <= args.r:
                k = (k0,) + (k1,) + (0,) * (args.d - 1)
                rows.append((f"moment_{k0}_{k1}", dec.moment_residual(k)))
    _write_csv(outdir / "kernel-check.csv", ["quantity", "value"], rows)
    return EXIT_OK


def cmd_wavelet_selftest(args, outdir: Path):
    from .wavelet import build_basis

    b = build_basis(args.r)
    lags, gram = b.inner_phi_translates()
    delta = (lags == 0).astype(float)
    rows = [
        ("family", float(b.N)),
        ("orthonormality_residual", float(np.max(np.abs(gram - delta)))),
        ("refinement_residual", b.refinement_residual()),
        ("vanishing_moment_residual", float(np.max(np.abs(b.psi_moments(args.r))))),
        ("refine_coeff_sum", float(b.refine_coeffs.sum())),
    ]
    _write_csv(outdir / "wavelet-selftest.csv", ["quantity", "value"], rows)
    return EXIT_OK


def cmd_besov_norm(args, outdir: Path):
    from . import besov
    from .noise import read_field
    from .wavelet import analyze, analyze_spatial, build_basis

    fld = read_field(args.input)
    basis = build_basis(args.r)
    weight = None
    if args.weight:
        kind, _, param = args.weight.partition(":")
        if kind == "poly":
            weight = besov.polynomial_weight(float(param))
        elif kind == "exp":
            weight = besov.exponential_weight(float(param))
        else:
            raise ValueError(f"unknown weight {args.weight!r} (use poly:a or exp:l)")
    g = fld.grid
    if fld.kind == "spacetime":
        pyr = analyze(fld.values, basis, args.nmin, args.nmax, g.T, g.L)
    else:
        pyr = analyze_spatial(fld.values, basis, args.nmin, args.nmax, g.L)
    val = besov.besov_norm(pyr, args.alpha, p=args.p, weight=weight)
    _write_csv(outdir / "besov-norm.csv",
               ["alpha", "p", "weight", "norm"],
               [(args.alpha, args.p, args.weight or "none", val)])
    return EXIT_OK


def cmd_besov_check_w(args, outdir: Path):
    from .besov import check_assumption_w

    rep = check_assumption_w(kappa=args.kappa, c=args.c, ell=args.ell, T=args.T,
                             d=args.d, interpretation=args.interpretation)
    rows = []
    for name, sub in rep["conditions"].items():
        margin = sub.get("min_log_margin", sub.get("K_est", sub.get("max_abs_log", "")))
        rows.append((name, int(sub["ok"]), margin))
    rows.append(("overall", int(rep["ok"]), rep["interpretation"]))
    _write_csv(outdir / "besov-checkw.csv", ["condition", "ok", "margin_or_k"], rows)
    return EXIT_OK


def cmd_noise_sample(args, outdir: Path):
    from .noise import Grid, sample_white_noise, write_field

    N, M, L, T = _parse_grid(args.grid)
    grid = Grid(d=args.d, L=L, N=N, T=T, M=M)
    fld = sample_white_noise(grid, args.kind, seed=args.seed)
    write_field(outdir / args.out_field, fld)
    _write_csv(outdir / "noise-sample.csv",
               ["kind", "seed", "cells", "sum"],
               [(args.kind, args.seed, fld.values.size, float(fld.values.sum()))])
    return EXIT_OK


def cmd_noise_mollify(args, outdir: Path):
    from .noise import Mollifier, mollify, read_field, write_field

    fld = read_field(args.input)
    out = mollify(fld, Mollifier(epsilon=args.eps))
    write_field(outdir / args.out_field, out)
    _write_csv(outdir / "noise-mollify.csv",
               ["eps", "sup_before", "sup_after"],
               [(args.eps, float(np.abs(fld.values).max()),
                 float(np.abs(out.values).max()))])
    return EXIT_OK


def cmd_noise_regularity(args, outdir: Path):
    from .noise import Grid, regularity_study
    from .wavelet import build_basis

    N, M, L, T = _parse_grid(args.grid)
    grid = Grid(d=args.d, L=L, N=N, T=T, M=M)
    basis = build_basis(args.r)
    res = regularity_study(grid, args.kind, basis,
                           seeds=range(args.first_seed, args.first_seed + args.seeds),
                           n_min=args.nmin, n_max=args.nmax or None)
    _write_csv(outdir / "noise-regularity.csv",
               ["kind", "seeds", "alpha_hat", "ci_halfwidth"],
               [(args.kind, args.seeds, res["alpha_hat"], res["ci_halfwidth"])])
    return EXIT_OK


def cmd_renorm(args, outdir: Path):
    from .renorm import compute_constants

    rows = []
    for e in args.eps:
        rc = compute_constants(args.equation, e, n_samples=args.samples, seed=args.seed,
                               threads=_threads(args), R_G=args.green_radius)
        rows.append((e, rc.c_eps, rc.c11_eps, rc.c11_err, rc.c12_eps, rc.c12_err,
                     rc.C_eps))
    _write_csv(outdir / "renorm.csv",
               ["eps", "c", "c11", "c11_err", "c12", "c12_err", "C"], rows)
    return EXIT_OK


def cmd_reconstruct(args, outdir: Path):
    from .kernel import decompose
    from .noise import Mollifier, mollify, sample_white_noise, write_field, Field
    from .reconstruct import canonical_model, read_modelled, reconstruct, sewing_check
    from .wavelet import build_family

    f = read_modelled(args.input)
    g = f.grid
    basis = build_family(args.family)
    dec = decompose(1, 3)
    xi = mollify(sample_white_noise(g, "spacetime", seed=args.seed),
                 Mollifier(epsilon=args.eps))
    model = canonical_model(xi, dec)
    res = reconstruct(f, model, basis, args.nmin, args.nmax)
    rep = sewing_check(res, alpha=args.alpha, gamma=f.gamma, p=f.p)
    write_field(outdir / "reconstructed.shef",
                Field(grid=g, values=res["field"], kind="spacetime"))
    rows = [(n, rep["A_norms"][n], rep["delta_norms"].get(n, "")) for n in
            sorted(rep["A_norms"])]
    rows.append(("rate", rep["rate"], ""))
    _write_csv(outdir / "reconstruct.csv", ["level", "A_norm", "delta_norm"], rows)
    return EXIT_OK


def cmd_solve(args, outdir: Path):
    from .noise import Grid, write_field, Field
    from .solver import EQUATIONS, SolverConfig, solve_renormalised, weighted_norm_diag

    N, M, L, T = _parse_grid(args.grid)
    d, eq, _ = EQUATIONS[args.equation]
    grid = Grid(d=d, L=L, N=N, T=T, M=M)
    auto = args.ceps == "auto"
    # the config is checked before the constant is computed
    cfg = SolverConfig(equation=args.equation, grid=grid, eps=args.eps,
                       C_eps=0.0 if auto else float(args.ceps), u0=_parse_u0(args.u0),
                       T=args.T or T, seed=args.seed, snapshots=args.snapshots)
    if auto and eq is not None:
        from .renorm import compute_constants

        cfg.C_eps = compute_constants(eq, args.eps, n_samples=args.samples, seed=args.seed,
                                      threads=_threads(args), R_G=8.0 * args.eps).C_eps
    traj = solve_renormalised(cfg)
    diag = weighted_norm_diag(traj, ell=args.ell)
    for i, fld in enumerate(traj.fields):
        write_field(outdir / f"snapshot-{i:03d}.shef",
                    Field(grid=grid, values=fld, kind="spatial"))
    rows = list(zip(traj.times, traj.diagnostics["max"], traj.diagnostics["mass"],
                    [dd["weighted_lp"] for dd in diag]))
    _write_csv(outdir / "solve-diag.csv", ["t", "sup", "mass", "weighted_l2"], rows)
    return EXIT_OK


def cmd_converge(args, outdir: Path):
    from .noise import Grid
    from .solver import EQUATIONS, convergence_study

    N, M, L, T = _parse_grid(args.grid)
    grid = Grid(d=EQUATIONS[args.equation][0], L=L, N=N, T=T, M=M)
    res = convergence_study(args.equation, grid, args.eps_list, T=args.T or T,
                            seeds=tuple(range(args.first_seed, args.first_seed + args.seeds)),
                            n_qmc=args.samples,
                            include_ito=args.ito, threads=_threads(args),
                            snapshot_t0=args.snapshot_t0, u0=_parse_u0(args.u0), dt=args.dt,
                            ell=args.ell)
    rows = []
    for seed, r in zip(res["seeds"], res["results"]):
        for i, dval in enumerate(r["pairwise"]):
            rows.append((seed, res["eps_list"][i], res["eps_list"][i + 1], dval,
                         "pair"))
        for i, dval in enumerate(r.get("to_ito", [])):
            rows.append((seed, res["eps_list"][i], 0.0, dval, "ito"))
    _write_csv(outdir / "converge.csv",
               ["seed", "eps_from", "eps_to", "distance", "kind"], rows)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    from .solver import EQUATIONS

    renormalised = sorted({eq for _, eq, _ in EQUATIONS.values() if eq})
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; flags override it")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--threads", type=int, default=0,
                        help="worker threads (default: SHE_THREADS or 1)")
    ap = argparse.ArgumentParser(prog="mshe", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="symbolic structure tables")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("table", parents=[common])
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--d", type=int, default=3)
    q.set_defaults(func=cmd_structure_table)

    p = sub.add_parser("kernel", help="heat-kernel decomposition checks")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("check", parents=[common])
    q.add_argument("--d", type=int, default=1)
    q.add_argument("--r", type=int, default=3)
    q.add_argument("--points", type=int, default=1000)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("wavelet", help="wavelet self-tests")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("selftest", parents=[common])
    q.add_argument("--r", type=int, default=2)
    q.set_defaults(func=cmd_wavelet_selftest)

    p = sub.add_parser("besov", help="Besov norms and weight checks")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("norm", parents=[common])
    q.add_argument("--input", required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--p", type=float, default=2.0)
    q.add_argument("--weight", default=None)
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--nmin", type=int, default=0)
    q.add_argument("--nmax", type=int, default=3)
    q.set_defaults(func=cmd_besov_norm)
    q = ps.add_parser("check-w", parents=[common])
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--c", type=float, default=None)
    q.add_argument("--ell", type=float, default=0.0)
    q.add_argument("--T", type=float, default=1.0)
    q.add_argument("--d", type=int, default=3)
    q.add_argument("--interpretation", choices=["extend", "strict"], default="extend")
    q.set_defaults(func=cmd_besov_check_w)

    p = sub.add_parser("noise", help="white noise sampling and mollification")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("sample", parents=[common])
    q.add_argument("--d", type=int, default=1)
    q.add_argument("--grid", required=True, help="N,M,L,T")
    q.add_argument("--kind", choices=["spatial", "spacetime"], default="spacetime")
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.add_argument("--out-field", default="noise.shef")
    q.set_defaults(func=cmd_noise_sample)
    q = ps.add_parser("mollify", parents=[common])
    q.add_argument("--input", required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--out-field", default="mollified.shef")
    q.set_defaults(func=cmd_noise_mollify)
    q = ps.add_parser("regularity", parents=[common])
    q.add_argument("--d", type=int, default=1)
    q.add_argument("--grid", required=True)
    q.add_argument("--kind", choices=["spatial", "spacetime"], default="spacetime")
    q.add_argument("--seeds", type=int, default=20)
    q.add_argument("--first-seed", type=_nonnegative_int, default=0)
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--nmin", type=int, default=1)
    q.add_argument("--nmax", type=int, default=0)
    q.set_defaults(func=cmd_noise_regularity)

    q = sub.add_parser("renorm", parents=[common], help="renormalisation constants")
    q.add_argument("--equation", choices=renormalised, required=True)
    q.add_argument("--eps", type=float, nargs="+", required=True)
    q.add_argument("--samples", type=int, default=1 << 16)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.add_argument("--green-radius", type=float, default=1.0)
    q.set_defaults(func=cmd_renorm)

    q = sub.add_parser("reconstruct", parents=[common],
                       help="dyadic reconstruction of a stored modelled distribution")
    q.add_argument("--input", required=True)
    q.add_argument("--nmin", type=int, default=3)
    q.add_argument("--nmax", type=int, default=6)
    q.add_argument("--eps", type=float, default=0.25)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.add_argument("--alpha", type=float, default=0.0)
    q.add_argument("--family", type=int, default=2)
    q.set_defaults(func=cmd_reconstruct)

    q = sub.add_parser("solve", parents=[common], help="renormalised-equation solver")
    q.add_argument("--equation", choices=sorted(EQUATIONS), required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--ceps", default="auto")
    q.add_argument("--u0", default="dirac")
    q.add_argument("--grid", required=True, help="N,M,L,T")
    q.add_argument("--T", type=float, default=None)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.add_argument("--snapshots", type=int, default=8)
    q.add_argument("--ell", type=float, default=0.0)
    q.add_argument("--samples", type=int, default=1 << 14)
    q.set_defaults(func=cmd_solve)

    q = sub.add_parser("converge", parents=[common], help="coupled-noise dyadic epsilon study")
    q.add_argument("--equation", choices=sorted(EQUATIONS), required=True)
    q.add_argument("--eps-list", type=float, nargs="+", required=True)
    q.add_argument("--grid", required=True)
    q.add_argument("--T", type=float, default=None)
    q.add_argument("--seeds", type=int, default=5)
    q.add_argument("--first-seed", type=_nonnegative_int, default=0)
    q.add_argument("--samples", type=int, default=1 << 13)
    q.add_argument("--ito", action="store_true")
    q.add_argument("--snapshot-t0", type=float, default=None)
    q.add_argument("--u0", default="const:1")
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--ell", type=float, default=0.0)
    q.set_defaults(func=cmd_converge)
    return ap


_NESTED = {"structure", "kernel", "wavelet", "besov", "noise"}


def _apply_config_file(argv):
    """Insert key=value pairs from --config as flags right after the
    subcommand tokens, so explicit flags still override them."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    extra = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        extra.extend([f"--{key.strip()}"] + shlex.split(val))
    n_head = 0
    if rest and not rest[0].startswith("-"):
        n_head = 2 if rest[0] in _NESTED else 1
    return rest[:n_head] + extra + rest[n_head:]


def main(argv=None) -> int:
    try:
        argv = _apply_config_file(list(sys.argv[1:] if argv is None else argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        code = args.func(args, outdir)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_resolved(outdir, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
