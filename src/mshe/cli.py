"""Command-line entry point: deterministic CSV-producing subcommands.

Every run writes its outputs plus a ``resolved-config.txt`` (sorted
key=value) into the output directory; re-running a resolved config
reproduces the outputs byte for byte.  Floats are printed with 17
significant digits so CSV round-trips are exact.  renorm, solve and converge
take their thread count from --threads or the SHE_THREADS environment
variable; it never changes results.  Exit codes: 0 success, 1 validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from .structure import EQUATIONS

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


def _parse_grid(spec: str, d: int):
    """--grid N,M,L,T as the d-dimensional Grid."""
    from .noise import Grid

    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError("grid must be N,M,L,T")
    return Grid(d=d, L=float(parts[2]), N=int(parts[0]), T=float(parts[3]), M=int(parts[1]))


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


def _finite_float(text: str) -> float:
    # float() also reads nan and inf, which no float flag means
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _besov_p(text: str) -> float:
    # the integrability exponent of besov norm: at least 1, or inf
    if not float(text) >= 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 or inf, got {text}")
    return float(text)


def _weight(text: str) -> str:
    # the weight of besov norm: poly:a or exp:l with a finite a or l
    kind, _, param = text.partition(":")
    if kind not in ("poly", "exp"):
        raise argparse.ArgumentTypeError(f"unknown weight {text!r} (use poly:a or exp:l)")
    _finite_float(param)
    return text


def _ceps(text: str):
    # the constant of solve: auto (the renorm constant) or a finite number
    return text if text == "auto" else _finite_float(text)


def _threads(args) -> int:
    return args.threads or int(os.environ.get("SHE_THREADS", "1"))


# -- subcommand implementations ----------------------------------------------


def cmd_structure_table(args, outdir: Path):
    from .structure import StructureParams, build_structure

    rs = build_structure(StructureParams(kappa=args.kappa, d=args.d))
    rows = [(sym, str(q), m, val) for _, sym, q, m, val in rs.table()]
    _write_csv(outdir / "structure-table.csv", ["symbol", "q", "m", "value"], rows)
    return EXIT_OK


def cmd_kernel_check(args, outdir: Path):
    from .kernel import decompose, heat_kernel

    n = args.points
    if n < 1:
        raise ValueError(f"--points must be at least 1, got {n}")
    dec = decompose(args.d, args.r)
    rng = np.random.default_rng(args.seed)
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
    from .wavelet import analyze, build_basis

    fld = read_field(args.input)
    basis = build_basis(args.r)
    weight = None
    if args.weight:
        kind, _, param = args.weight.partition(":")
        weight = {"poly": besov.polynomial_weight,
                  "exp": besov.exponential_weight}[kind](float(param))
    pyr = analyze(fld, basis, args.nmin, args.nmax)
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
    from .noise import sample_white_noise, write_field

    fld = sample_white_noise(_parse_grid(args.grid, args.d), args.kind, seed=args.seed)
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
    from .noise import regularity_study
    from .wavelet import build_basis

    basis = build_basis(args.r)
    res = regularity_study(_parse_grid(args.grid, args.d), args.kind, basis,
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
                               threads=_threads(args))
        rows.append((e, rc.c_eps, rc.c11_eps, rc.c11_err, rc.c12_eps, rc.c12_err,
                     rc.C_eps))
    _write_csv(outdir / "renorm.csv",
               ["eps", "c", "c11", "c11_err", "c12", "c12_err", "C"], rows)
    return EXIT_OK


def cmd_reconstruct(args, outdir: Path):
    from .noise import Mollifier, mollify, sample_white_noise, write_field, Field
    from .reconstruct import canonical_model, read_modelled, reconstruct, sewing_check
    from .wavelet import build_family, check_lattices, level_range

    if len(level_range(args.nmin, args.nmax)) < 4:
        raise ValueError(f"the sewing check needs at least 4 levels, got --nmin {args.nmin} "
                         f"and --nmax {args.nmax}")
    basis = build_family(args.family)
    mollifier = Mollifier(epsilon=args.eps)
    f = read_modelled(args.input)
    g = f.grid
    check_lattices(g, g.dt, args.nmin, args.nmax)
    model = None
    if f.reads_model:
        model = canonical_model(mollify(sample_white_noise(g, "spacetime", seed=args.seed),
                                        mollifier))
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
    from .noise import write_field, Field
    from .solver import SolverConfig, solve_renormalised, weighted_norm_diag

    grid = _parse_grid(args.grid, EQUATIONS[args.equation][0])
    auto = args.ceps == "auto"
    # the config is checked before the constant is computed
    cfg = SolverConfig(equation=args.equation, grid=grid, eps=args.eps,
                       C_eps=0.0 if auto else args.ceps, u0=_parse_u0(args.u0),
                       T=args.T, seed=args.seed, snapshots=args.snapshots)
    if auto:
        from .renorm import compute_constants

        # the constant of renorm --eps at the same --seed and --samples
        cfg.C_eps = compute_constants(args.equation, args.eps, n_samples=args.samples,
                                      seed=args.seed, threads=_threads(args)).C_eps
    traj = solve_renormalised(cfg)
    for i, fld in enumerate(traj.fields):
        write_field(outdir / f"snapshot-{i:03d}.shef",
                    Field(grid=grid, values=fld, kind="spatial"))
    rows = list(zip(traj.times, traj.diagnostics["max"], traj.diagnostics["mass"],
                    weighted_norm_diag(traj, ell=args.ell)))
    _write_csv(outdir / "solve-diag.csv", ["t", "sup", "mass", "weighted_l2"], rows)
    return EXIT_OK


def cmd_converge(args, outdir: Path):
    from .solver import convergence_study

    grid = _parse_grid(args.grid, EQUATIONS[args.equation][0])
    res = convergence_study(args.equation, grid, args.eps_list, T=args.T,
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; flags override it")
    common.add_argument("--out", default=".", help="output directory")
    # only the commands that run QMC replicates or seeds on a thread pool
    threaded = argparse.ArgumentParser(add_help=False, parents=[common])
    threaded.add_argument("--threads", type=int, default=0,
                          help="worker threads (default: SHE_THREADS or 1)")
    ap = argparse.ArgumentParser(prog="mshe", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="symbolic structure tables")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("table", parents=[common])
    q.add_argument("--kappa", type=_finite_float, required=True)
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
    q.add_argument("--alpha", type=_finite_float, required=True)
    q.add_argument("--p", type=_besov_p, default=2.0)
    q.add_argument("--weight", type=_weight, default=None)
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--nmin", type=int, default=0)
    q.add_argument("--nmax", type=int, default=3)
    q.set_defaults(func=cmd_besov_norm)
    q = ps.add_parser("check-w", parents=[common])
    q.add_argument("--kappa", type=_finite_float, required=True)
    q.add_argument("--c", type=_finite_float, default=None)
    q.add_argument("--ell", type=_finite_float, default=0.0)
    q.add_argument("--T", type=_finite_float, default=1.0)
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
    q.add_argument("--eps", type=_finite_float, required=True)
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

    q = sub.add_parser("renorm", parents=[threaded], help="renormalisation constants")
    # the choices are every equation, not renorm.GREENS: reading that would
    # import mshe.renorm on every command; compute_constants refuses the rest
    q.add_argument("--equation", choices=sorted(EQUATIONS), required=True)
    q.add_argument("--eps", type=_finite_float, nargs="+", required=True)
    q.add_argument("--samples", type=int, default=1 << 16)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.set_defaults(func=cmd_renorm)

    q = sub.add_parser("reconstruct", parents=[common],
                       help="dyadic reconstruction of a stored modelled distribution")
    q.add_argument("--input", required=True)
    q.add_argument("--nmin", type=int, default=3)
    q.add_argument("--nmax", type=int, default=6)
    q.add_argument("--eps", type=_finite_float, default=0.25)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.add_argument("--alpha", type=_finite_float, default=0.0)
    q.add_argument("--family", type=int, default=2)
    q.set_defaults(func=cmd_reconstruct)

    q = sub.add_parser("solve", parents=[threaded], help="renormalised-equation solver")
    q.add_argument("--equation", choices=sorted(EQUATIONS), required=True)
    q.add_argument("--eps", type=_finite_float, required=True)
    q.add_argument("--ceps", type=_ceps, default="auto")
    q.add_argument("--u0", default="dirac")
    q.add_argument("--grid", required=True, help="N,M,L,T")
    q.add_argument("--T", type=_finite_float, default=None)
    q.add_argument("--seed", type=_nonnegative_int, default=0)
    q.add_argument("--snapshots", type=int, default=8)
    q.add_argument("--ell", type=_finite_float, default=0.0)
    q.add_argument("--samples", type=int, default=1 << 14)
    q.set_defaults(func=cmd_solve)

    q = sub.add_parser("converge", parents=[threaded],
                       help="coupled-noise dyadic epsilon study")
    q.add_argument("--equation", choices=sorted(EQUATIONS), required=True)
    q.add_argument("--eps-list", type=_finite_float, nargs="+", required=True)
    q.add_argument("--grid", required=True)
    q.add_argument("--T", type=_finite_float, default=None)
    q.add_argument("--seeds", type=int, default=5)
    q.add_argument("--first-seed", type=_nonnegative_int, default=0)
    q.add_argument("--samples", type=int, default=1 << 13)
    q.add_argument("--ito", action="store_true")
    q.add_argument("--snapshot-t0", type=_finite_float, default=None)
    q.add_argument("--u0", default="const:1")
    q.add_argument("--dt", type=_finite_float, default=None)
    q.add_argument("--ell", type=_finite_float, default=0.0)
    q.set_defaults(func=cmd_converge)
    return ap


def _subcommands(parser) -> dict:
    """name -> subparser of a parser's subcommands (empty for a leaf)."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _apply_config_file(argv, ap):
    """Insert key=value pairs from --config as flags right after the
    subcommand tokens of parser ap, so explicit flags still override them."""
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
        command = _subcommands(ap).get(rest[0])
        n_head = 2 if command is not None and _subcommands(command) else 1
    return rest[:n_head] + extra + rest[n_head:]


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        argv = _apply_config_file(list(sys.argv[1:] if argv is None else argv), ap)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        code = args.func(args, outdir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_resolved(outdir, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
