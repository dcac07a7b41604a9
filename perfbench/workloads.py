"""The benchmark's workloads: the CLI commands of one round and the checks
of their outputs.

Every check compares against a property the method must have or against an
independent numpy computation in ``reference.py``, never against stored
output.  A check returns a list of problems (an empty list passes) and
records the figures it looked at in ``notes`` for the results file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

C11_TARGET_SLOPE = -1.0 / (16.0 * math.pi ** 2)


@dataclass(frozen=True)
class Command:
    name: str
    argv: list      # CLI arguments, without --out
    check: object   # check(outdir, ref, notes) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modules: tuple      # what the commands import: the set-up cost
    commands: object    # commands(seed, inputs_dir) -> list of Command
    prepare: object = None  # prepare(seed, inputs_dir) -> ref, before timing


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


# -- she1d-dirac-converge -------------------------------------------------------

SHE_EPS = (0.4, 0.2, 0.1, 0.05)
SHE_SEEDS = 2


def check_she_converge(outdir: Path, ref, notes: dict) -> list:
    rows = _rows(outdir / "converge.csv")
    got = {(int(r["seed"]), r["kind"], float(r["eps_from"])): float(r["distance"])
           for r in rows}
    problems = []
    want = [(s, "pair", e) for s in range(SHE_SEEDS) for e in SHE_EPS[:-1]]
    want += [(s, "ito", e) for s in range(SHE_SEEDS) for e in SHE_EPS]
    missing = [k for k in want if k not in got]
    if missing or len(rows) != len(want):
        problems.append(f"converge.csv has {len(rows)} rows, missing {missing}")
    if not _finite_positive(got.values()):
        problems.append("a distance is not finite and positive")
    notes["to_ito"] = {s: [got.get((s, "ito", e)) for e in SHE_EPS]
                       for s in range(SHE_SEEDS)}
    for s in range(SHE_SEEDS):
        coarse, fine = got.get((s, "ito", SHE_EPS[0])), got.get((s, "ito", SHE_EPS[-1]))
        if coarse is None or fine is None or not fine < coarse:
            problems.append(f"seed {s}: Ito distance {coarse} -> {fine} did not shrink")
    return problems


def she_commands(seed: int, inputs: Path) -> list:
    argv = ["converge", "--equation", "she1d", "--u0", "dirac",
            "--eps-list", *map(str, SHE_EPS), "--grid", "512,2048,8,0.25",
            "--seeds", str(SHE_SEEDS), "--ito", "--snapshot-t0", "0.125",
            "--threads", "1"]
    return [Command("converge", argv, check_she_converge)]


# -- pam3d-renorm-converge --------------------------------------------------------

PAM_RENORM_EPS = (0.1, 0.05, 0.025, 0.0125)
PAM_CONVERGE_EPS = (1.0, 0.5, 0.25, 0.125)
PAM_SEEDS = 5


def pam_prepare(seed: int, inputs: Path) -> dict:
    mean, se = reference.pam3d_eps_c_monte_carlo(seed)
    return {"eps_c_mc": mean, "eps_c_mc_se": se}


def c11_log_slope(rows) -> float:
    """Mean of the consecutive slopes of c11 against log eps."""
    es = [float(r["eps"]) for r in rows]
    cs = [float(r["c11"]) for r in rows]
    return float(np.mean([(b - a) / (math.log(eb) - math.log(ea))
                          for a, b, ea, eb in zip(cs, cs[1:], es, es[1:])]))


def check_pam_renorm(outdir: Path, ref, notes: dict) -> list:
    rows = _rows(outdir / "renorm.csv")
    problems = []
    eps = [float(r["eps"]) for r in rows]
    if eps != list(PAM_RENORM_EPS):
        return [f"renorm.csv eps column {eps} != {list(PAM_RENORM_EPS)}"]
    vals = {k: np.array([float(r[k]) for r in rows])
            for k in ("c", "c11", "c11_err", "c12", "c12_err", "C")}
    if not all(np.all(np.isfinite(v)) for v in vals.values()):
        return ["renorm.csv has a non-finite value"]
    eps_c = np.asarray(eps) * vals["c"]
    slope = c11_log_slope(rows)
    notes.update(eps_c=eps_c.tolist(), eps_c_mc=ref["eps_c_mc"],
                 eps_c_mc_se=ref["eps_c_mc_se"], c11_log_slope=slope,
                 c11_slope_rel_err=slope / C11_TARGET_SLOPE - 1.0,
                 c11_err=vals["c11_err"].tolist())
    # c scales exactly like 1/eps while G is 1/(4 pi |x|) on supp rho2; the
    # quadrature stops at relative tolerance 1e-5
    if np.ptp(eps_c) > 1e-5 * abs(eps_c[0]):
        problems.append(f"eps*c varies across eps: {eps_c.tolist()}")
    z = abs(eps_c[0] - ref["eps_c_mc"]) / ref["eps_c_mc_se"]
    if z > 4.0:
        problems.append(f"eps*c = {eps_c[0]:.7f} vs Monte Carlo {ref['eps_c_mc']:.7f} "
                        f"+- {ref['eps_c_mc_se']:.7f} ({z:.1f} standard errors)")
    total = vals["c"] + vals["c11"] + vals["c12"]
    if np.max(np.abs(vals["C"] - total) / np.abs(total)) > 1e-12:
        problems.append("C != c + c11 + c12")
    if not (np.all(vals["c11_err"] > 0) and np.all(vals["c12_err"] > 0)):
        problems.append("a QMC standard error is not positive")
    # c11 diverges like log(1/eps): it must grow from the coarsest to the
    # finest eps by more than four combined standard errors
    rise = vals["c11"][-1] - vals["c11"][0]
    if not rise > 4.0 * math.hypot(vals["c11_err"][-1], vals["c11_err"][0]):
        problems.append(f"c11 does not grow as eps shrinks (rise {rise:.3g})")
    return problems


def check_pam_converge(outdir: Path, ref, notes: dict) -> list:
    rows = _rows(outdir / "converge.csv")
    per_seed = {}
    for r in rows:
        if r["kind"] == "pair":
            per_seed.setdefault(int(r["seed"]), []).append(float(r["distance"]))
    problems = []
    if sorted(per_seed) != list(range(PAM_SEEDS)) or \
            any(len(d) != len(PAM_CONVERGE_EPS) - 1 for d in per_seed.values()):
        return [f"converge.csv rows per seed: { {s: len(d) for s, d in per_seed.items()} }"]
    if not _finite_positive(d for ds in per_seed.values() for d in ds):
        problems.append("a distance is not finite and positive")
    notes["pairwise"] = per_seed
    shrinking = sum(all(b < a for a, b in zip(d, d[1:])) for d in per_seed.values())
    if shrinking < PAM_SEEDS - 1:
        problems.append(f"pairwise distances shrink on {shrinking} of {PAM_SEEDS} seeds")
    return problems


def pam_commands(seed: int, inputs: Path) -> list:
    renorm = ["renorm", "--equation", "pam3d", "--eps", *map(str, PAM_RENORM_EPS),
              "--samples", "131072", "--seed", str(seed)]
    converge = ["converge", "--equation", "pam3d",
                "--eps-list", *(f"{e:g}" for e in PAM_CONVERGE_EPS),
                "--grid", "32,0,2,0.1", "--seeds", str(PAM_SEEDS),
                "--samples", "16384", "--snapshot-t0", "0.05"]
    return [Command("renorm", renorm, check_pam_renorm),
            Command("converge", converge, check_pam_converge)]


# -- wavelet-reconstruct ------------------------------------------------------------

RECON_NMAX = 6
RECON_SUPPORT = 3   # support length of the Daubechies-2 family (--family 2)


def wavelet_prepare(seed: int, inputs: Path) -> dict:
    return {"lift": reference.write_lift(inputs / "lift.shef")}


def check_regularity(outdir: Path, ref, notes: dict) -> list:
    rows = _rows(outdir / "noise-regularity.csv")
    if len(rows) != 1:
        return [f"noise-regularity.csv has {len(rows)} rows"]
    alpha, half = float(rows[0]["alpha_hat"]), float(rows[0]["ci_halfwidth"])
    notes.update(alpha_hat=alpha, ci_halfwidth=half)
    problems = []
    if not abs(alpha + 1.5) <= 0.1:
        problems.append(f"alpha_hat = {alpha} not within 0.1 of -3/2")
    if not 0.0 < half <= 0.1:
        problems.append(f"confidence half-width {half} not in (0, 0.1]")
    return problems


def check_reconstruct(outdir: Path, ref, notes: dict) -> list:
    rows = _rows(outdir / "reconstruct.csv")
    problems = []
    levels = [r["level"] for r in rows if r["level"] != "rate"]
    if levels != [str(n) for n in range(3, RECON_NMAX + 1)]:
        problems.append(f"reconstruct.csv levels {levels}")
    rate = [float(r["A_norm"]) for r in rows if r["level"] == "rate"]
    if len(rate) != 1 or not abs(rate[0] - 2.0) <= 0.3:
        problems.append(f"sewing rate {rate} not within 0.3 of gamma = 2")
    field = reference.read_shef(outdir / "reconstructed.shef")
    g, _ = reference.lift_closed_form()
    if field.shape != g.shape:
        return problems + [f"reconstructed field shape {field.shape} != {g.shape}"]
    err = float(np.max(np.abs(field - g)))
    tol = reference.lift_error_bound(RECON_NMAX, RECON_SUPPORT)
    notes.update(rate=rate, max_err=err, err_bound=tol)
    if not err <= tol:
        problems.append(f"max |R f - g| = {err:.4g} > {tol:.4g}")
    return problems


def wavelet_commands(seed: int, inputs: Path) -> list:
    regularity = ["noise", "regularity", "--d", "1", "--grid", "512,4096,4,1",
                  "--seeds", "2", "--nmax", "5"]
    recon = ["reconstruct", "--input", str(inputs / "lift.shef"), "--nmin", "3",
             "--nmax", str(RECON_NMAX), "--eps", "0.25", "--seed", str(seed)]
    return [Command("noise-regularity", regularity, check_regularity),
            Command("reconstruct", recon, check_reconstruct)]


_CONVERGE_MODULES = ("mshe.cli", "mshe.noise", "mshe.kernel", "mshe.renorm", "mshe.solver")

WORKLOADS = {w.name: w for w in (
    Workload("she1d-dirac-converge",
             "SHE/KPZ from a Dirac mass: time-padded space-time mollification and "
             "1-d stepping, two seeds in turn on one thread",
             _CONVERGE_MODULES, she_commands),
    Workload("pam3d-renorm-converge",
             "PAM on R^3: c_eps quadrature and QMC c11/c12 dominate, then 3-d "
             "spatial-noise stepping; no space-time mollification",
             _CONVERGE_MODULES, pam_commands, pam_prepare),
    Workload("wavelet-reconstruct",
             "analysis side: dyadic correlations in analyze, canonical_model and "
             "reconstruct; never calls the solver or renorm",
             ("mshe.cli", "mshe.noise", "mshe.structure", "mshe.wavelet", "mshe.besov",
              "mshe.kernel", "mshe.reconstruct"),
             wavelet_commands, wavelet_prepare),
)}
