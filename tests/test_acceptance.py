"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Each test prints

    ACCEPTANCE <name>: PASS|FAIL (<detail>)

before asserting, so the summary survives in the captured output either way.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mshe
from mshe import besov
from mshe.kernel import decompose, heat_kernel
from mshe.noise import Field, Grid, Mollifier, mollify, regularity_study, sample_white_noise
from mshe.renorm import c11_eps, c12_eps, c_eps, pam_green, she_green
from mshe.solver import (
    SolverConfig,
    convergence_study,
    solve_ito_reference,
    solve_pam_transformed,
    solve_renormalised,
)
from mshe.structure import StructureParams, build_structure
from mshe.wavelet import analyze, build_basis, build_family


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


FIGURE_TABLE_U = {
    "1": (Fraction(0), 0), "I(Xi)": (Fraction(1, 2), -1),
    "I(Xi*I(Xi))": (Fraction(1), -2), "X_1": (Fraction(1), 0),
    "X_2": (Fraction(1), 0), "X_3": (Fraction(1), 0),
    "I(Xi*I(Xi*I(Xi)))": (Fraction(3, 2), -3),
    "I(Xi*X_1)": (Fraction(3, 2), -1), "I(Xi*X_2)": (Fraction(3, 2), -1),
    "I(Xi*X_3)": (Fraction(3, 2), -1),
}
FIGURE_TABLE_F = {
    "Xi": (Fraction(-3, 2), -1), "Xi*I(Xi)": (Fraction(-1), -2),
    "Xi*I(Xi*I(Xi))": (Fraction(-1, 2), -3), "Xi*X_1": (Fraction(-1, 2), -1),
    "Xi*X_2": (Fraction(-1, 2), -1), "Xi*X_3": (Fraction(-1, 2), -1),
    "Xi*I(Xi*I(Xi*I(Xi)))": (Fraction(0), -4), "Xi*I(Xi*X_1)": (Fraction(0), -2),
    "Xi*I(Xi*X_2)": (Fraction(0), -2), "Xi*I(Xi*X_3)": (Fraction(0), -2),
}


def test_01_structure_table():
    t0 = time.time()
    rs = build_structure(StructureParams(kappa=0.01, d=3))
    got_u = {str(s): (s.homogeneity.q, s.homogeneity.m) for s in rs.symbols_U}
    got_f = {str(s): (s.homogeneity.q, s.homogeneity.m) for s in rs.symbols_F}
    elapsed = time.time() - t0
    ok = got_u == FIGURE_TABLE_U and got_f == FIGURE_TABLE_F and elapsed < 1.0
    assert _report("structure-table", ok,
                   f"exact match of all 20 homogeneities, {elapsed:.3f}s")
    assert got_u == FIGURE_TABLE_U and got_f == FIGURE_TABLE_F


def test_02_kernel_decomposition():
    t0 = time.time()
    dec = decompose(1, 3)
    rng = np.random.default_rng(0)
    n = 1000
    sc = 10.0 ** rng.uniform(-3, 1, n)
    tt = np.sign(rng.normal(size=n)) * rng.uniform(0.1, 1, n) * sc ** 2
    xx = rng.uniform(-1, 1, (n, 1)) * sc[:, None]
    ref = heat_kernel(tt, xx, 1)
    got = dec.reassemble(tt, xx, n_max=12)
    mask = ref > 1e-300
    rel = float(np.max(np.abs(got - ref)[mask] / ref[mask]))
    zero_err = float(np.max(np.abs(got[~mask]))) if (~mask).any() else 0.0

    worst_moment = max(dec.moment_residual((k0, k1))
                       for k0 in range(2) for k1 in range(4) if 2 * k0 + k1 <= 3)

    pts_t = rng.uniform(-0.5, 1.0, 50)
    pts_x = rng.uniform(-1.0, 1.0, (50, 1))
    scaling_exact = all(
        np.array_equal(dec.pn(nn, pts_t * 4.0 ** -nn, pts_x * 2.0 ** -nn),
                       2.0 ** nn * dec.p0(pts_t, pts_x))
        for nn in (1, 5, 9))
    elapsed = time.time() - t0
    ok = rel < 1e-5 and zero_err < 1e-12 and worst_moment < 1e-8 and scaling_exact \
        and elapsed < 60
    assert _report("kernel-decomposition", ok,
                   f"reassembly {rel:.2e}, worst moment {worst_moment:.2e}, "
                   f"scaling exact={scaling_exact}, {elapsed:.0f}s")


@pytest.mark.parametrize("r", [2, 3])
def test_03_wavelet_selftest(r):
    t0 = time.time()
    b = build_basis(r)
    lags, gram = b.inner_phi_translates()
    ortho = float(np.max(np.abs(gram - (lags == 0))))
    refine = b.refinement_residual()
    annihilation = float(np.max(np.abs(b.psi_moments(r))))
    M, N, T, L = 1024, 512, 1.0, 4.0
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    ttg, xxg = np.meshgrid(t, x, indexing="ij")
    f = np.exp(-8 * (xxg - 0.3) ** 2 - 30 * (ttg - 0.5) ** 2) * np.sin(6 * xxg + 4 * ttg)
    grid = Grid(d=1, L=L, N=N, T=T, M=M)
    pyr = analyze(Field(grid=grid, values=f, kind="spacetime"), b, 0, 4)
    parseval = pyr.total_sq() / (np.sum(f ** 2) * (T / M) * (L / N))
    elapsed = time.time() - t0
    ok = (ortho < 1e-9 and refine < 1e-9 and annihilation < 1e-8
          and abs(parseval - 1) < 1e-4 and elapsed < 60)
    assert _report(f"wavelet-selftest-r{r}", ok,
                   f"ortho {ortho:.1e}, refine {refine:.1e}, annihilate "
                   f"{annihilation:.1e}, parseval-1 {parseval - 1:.1e}, {elapsed:.0f}s")


@pytest.mark.slow
def test_04_white_noise_regularity():
    t0 = time.time()
    basis = build_basis(2)
    g1 = Grid(d=1, L=4.0, N=512, T=1.0, M=4096)
    res1 = regularity_study(g1, "spacetime", basis, seeds=range(20),
                            n_min=1, n_max=5)
    g3 = Grid(d=3, L=1.0, N=64)
    res3 = regularity_study(g3, "spatial", basis, seeds=range(20),
                            n_min=1, n_max=4)
    elapsed = time.time() - t0
    ok1 = abs(res1["alpha_hat"] + 1.5) <= 0.1 and res1["ci_halfwidth"] <= 0.1
    ok3 = abs(res3["alpha_hat"] + 1.5) <= 0.1 and res3["ci_halfwidth"] <= 0.1
    ok = ok1 and ok3 and elapsed < 300
    assert _report("white-noise-regularity", ok,
                   f"space-time d=1: {res1['alpha_hat']:.3f}+-{res1['ci_halfwidth']:.3f}, "
                   f"spatial d=3: {res3['alpha_hat']:.3f}+-{res3['ci_halfwidth']:.3f}, "
                   f"{elapsed:.0f}s")


def test_05_dirac_membership_boundary():
    t0 = time.time()
    b = build_basis(2)
    kappa = 0.01
    eta_ic = -0.5 + 3 * kappa
    cases = [
        (1, 1.0, -0.3, True), (1, 1.0, 0.3, False),
        (3, 1.0, -0.3, True), (3, 1.0, 0.3, False),
        (1, np.inf, -1.3, True), (1, np.inf, -0.7, False),
    ]
    all_ok = True
    details = []
    for d, p, eta, member in cases:
        if besov.dirac_membership(d, p, eta) is not member:
            all_ok = False
        exps = [5, 6, 7] if d == 3 else [6, 7, 8, 9]
        norms = besov.dirac_norm_growth(d, p, eta, b, exps)
        ratio = norms[-1] / norms[0]
        bounded = ratio < 1.3
        if bounded is not member:
            all_ok = False
        details.append(f"({d},{p},{eta}):{'B' if bounded else 'D'}")
    # initial-condition window: p = 1 is admissible at eta = -1/2 + 3 kappa
    p_max = 3 / (3 + eta_ic)
    window_ok = besov.dirac_membership(3, 1.0, eta_ic) and p_max > 1.0 \
        and not besov.dirac_membership(3, 1.3, eta_ic)
    elapsed = time.time() - t0
    ok = all_ok and window_ok and elapsed < 120
    assert _report("dirac-membership", ok,
                   " ".join(details) + f", p_max {p_max:.3f}, {elapsed:.0f}s")


def test_06a_c_eps_inverse_scaling():
    t0 = time.time()
    spreads = {}
    for name, green in (("pam", pam_green()), ("she", she_green())):
        prods = [c_eps(Mollifier(epsilon=e), green) * e
                 for e in (0.1, 0.05, 0.025)]
        spreads[name] = (max(prods) - min(prods)) / abs(np.mean(prods))
    elapsed = time.time() - t0
    ok = all(s < 0.02 for s in spreads.values())
    assert _report("renorm-c-scaling", ok,
                   f"pam spread {spreads['pam']:.2e}, she spread {spreads['she']:.2e}, "
                   f"{elapsed:.0f}s")


def test_06b_pam_c11_log_slope():
    # As eps -> 0, rho2 tends to a delta, so z1 = z3 = -z2 and c11 reduces to
    # the shell integral of G^3 with G = 1/(4 pi |x|):
    #   int_{eps<|x|<R} (4 pi |x|)^-3 dx = 4 pi (4 pi)^-3 log(R/eps),
    # i.e. c11 = log(1/eps)/(16 pi^2) + O(1), a slope of -1/(16 pi^2)
    # against log eps.
    t0 = time.time()
    green = pam_green()
    vals = {}
    for e in (0.2, 0.1, 0.05, 0.025):
        vals[e] = c11_eps(Mollifier(epsilon=e), [green],
                          n_samples=1 << 17, seed=3)[0]
    es = sorted(vals, reverse=True)
    slopes = [(vals[b]["value"] - vals[a]["value"]) / (np.log(b) - np.log(a))
              for a, b in zip(es, es[1:])]
    slope = float(np.mean(slopes))
    stderr_ok = all(v["stderr"] <= max(0.02 * abs(v["value"]), 1e-3)
                    for v in vals.values())
    target = -4 * np.pi / (4 * np.pi) ** 3
    elapsed = time.time() - t0
    ok = abs(slope - target) <= 0.1 * abs(target) and stderr_ok
    _report("renorm-pam-c11-slope", ok,
            f"measured {slope:.6f} vs -1/(16 pi^2) = {target:.6f}, "
            f"stderr ok={stderr_ok}, {elapsed:.0f}s")
    assert ok, (
        f"log-slope {slope:.6f} vs target -1/(16 pi^2) = {target:.6f} "
        f"(10% tolerance), stderr ok={stderr_ok}")


def test_06c_she_constants_cauchy():
    t0 = time.time()
    green = she_green()
    res = {}
    for i, e in enumerate((0.2, 0.1, 0.05, 0.025)):
        m = Mollifier(epsilon=e)
        res[e] = (c11_eps(m, [green], n_samples=1 << 16, seed=20 + i)[0],
                  c12_eps(m, [green], n_samples=1 << 16, seed=40 + i)[0])
    es = sorted(res, reverse=True)
    ok = True
    worst = -np.inf
    for a, b in zip(es, es[1:]):
        for j in (0, 1):
            inc = abs(res[b][j]["value"] - res[a][j]["value"])
            tol = 3 * float(np.hypot(res[b][j]["stderr"], res[a][j]["stderr"]))
            worst = max(worst, inc - tol)
            if inc > tol:
                ok = False
    elapsed = time.time() - t0
    assert _report("renorm-she-cauchy", ok,
                   f"dyadic increments of c11,c12 vanish within QMC noise "
                   f"(exact parabolic self-similarity); worst margin {worst:.2e}, "
                   f"{elapsed:.0f}s")


def test_06d_pam_c12_bounded():
    t0 = time.time()
    green = pam_green()
    out11, out12 = {}, {}
    for e in (0.05, 0.025):
        m = Mollifier(epsilon=e)
        out11[e] = c11_eps(m, [green], n_samples=1 << 17, seed=6)[0]
        out12[e] = c12_eps(m, [green], n_samples=1 << 17, seed=5)[0]
    inc11 = abs(out11[0.025]["value"] - out11[0.05]["value"])
    inc12 = abs(out12[0.025]["value"] - out12[0.05]["value"])
    elapsed = time.time() - t0
    ok = inc12 < inc11
    assert _report("renorm-pam-c12-bounded", ok,
                   f"c12 increment {inc12:.5f} < c11 increment {inc11:.5f}, "
                   f"{elapsed:.0f}s")


@pytest.mark.slow
def test_07_reconstruction():
    from mshe.reconstruct import ModelledDistribution, canonical_model, reconstruct, sewing_check

    t0 = time.time()
    basis = build_family(2)
    g = Grid(d=1, L=2.0, N=256, T=2.0, M=16384)
    xi = mollify(sample_white_noise(g, "spacetime", seed=0), Mollifier(epsilon=0.25))
    model = canonical_model(xi)
    ttg, xxg = np.meshgrid(g.ts, g.xs, indexing="ij")

    # constant lift: exact to quadrature tolerance
    fc = ModelledDistribution(grid=g, coeffs={"1": np.full((g.M, g.N), 2.3)})
    const_err = float(np.abs(reconstruct(fc, model, basis, 3, 5)["field"] - 2.3).max())

    # smooth-model product consistency
    u = 1.0 + 0.5 * np.sin(2 * np.pi * xxg / g.L)
    ux = 0.5 * (2 * np.pi / g.L) * np.cos(2 * np.pi * xxg / g.L)
    fp = ModelledDistribution(grid=g, coeffs={"Xi": u, "X*Xi": ux})
    n_max = 6
    res = reconstruct(fp, model, basis, 3, n_max)
    target = u * xi.values
    d2 = np.abs(np.diff(target, 2, axis=1)).max() / g.dx ** 2
    tol = 10 * 4.0 ** -n_max * d2
    prod_err = float(np.abs(res["field"] - target).max())

    # manufactured-smooth rate
    gf = np.sin(2 * np.pi * xxg / g.L) * (1 + 0.3 * np.cos(2 * np.pi * ttg / g.T))
    gx = (2 * np.pi / g.L) * np.cos(2 * np.pi * xxg / g.L) \
        * (1 + 0.3 * np.cos(2 * np.pi * ttg / g.T))
    fs = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    rate = sewing_check(reconstruct(fs, model, basis, 3, 6), alpha=0.0, gamma=2.0)["rate"]
    elapsed = time.time() - t0
    ok = (const_err < 1e-10 and prod_err < tol and abs(rate - 2.0) <= 0.3
          and elapsed < 300)
    assert _report("reconstruction", ok,
                   f"const {const_err:.1e}, product {prod_err:.3f} < tol {tol:.3f}, "
                   f"rate {rate:.3f} (gamma=2 within 15%), {elapsed:.0f}s")


def test_08_solver_oracles():
    t0 = time.time()
    # (a) zero-noise dirac vs periodized heat kernel
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=256)
    zero = Field(grid=g, values=np.zeros(g.shape("spacetime")), kind="spacetime")
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0="dirac",
                       T=0.25, snapshots=4, snapshot_t0=0.0625)
    traj = solve_renormalised(cfg, xi_eps=mollify(zero, Mollifier(epsilon=cfg.eps)))
    x0 = g.xs[g.N // 2]
    heat_err = max(float(np.abs(f - sum(heat_kernel(t, (g.xs - x0 + j * g.L)[:, None], 1)
                                        for j in range(-4, 5))).max())
                   for t, f in zip(traj.times, traj.fields))

    # (b) constant-noise exponential growth
    m_val = 1.7
    cn = Field(grid=g, values=np.full(g.shape("spacetime"), m_val), kind="spacetime")
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1.0),
                       T=0.25, snapshots=4)
    tr = solve_renormalised(cfg, xi_eps=mollify(cn, Mollifier(epsilon=cfg.eps)))
    growth_err = max(float(np.abs(f - np.exp(m_val * t)).max())
                     for t, f in zip(tr.times, tr.fields))

    # (c) Ito mean preservation over 200 seeds
    gi = Grid(d=1, L=4.0, N=128, T=0.1, M=1024)
    means = []
    for s in range(200):
        cfgi = SolverConfig(equation="she1d", grid=gi, eps=4 * gi.dx,
                            u0=("const", 1.0), T=0.1, seed=s, snapshots=2, dt=gi.dt)
        means.append(solve_ito_reference(cfgi).fields[-1].mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(means.size)
    ito_dev = abs(means.mean() - 1.0)

    # (d) pam2d direct vs change-of-unknown benchmark
    g2 = Grid(d=2, L=2.0, N=64)
    xi2 = mollify(sample_white_noise(g2, "spatial", seed=13),
                  Mollifier(epsilon=8 * g2.dx)).values
    C = float(xi2.mean())
    cfg2 = SolverConfig(equation="pam2d", grid=g2, eps=8 * g2.dx, C_eps=C,
                        u0=("const", 1.0), T=0.05, snapshots=2)
    direct = solve_renormalised(cfg2, xi_eps=Field(grid=g2, values=xi2, kind="spatial"))
    oracle = solve_pam_transformed(cfg2, Field(grid=g2, values=xi2, kind="spatial"))
    pam_rel = max(float(np.abs(f1 - f2).max() / np.abs(f2).max())
                  for f1, f2 in zip(direct.fields, oracle.fields))
    elapsed = time.time() - t0
    ok = (heat_err < 1e-6 and growth_err < 1e-8 and ito_dev < 3 * se
          and pam_rel < 5e-3 and elapsed < 600)
    assert _report("solver-oracles", ok,
                   f"heat {heat_err:.1e}, growth {growth_err:.1e}, "
                   f"ito |mean-1| {ito_dev:.4f} < 3SE {3 * se:.4f}, "
                   f"pam2d oracle rel {pam_rel:.1e}, {elapsed:.0f}s")


@pytest.mark.slow
def test_09_epsilon_convergence():
    t0 = time.time()
    # SHE: coupled noise, 10 seeds, strict pairwise decrease, majority >= 9/10
    g = Grid(d=1, L=16.0, N=2048, T=0.5, M=8192)
    res = convergence_study("she1d", g, [0.4, 0.2, 0.1, 0.05], T=0.5,
                            seeds=tuple(range(10)), include_ito=True,
                            n_qmc=1 << 13, snapshot_t0=0.25,
                            u0=("const", 1.0), dt=g.dx ** 2 / 2)
    she_votes = 0
    ito_votes = 0
    for r in res["results"]:
        d = r["pairwise"]
        she_votes += all(a > b for a, b in zip(d, d[1:]))
        ito_votes += r["to_ito"][0] > r["to_ito"][-1]

    # PAM 3d at 32^3, 5 seeds, majority >= 4/5
    g3 = Grid(d=3, L=2.0, N=32)
    res3 = convergence_study("pam3d", g3, [1.0, 0.5, 0.25, 0.125], T=0.1,
                             seeds=tuple(range(5)), n_qmc=1 << 14,
                             snapshot_t0=0.05)
    pam_votes = sum(all(a > b for a, b in zip(r["pairwise"], r["pairwise"][1:]))
                    for r in res3["results"])
    elapsed = time.time() - t0
    ok = she_votes >= 9 and pam_votes >= 4 and ito_votes >= 9 and elapsed < 1800
    assert _report("epsilon-convergence", ok,
                   f"she pairwise {she_votes}/10, she-to-ito {ito_votes}/10, "
                   f"pam3d {pam_votes}/5, {elapsed:.0f}s")


def test_10_determinism_across_threads(tmp_path):
    import os

    t0 = time.time()
    outputs = {}
    # the children import the same mshe package as this process
    package_parent = str(Path(mshe.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_parent,
                                               os.environ.get("PYTHONPATH")]))
    # the threads-4 child also runs BLAS on two threads (pam3d's GEMM steps)
    for threads, blas in ((1, "1"), (4, "2")):
        env = dict(os.environ, SHE_THREADS=str(threads), OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=pythonpath)
        out = tmp_path / f"t{threads}"
        cmds = [
            ["renorm", "--equation", "pam3d", "--eps", "0.1", "0.05",
             "--samples", "8192", "--seed", "3"],
            ["structure", "table", "--kappa", "0.01", "--d", "3"],
            ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
             "--grid", "256,2048,4,0.25", "--seeds", "2", "--samples", "4096"],
            ["converge", "--equation", "pam3d", "--eps-list", "1", "0.5", "0.25",
             "--grid", "16,0,2,0.1", "--seeds", "2", "--samples", "4096"],
        ]
        for i, cmd in enumerate(cmds):
            sub = out / str(i)
            proc = subprocess.run(
                [sys.executable, "-m", "mshe.cli"] + cmd + ["--out", str(sub)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        outputs[threads] = out
    identical = True
    for i in range(len(cmds)):
        for f1 in sorted((outputs[1] / str(i)).glob("*.csv")):
            f4 = outputs[4] / str(i) / f1.name
            if f1.read_bytes() != f4.read_bytes():
                identical = False
    elapsed = time.time() - t0
    ok = identical and elapsed < 300
    assert _report("determinism", ok,
                   f"all CSVs byte-identical across SHE_THREADS in {{1,4}} "
                   f"and OPENBLAS_NUM_THREADS in {{1,2}}, "
                   f"{elapsed:.0f}s")
