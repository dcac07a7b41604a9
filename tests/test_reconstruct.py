import numpy as np
import pytest
from scipy import ndimage

import mshe.reconstruct as rec
from mshe.kernel import decompose
from mshe.noise import Grid, Mollifier, mollify, sample_white_noise
from mshe.reconstruct import (
    SYMBOLS,
    Model,
    ModelledDistribution,
    canonical_model,
    dgamma_norm,
    read_modelled,
    reconstruct,
    sewing_check,
    symbol_homogeneity,
    time_shift_cells,
    write_modelled,
)
from mshe.wavelet import LevelTransform, build_family


@pytest.fixture(scope="module")
def setup():
    basis = build_family(2)
    g = Grid(d=1, L=2.0, N=256, T=2.0, M=16384)
    dec = decompose(1, 3)
    xi = mollify(sample_white_noise(g, "spacetime", seed=0), Mollifier(epsilon=0.25))
    model = canonical_model(xi, dec)
    return basis, g, model, xi


def _smooth_pair(g):
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
    gf = np.sin(2 * np.pi * xx / g.L) * (1 + 0.3 * np.cos(2 * np.pi * tt / g.T))
    gx = (2 * np.pi / g.L) * np.cos(2 * np.pi * xx / g.L) \
        * (1 + 0.3 * np.cos(2 * np.pi * tt / g.T))
    return gf, gx


def test_pi_monomial_exact(setup):
    _, g, model, _ = setup
    z = (100, 37)
    vals = model.pi_field("X", z)
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
    assert np.array_equal(vals, xx - g.xs[37])


def test_pi_ixi_vanishes_at_base(setup):
    _, _, model, _ = setup
    z = (500, 100)
    assert model.pi_field("I(Xi)", z)[z] == 0.0


def test_pi_unit_mass_pairing(setup):
    _, _, model, _ = setup
    val = model.pair("1", (4096, 128), lam=0.25)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_algebraic_property(setup):
    # Pi_z Gamma_{z,z'} tau = Pi_{z'} tau, exactly for the canonical maps
    _, _, model, _ = setup
    z, zp = (3000, 60), (3100, 80)
    for sym in SYMBOLS:
        shift = model.gamma_shift(sym, z, zp)
        lhs = model.pi_field(sym, z)
        if shift is not None:
            low, coef = shift
            lhs = lhs + coef * model.pi_field(low, z)
        rhs = model.pi_field(sym, zp)
        assert np.allclose(lhs, rhs, atol=1e-12), sym


def test_analytic_bound_exponent_xi(setup):
    # regression slope of log sup|<Pi_z Xi, eta^lam_z>| vs log lam is >= alpha
    basis, _, _, _ = setup
    kappa = 0.05
    alpha = -1.5 - kappa
    g = Grid(d=1, L=2.0, N=256, T=1.0, M=2048)
    dec_lams = [2.0 ** -1, 2.0 ** -2, 2.0 ** -3]
    slopes = []
    for seed in range(8):
        xi = mollify(sample_white_noise(g, "spacetime", seed=seed),
                     Mollifier(epsilon=1 / 16))
        from mshe.reconstruct import Model
        model = Model(grid=g, xi=xi.values, phi_field=np.zeros_like(xi.values))
        sups = []
        for lam in dec_lams:
            best = 0.0
            for (it, ix) in [(600, 64), (1000, 128), (1400, 192), (800, 32)]:
                best = max(best, abs(model.pair("Xi", (it, ix), lam)))
            sups.append(best)
        slopes.append(np.polyfit(np.log(dec_lams), np.log(sups), 1)[0])
    mean = np.mean(slopes)
    ci = 1.96 * np.std(slopes, ddof=1) / np.sqrt(len(slopes))
    assert mean + ci >= alpha


def test_constant_lift(setup):
    basis, g, model, _ = setup
    f = ModelledDistribution(grid=g, coeffs={"1": np.full((g.M, g.N), 2.3)})
    res = reconstruct(f, model, basis, 3, 5)
    assert np.abs(res["field"] - 2.3).max() < 1e-12


def test_smooth_lift_rate(setup):
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    res = reconstruct(f, model, basis, 3, 6)
    errs = {n: np.abs(res["outputs"][n] - gf).max() for n in res["outputs"]}
    assert errs[6] < 0.05
    rep = sewing_check(res, alpha=0.0, gamma=2.0)
    assert rep["rate"] == pytest.approx(2.0, rel=0.15)
    assert rep["delta_stable"]


def test_product_consistency(setup):
    basis, g, model, xi = setup
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
    u = 1.0 + 0.5 * np.sin(2 * np.pi * xx / g.L)
    ux = 0.5 * (2 * np.pi / g.L) * np.cos(2 * np.pi * xx / g.L)
    f = ModelledDistribution(grid=g, coeffs={"Xi": u, "X*Xi": ux})
    n_max = 6
    res = reconstruct(f, model, basis, 3, n_max)
    target = u * xi.values
    # quadrature tolerance budget: 2^{-2 n_max} x measured curvature scale
    d2 = np.abs(np.diff(target, 2, axis=1)).max() / g.dx ** 2
    tol = 10 * 4.0 ** -n_max * d2
    assert np.abs(res["field"] - target).max() < tol


def test_reconstruct_linear(setup):
    basis, g, model, _ = setup
    rng = np.random.default_rng(0)
    gf, gx = _smooth_pair(g)
    f1 = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    f2 = ModelledDistribution(grid=g, coeffs={"1": np.roll(gf, 40, axis=1),
                                              "Xi": 0.3 * np.roll(gx, 10, axis=1)})
    a, b = 1.3, -0.7
    f3 = ModelledDistribution(grid=g, coeffs={
        "1": a * f1.get("1") + b * f2.get("1"),
        "X": a * f1.get("X"),
        "Xi": b * f2.get("Xi"),
    })
    r1 = reconstruct(f1, model, basis, 3, 4)["field"]
    r2 = reconstruct(f2, model, basis, 3, 4)["field"]
    r3 = reconstruct(f3, model, basis, 3, 4)["field"]
    assert np.allclose(r3, a * r1 + b * r2, atol=1e-10)


def test_locality(setup):
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    f1 = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    # perturb only where |x| > 0.75 (ball complement), all times
    mask = (np.abs(g.xs) > 0.75)[None, :]
    pert = 5.0 * mask * np.ones((g.M, g.N))
    f2 = ModelledDistribution(grid=g, coeffs={"1": gf + pert, "X": gx})
    r1 = reconstruct(f1, model, basis, 3, 5)["field"]
    r2 = reconstruct(f2, model, basis, 3, 5)["field"]
    inner = np.abs(g.xs) < 0.25
    assert np.abs((r1 - r2)[:, inner]).max() < 1e-12


def test_sewing_violation_detected(setup):
    basis, _, _, _ = setup
    # synthetic level data: delta A^n ~ 2^{-0.1 n} against requested gamma = 1.5
    rng = np.random.default_rng(1)
    levels, deltas, outputs = {}, {}, {}
    for n in range(2, 7):
        shape = (4 ** n // 4, 2 ** n)
        levels[n] = 2.0 ** (-n * 1.5) * rng.normal(size=shape)
        outputs[n] = np.zeros((64, 64))
        if n > 2:
            deltas[n - 1] = 2.0 ** (-0.1 * (n - 1)) * rng.normal(size=(4 ** (n - 1) // 4,
                                                                       2 ** (n - 1)))
    res = {"levels": levels, "deltas": deltas, "outputs": outputs, "field": outputs[6]}
    rep = sewing_check(res, alpha=0.0, gamma=1.5)
    assert not rep["delta_stable"]


def test_sewing_zero(setup):
    basis, g, model, _ = setup
    f = ModelledDistribution(grid=g, coeffs={})
    res = reconstruct(f, model, basis, 3, 6)
    rep = sewing_check(res, alpha=0.0, gamma=1.5)
    assert rep["A_sup"] == 0.0 and rep["delta_sup"] == 0.0
    assert np.all(res["field"] == 0.0)


def test_dgamma_zero_and_homogeneity(setup):
    basis, g, model, _ = setup
    assert dgamma_norm(ModelledDistribution(grid=g, coeffs={}), model) == 0.0
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    n1 = dgamma_norm(f, model, gamma=2.0, p=2.0)
    n2 = dgamma_norm(f.scaled(-3.0), model, gamma=2.0, p=2.0)
    assert n2 == pytest.approx(3.0 * n1, rel=1e-12)


def test_function_level_reconstruction_identity(setup):
    # polynomial-only f with zero gradient coefficient: R u = Q_0 u
    basis, g, model, _ = setup
    gf, _ = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf})
    n_max = 6
    res = reconstruct(f, model, basis, 4, n_max)
    # coherence order 1 here: error ~ (C 4^-n + 2^-n) ||grad g||
    C = 7 * basis.support_radius ** 2 + 1
    grad = np.abs(np.diff(gf, axis=1)).max() / g.dx
    dt_g = np.abs(np.diff(gf, axis=0)).max() / g.dt
    tol = 3 * (C * 4.0 ** -n_max * dt_g + 2.0 ** -n_max * grad)
    assert np.abs(res["field"] - gf).max() < tol


def test_positive_level_reconstructs_small(setup):
    basis, g, model, _ = setup
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
    h = 0.8 + 0.2 * np.cos(2 * np.pi * xx / g.L)
    f = ModelledDistribution(grid=g, coeffs={"X": h})
    res = reconstruct(f, model, basis, 3, 6)
    norms = {n: np.abs(res["outputs"][n]).max() for n in res["outputs"]}
    # reconstruction shrinks like 2^-n; the limit is the zero function
    assert norms[6] < norms[3] / 4
    assert norms[6] < 0.1 * np.abs(h).max()


def test_local_defect_lambda_scaling(setup):
    # || <R f - Pi_z f(z), eta^lam_z> || ~ lam^gamma_eff with gamma_eff >= 1.8
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")

    def bump(u):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(np.abs(u) < 1.0,
                            np.exp(-1.0 / np.maximum(1e-300, 1.0 - u ** 2)), 0.0)

    # pair the test scale lambda = 2^-(n-2) with the level-n approximant, as
    # in the dyadic construction; the defect then scales like lambda^gamma
    res_all = reconstruct(f, model, basis, 3, 6)
    lams, defects = [], []
    pts = [(4000, 64), (8000, 128), (12000, 192)]
    for n in (4, 5, 6):
        lam = 2.0 ** -(n - 2)
        rf_n = res_all["outputs"][n]
        worst = 0.0
        for (it, ix) in pts:
            t0c, x0c = g.ts[it], g.xs[ix]
            eta = bump((tt - t0c) / lam ** 2) * bump((xx - x0c) / lam)
            eta /= eta.sum() * g.dt * g.dx
            local = gf[it, ix] + gx[it, ix] * (xx - x0c)
            worst = max(worst, abs(float(np.sum((rf_n - local) * eta) * g.dt * g.dx)))
        lams.append(lam)
        defects.append(worst)
    slope = np.polyfit(np.log(lams), np.log(defects), 1)[0]
    assert slope >= 2.0 - 0.2 - 0.15


def test_time_shift_cells(setup):
    basis, g, _, _ = setup
    C = 7 * basis.support_radius ** 2 + 1
    n = 4
    assert time_shift_cells(basis, n, g) == int(round(C * 4.0 ** -n / g.dt))


def test_symbol_homogeneities():
    k = 0.05
    assert symbol_homogeneity("1", k) == 0.0
    assert symbol_homogeneity("Xi", k) == -1.55
    assert symbol_homogeneity("I(Xi)", k) == pytest.approx(0.45)
    assert symbol_homogeneity("Xi*I(Xi)", k) == pytest.approx(-1.1)


def test_modelled_roundtrip(tmp_path, setup):
    _, g, _, _ = setup
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X*Xi": gx}, gamma=1.5, p=3.0)
    path = tmp_path / "f.shef"
    write_modelled(path, f)
    h = read_modelled(path)
    assert h.gamma == 1.5 and h.p == 3.0
    assert np.array_equal(h.get("1"), gf)
    assert np.array_equal(h.get("X*Xi"), gx)
    assert np.all(h.get("Xi") == 0.0)


def test_reconstruct_norms_independent_of_layout(setup, monkeypatch):
    # the same level values, C- or Fortran-ordered, give the same deltas and
    # the same sewing norms bit for bit
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    res = reconstruct(f, model, basis, 3, 6)
    level_A = rec._level_A
    monkeypatch.setattr(rec, "_level_A", lambda *a: np.asfortranarray(level_A(*a)))
    res_f = reconstruct(f, model, basis, 3, 6)
    assert all(A.flags.f_contiguous and not A.flags.c_contiguous
               for A in res_f["levels"].values())
    for n in res["levels"]:
        assert np.array_equal(res_f["levels"][n], res["levels"][n])
    for n in res["deltas"]:
        assert np.array_equal(res_f["deltas"][n], res["deltas"][n])
    assert sewing_check(res_f, alpha=0.0, gamma=2.0) == sewing_check(res, alpha=0.0, gamma=2.0)


def test_sewing_sup_norm():
    # p = infinity: each level norm is max |A^n| / 2^{-n|s|/2 - n alpha}
    rng = np.random.default_rng(4)
    levels = {n: rng.standard_normal((4 ** n // 4, 2 ** n)) for n in range(2, 7)}
    deltas = {n: rng.standard_normal(levels[n].shape) for n in range(2, 6)}
    outputs = {n: np.full((64, 64), 2.0 ** -n) for n in levels}
    res = {"levels": levels, "deltas": deltas, "outputs": outputs, "field": outputs[6]}
    rep = sewing_check(res, alpha=0.3, gamma=1.5, p=np.inf)
    for norms, arrays, expo in ((rep["A_norms"], levels, 0.3),
                                (rep["delta_norms"], deltas, 1.5)):
        for n, arr in arrays.items():
            want = np.max(np.abs(arr)) / 2.0 ** (-n * 3 / 2.0 - n * expo)
            assert norms[n] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("p", [np.inf, 1.0, 2.0])
def test_sewing_rate_from_lp_error(p):
    # the rate is fitted from ||R_n f - R_6 f||_p: a spike of 2^-n on a
    # background of 4^-n decays at rate 1 in the sup norm, 2.00 in L^1 and
    # 1.95 in L^2
    levels = {n: np.ones((4, 4)) for n in range(2, 7)}
    outputs = {}
    for n in levels:
        diff = np.full((64, 64), 4.0 ** -n)
        diff[10, 20] = 2.0 ** -n
        outputs[n] = diff if n < 6 else np.zeros((64, 64))
    res = {"levels": levels, "deltas": {n: levels[n] for n in range(2, 6)},
           "outputs": outputs, "field": outputs[6]}
    ns = range(2, 6)
    if np.isinf(p):
        errs = [np.max(outputs[n]) for n in ns]
    else:
        errs = [np.mean(outputs[n] ** p) ** (1.0 / p) for n in ns]
    want = -np.polyfit(list(ns), np.log2(errs), 1)[0]
    rate = sewing_check(res, alpha=0.0, gamma=2.0, p=p)["rate"]
    assert rate == pytest.approx(want, rel=1e-12)


def test_delta_A_explicit_double_sum(setup):
    basis = setup[0]
    rng = np.random.default_rng(5)
    A_n, A_n1 = rng.standard_normal((8, 6)), rng.standard_normal((32, 12))
    a_t, a_x = rec._refine_coeffs(basis)
    want = -A_n
    for t in range(8):
        for x in range(6):
            for k0, at in enumerate(a_t):
                for k1, ax in enumerate(a_x):
                    want[t, x] += at * ax * A_n1[(4 * t + k0) % 32, (2 * x + k1) % 12]
    got = rec._delta_A(A_n, A_n1, basis)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_level_A_ball_averages(setup):
    # a lift with one coefficient c gives T1 * avg(c) for symbol 1, and
    # D1 * avg(c) - T1 * avg(c(y) (y - x)) for X; the ball averages agree
    # with scipy's wrapped filters subsampled at the lattice columns
    basis = setup[0]
    g = Grid(d=1, L=2.0, N=64, T=1.0, M=1024)
    rng = np.random.default_rng(6)
    model = Model(grid=g, xi=rng.standard_normal((g.M, g.N)),
                  phi_field=rng.standard_normal((g.M, g.N)))
    c = rng.standard_normal((g.M, g.N))
    n = 2
    eng = LevelTransform(basis, n, g.dx, g.dt)
    T1, D1 = (v * g.dt * g.dx for v in
              eng.forward(np.ones((g.M, g.N)), [("phi", "phi"), ("phi", "disp")]).values())
    half, cols = eng.stride_x, slice(None, None, eng.stride_x)
    rows = c[(np.arange(g.M // eng.stride_t) * eng.stride_t
              - time_shift_cells(basis, n, g)) % g.M]
    box = ndimage.uniform_filter1d(rows, 2 * half + 1, axis=1, mode="wrap")[:, cols]
    lin = ndimage.correlate1d(rows, np.arange(-half, half + 1) / (2 * half + 1.0),
                              axis=1, mode="wrap")[:, cols] * g.dx
    for sym, want in (("1", T1 * box), ("X", D1 * box - T1 * lin)):
        got = rec._level_A(ModelledDistribution(grid=g, coeffs={sym: c}), model, basis, n)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), sym
