import dataclasses

import numpy as np
import pytest
from scipy import ndimage

import mshe.reconstruct as rec
from mshe.kernel import decompose
from mshe.noise import Grid, Mollifier, _IndexedInterp, mollify, sample_white_noise
from mshe.reconstruct import (
    SYMBOLS,
    Model,
    ModelledDistribution,
    canonical_model,
    read_modelled,
    reconstruct,
    sewing_check,
    time_shift_cells,
    write_modelled,
)
from mshe.wavelet import LevelTransform, _cascade, build_family, rescale_psi, step_filters


@pytest.fixture(scope="module")
def setup():
    basis = build_family(2)
    g = Grid(d=1, L=2.0, N=256, T=2.0, M=16384)
    xi = mollify(sample_white_noise(g, "spacetime", seed=0), Mollifier(epsilon=0.25))
    model = canonical_model(xi)
    return basis, g, model, xi


def test_canonical_model_matches_the_mesh_kernel():
    # the kernel evaluated on the rows and columns of its support 0 < t < 1,
    # |x| < 1 is bit for bit the kernel on the full mesh, and so is Phi through
    # the same F*K product; on the boxes T = 2 and T = 4 (and L = 4) the mesh
    # reaches past the support in time (and in space)
    dec = decompose(1, 3)
    for seed, (T, L) in enumerate([(1.0, 2.0), (2.0, 2.0), (4.0, 4.0)]):
        g = Grid(d=1, L=L, N=int(32 * L), T=T, M=int(1024 * T))
        xi = mollify(sample_white_noise(g, "spacetime", seed=4 + seed), Mollifier(epsilon=0.25))
        tt, xx = np.meshgrid(np.fft.fftfreq(g.M, d=1.0 / g.M) * g.dt,
                             np.fft.fftfreq(g.N, d=1.0 / g.N) * g.dx, indexing="ij")
        kern = dec._gm(tt, xx[..., None]) * g.dt * g.dx
        want = np.fft.irfftn(np.fft.rfftn(xi.values) * np.fft.rfftn(kern), s=(g.M, g.N),
                             axes=(0, 1))
        assert np.array_equal(canonical_model(xi).phi_field, want), (T, L)


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
    # Pi_z Gamma_{z,z'} tau = Pi_{z'} tau, exactly for the canonical maps;
    # Gamma_{z,z'} is the transport _transport applies, here to each symbol
    _, g, model, _ = setup
    z, zp = (3000, 60), (3100, 80)
    increments = {"x": g.xs[z[1]] - g.xs[zp[1]],
                  "Phi": model.phi_field[z] - model.phi_field[zp]}
    for sym in SYMBOLS:
        gamma_tau = rec._transport({s: float(s == sym) for s in SYMBOLS}, increments)
        lhs = sum(c * model.pi_field(s, z) for s, c in gamma_tau.items())
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
    # the level norms are absolutely homogeneous: those of -3 f are 3 times those of f
    scaled = ModelledDistribution(grid=g, coeffs={"1": -3.0 * gf, "X": -3.0 * gx})
    rep3 = sewing_check(reconstruct(scaled, model, basis, 3, 6), alpha=0.0, gamma=2.0)
    for key in ("A_norms", "delta_norms"):
        assert rep3[key] == pytest.approx({n: 3.0 * v for n, v in rep[key].items()}, rel=1e-12)


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
        "1": a * f1.coeffs["1"] + b * f2.coeffs["1"],
        "X": a * f1.coeffs["X"],
        "Xi": b * f2.coeffs["Xi"],
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


def test_function_level_reconstruction_identity(setup):
    # polynomial-only f with zero gradient coefficient: R u = Q_0 u
    basis, g, model, _ = setup
    gf, _ = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf})
    n_max = 6
    res = reconstruct(f, model, basis, 4, n_max)
    # coherence order 1 here: error ~ (C 4^-n + 2^-n) ||grad g||
    C = 7 * basis.support ** 2 + 1
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
    C = 7 * basis.support ** 2 + 1
    n = 4
    assert time_shift_cells(basis, n, g) == int(round(C * 4.0 ** -n / g.dt))


def test_modelled_roundtrip(tmp_path, setup):
    _, g, _, _ = setup
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X*Xi": gx}, gamma=1.5, p=3.0)
    path = tmp_path / "f.shef"
    write_modelled(path, f)
    h = read_modelled(path)
    assert h.gamma == 1.5 and h.p == 3.0
    assert list(h.coeffs) == ["1", "X*Xi"]
    assert np.array_equal(h.coeffs["1"], gf)
    assert np.array_equal(h.coeffs["X*Xi"], gx)


@pytest.mark.parametrize("syms", [SYMBOLS[:2], SYMBOLS[:3], SYMBOLS[:4], SYMBOLS],
                         ids=["2", "3", "4", "6"])
def test_modelled_roundtrip_any_symbol_count(tmp_path, syms):
    # the carrier's channels are padded with zero blocks to a power of two;
    # 1, 2 and 4 channels are stored as they are
    from mshe.noise import read_field

    g = Grid(d=1, L=1.0, N=32, T=0.25, M=64)
    rng = np.random.default_rng(3)
    f = ModelledDistribution(grid=g, coeffs={s: rng.standard_normal((g.M, g.N)) for s in syms})
    path = tmp_path / "f.shef"
    write_modelled(path, f)
    h = read_modelled(path)
    assert list(h.coeffs) == list(syms) and h.grid == g
    assert all(np.array_equal(h.coeffs[s], f.coeffs[s]) for s in syms)
    carrier = read_field(path).values
    blocks = {2: 2, 3: 4, 4: 4, 6: 8}[len(syms)]
    assert carrier.shape == (blocks * g.M, g.N)
    assert np.array_equal(carrier[:len(syms) * g.M], np.concatenate(list(f.coeffs.values())))
    assert not carrier[len(syms) * g.M:].any()


def test_reconstruct_norms_independent_of_layout(setup):
    # the same level values, C- or Fortran-ordered, give the same deltas
    # through the filter reconstruct takes them by, and the same sewing norms,
    # bit for bit
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    res = reconstruct(ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx}), model,
                      basis, 3, 6)
    low = step_filters(basis)[0]
    levels_f = {n: np.asfortranarray(A) for n, A in res["levels"].items()}
    assert all(A.flags.f_contiguous and not A.flags.c_contiguous for A in levels_f.values())
    deltas_f = {n: rec._coarser({"phi": levels_f[n + 1]}, low, 0.0)["phi"] - levels_f[n]
                for n in res["deltas"]}
    for n in res["deltas"]:
        assert np.array_equal(deltas_f[n], res["deltas"][n])
    res_f = dict(res, levels=levels_f, deltas=deltas_f)
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


def _random_model_and_lift(seed, syms):
    g = Grid(d=1, L=2.0, N=64, T=1.0, M=1024)
    rng = np.random.default_rng(seed)
    model = Model(grid=g, xi=rng.standard_normal((g.M, g.N)),
                  phi_field=rng.standard_normal((g.M, g.N)))
    f = ModelledDistribution(grid=g, coeffs={s: rng.standard_normal((g.M, g.N)) for s in syms})
    return g, model, f


def test_delta_A_explicit_double_sum(setup):
    # delta A^n = sum_k a_k A^{n+1}_{(t,x) + k 2^-(n+1)} - A^n with the
    # parabolic refinement: double-refined (c *_2 c)/2 in time, c/sqrt 2 in space
    basis = setup[0]
    _, model, f = _random_model_and_lift(5, SYMBOLS)
    res = reconstruct(f, model, basis, 2, 3)
    A_n, A_n1 = res["levels"][2], res["levels"][3]
    (M1, N1) = A_n1.shape
    assert A_n.shape == (M1 // 4, N1 // 2) == (16, 8)
    c = basis.refine_coeffs
    a_t = np.zeros(3 * (c.size - 1) + 1)
    for k, ck in enumerate(c):
        a_t[2 * k:2 * k + c.size] += ck * c / 2.0
    a_x = c / np.sqrt(2.0)
    want = -A_n
    for t in range(A_n.shape[0]):
        for x in range(A_n.shape[1]):
            for k0, at in enumerate(a_t):
                for k1, ax in enumerate(a_x):
                    want[t, x] += at * ax * A_n1[(4 * t + k0) % M1, (2 * x + k1) % N1]
    got = res["deltas"][2]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_level_A_ball_averages(setup):
    # a lift with one coefficient c gives T1 * avg(c) for symbol 1, and
    # D1 * avg(c) - T1 * avg(c(y) (y - x)) for X, with T1 and D1 the level
    # transforms of the field 1; the ball averages agree with scipy's wrapped
    # filters subsampled at the lattice columns, at a level descended twice
    basis = setup[0]
    g = Grid(d=1, L=2.0, N=64, T=1.0, M=1024)
    c = np.random.default_rng(6).standard_normal((g.M, g.N))
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
        f = ModelledDistribution(grid=g, coeffs={sym: c})
        got = reconstruct(f, None, basis, n, n + 2)["levels"][n]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), sym


@pytest.mark.parametrize("sym", SYMBOLS)
def test_level_A_against_its_definition(setup, sym):
    # A^n_{t,x} = avg_{y in B(x, 2^-n)} c(t_dn, y) <Pi_{(t_dn, y)} sym, phi^n_{t,x}>
    # by brute force at a few lattice points away from the box's edges, with
    # Pi from Model.pi_field and phi^n_{t,x} from rescale_psi on the grid; the
    # level is descended two steps from the projection at n_max
    basis = setup[0]
    g, model, f = _random_model_and_lift(7, [sym])
    c = f.coeffs[sym]
    n = 2
    got = reconstruct(f, model, basis, n, n + 2)["levels"][n]
    stride_t, stride_x = int(4.0 ** -n / g.dt), int(2.0 ** -n / g.dx)
    shift = time_shift_cells(basis, n, g)
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
    for i, j in [(4, 1), (8, 2), (11, 3)]:
        it, ix = i * stride_t, j * stride_x
        atom = rescale_psi(basis, n, (g.ts[it], g.xs[ix]), ("phi", "phi"))(tt, xx)
        t_dn = (it - shift) % g.M
        ys = range(ix - stride_x, ix + stride_x + 1)
        want = np.mean([c[t_dn, y] * np.sum(model.pi_field(sym, (t_dn, y)) * atom)
                        for y in ys]) * g.dt * g.dx
        assert got[i, j] == pytest.approx(want, rel=1e-12, abs=0), (i, j)


def test_coarse_levels_against_a_deep_table(setup):
    # at level 0 of a T = 2, M = 16384 box the time stride is 2^13, past the
    # 2^-12 phi table: the levels and R_0 f descended from a projection at
    # level 1 (stride 2^11) agree with those of a direct projection at level 0
    # on a table of depth 16, where every sample is exact
    basis = setup[0]
    g = Grid(d=1, L=2.0, N=32, T=2.0, M=16384)
    rng = np.random.default_rng(8)
    model = Model(grid=g, xi=rng.standard_normal((g.M, g.N)),
                  phi_field=rng.standard_normal((g.M, g.N)))
    f = ModelledDistribution(grid=g, coeffs={s: rng.standard_normal((g.M, g.N))
                                             for s in SYMBOLS})
    vals = _cascade(basis.refine_coeffs, 16)
    deep = dataclasses.replace(basis, depth=16, phi=_IndexedInterp(
        np.arange(vals.size) * 2.0 ** -16, vals, vals.size - 1))
    want = reconstruct(f, model, deep, 0, 0)
    got = reconstruct(f, model, basis, 0, 1)
    for key in ("levels", "outputs"):
        a, b = got[key][0], want[key][0]
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), key
    with pytest.raises(ValueError, match="level-0 time stride 8192 exceeds the 2"):
        reconstruct(f, model, basis, 0, 0)


def test_reconstruct_builds_one_level_transform(setup, monkeypatch):
    # each base field is projected once, at n_max, and every coarser level
    # and R_n f go through the filter: one LevelTransform per call
    basis = setup[0]
    _, model, f = _random_model_and_lift(9, SYMBOLS)
    built = []
    init = LevelTransform.__init__

    def counting(self, basis, n, *args):
        built.append(n)
        init(self, basis, n, *args)

    monkeypatch.setattr(LevelTransform, "__init__", counting)
    reconstruct(f, model, basis, 1, 4)
    assert built == [4]


def test_reconstruct_projects_disp_only_where_read(setup, monkeypatch):
    # A^n reads the phi (y - x) transform of the field N only for a symbol
    # with the noise factor N and b > 0 (X*Xi for xi): on a six-symbol lift,
    # Phi and xi Phi are projected onto phi alone
    basis = setup[0]
    _, model, f = _random_model_and_lift(9, SYMBOLS)
    bases = {"xi": model.xi, "Phi": model.phi_field, "xi Phi": model.xi * model.phi_field}
    seen = {}
    forward = LevelTransform.forward

    def spy(self, values, combos):
        seen[next(k for k, v in bases.items() if np.array_equal(values, v))] = list(combos)
        return forward(self, values, combos)

    monkeypatch.setattr(LevelTransform, "forward", spy)
    reconstruct(f, model, basis, 1, 4)
    assert seen == {"xi": [("phi", "phi"), ("phi", "disp")], "Phi": [("phi", "phi")],
                    "xi Phi": [("phi", "phi")]}


def test_polynomial_lift_reads_no_model(setup):
    # a lift of 1 and X reads neither xi nor Phi: without a model it gives
    # the same bytes
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    f = ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx})
    assert not f.reads_model
    assert all(ModelledDistribution(grid=g, coeffs={s: gf}).reads_model
               for s in ("I(Xi)", "Xi", "X*Xi", "Xi*I(Xi)"))
    want, got = reconstruct(f, model, basis, 3, 4), reconstruct(f, None, basis, 3, 4)
    for key in ("levels", "deltas", "outputs"):
        assert all(np.array_equal(got[key][n], want[key][n]) for n in want[key]), key


def test_polynomial_lift_runs_no_field_transform(setup, monkeypatch):
    # a lift carrying only 1 and X needs the transforms of the constant field
    # alone, which are axis tap sums: no forward transform of xi, Phi or xi Phi
    basis, g, model, _ = setup
    gf, gx = _smooth_pair(g)
    want = reconstruct(ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx}),
                       model, basis, 3, 4)

    def refuse(*args):
        raise AssertionError("LevelTransform.forward called")

    monkeypatch.setattr(LevelTransform, "forward", refuse)
    got = reconstruct(ModelledDistribution(grid=g, coeffs={"1": gf, "X": gx}),
                      model, basis, 3, 4)
    assert np.array_equal(got["field"], want["field"])
    with pytest.raises(AssertionError, match="forward called"):
        reconstruct(ModelledDistribution(grid=g, coeffs={"Xi": gf}), model, basis, 3, 4)
