import math

import numpy as np
import pytest

from mshe import renorm
from mshe.kernel import _smoothstep
from mshe.noise import Mollifier, _bb_cdf
from mshe.renorm import (
    c11_eps,
    c12_eps,
    c_eps,
    compute_constants,
    pam_green,
    she_green,
)
from mshe.renorm import (_c_eps_pam, _pam_shells, _qmc_mean, _quadrature, _sample_rho2,
                         _sobol)


def _moll(eps):
    return Mollifier(epsilon=eps)


def _rho_sq(m, t, x):
    # the space-time self-convolution rho_eps^{*2}(t, x): the bb table at
    # time scale eps^2 times the spatial marginal
    e = m.epsilon
    return m.bb(t / e ** 2) / e ** 2 * m.rho_sq_spatial(x)


def test_rho_sq_mass_and_evenness():
    # the squared mollifier sampled in the form the renorm quadratures read it
    m = _moll(0.2)
    t = np.linspace(-0.1, 0.1, 401)
    x = np.linspace(-0.45, 0.45, 401)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    vals = _rho_sq(m, tt, xx[..., None])
    mass = np.trapezoid(np.trapezoid(vals, x, axis=1), t)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(vals, vals[:, ::-1], atol=1e-14)


def test_c_eps_inverse_scaling():
    for green in (pam_green(), she_green()):
        prods = []
        for e in (0.1, 0.05, 0.025):
            prods.append(c_eps(_moll(e), green) * e)
        spread = (max(prods) - min(prods)) / abs(np.mean(prods))
        assert spread < 0.02


@pytest.mark.parametrize("profile", ["exp", "poly4"])
@pytest.mark.parametrize("equation,eps_list", [
    ("pam3d", (0.125, 0.1, 0.07, 0.0125)),
    ("she1d", (0.4, 0.3, 0.05)),
])
def test_c_eps_matches_direct_quadrature(equation, eps_list, profile):
    # c_eps rescales one unit-scale value; the same rule run at each eps
    # itself must agree, and each profile must get its own value
    green = pam_green() if equation == "pam3d" else she_green()
    for e in eps_list:
        moll = Mollifier(epsilon=e, profile=profile)
        direct = _quadrature(moll, green, 1e-5)
        assert c_eps(moll, green) == pytest.approx(direct, rel=1e-14, abs=0)
    other = "poly4" if profile == "exp" else "exp"
    e = eps_list[0]
    assert c_eps(Mollifier(epsilon=e, profile=other), green) != c_eps(
        Mollifier(epsilon=e, profile=profile), green)


def test_c_eps_depends_on_mollifier_shape():
    # a differently shaped bump gives a different proportionality constant
    e = 0.1
    base = c_eps(_moll(e), she_green()) * e
    other = c_eps(Mollifier(epsilon=e, profile="poly4"), she_green()) * e
    assert abs(base - other) / abs(base) > 0.01


def test_c_eps_pam_against_brute_force():
    # independent midpoint Riemann oracle on a fine tensor grid
    e = 0.1
    m = _moll(e)
    n = 220
    g = (np.arange(n) + 0.5) / n * 4 * e - 2 * e
    X = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    r = np.sqrt(np.sum(X ** 2, axis=-1))
    oracle = float(
        (1 / (4 * np.pi * np.maximum(r, 1e-30)) * m.rho_sq_spatial(X)).sum()
        * (4 * e / n) ** 3)
    val = c_eps(m, pam_green())
    assert val == pytest.approx(oracle, rel=1e-3)


def test_c_eps_she_against_brute_force():
    e = 0.1
    m = _moll(e)
    ntau, nx = 3000, 3000
    tau = (np.arange(ntau) + 0.5) / ntau * 2 * e
    xs = (np.arange(nx) + 0.5) / nx * 4 * e - 2 * e
    TT, XX = np.meshgrid(tau ** 2, xs, indexing="ij")
    P = (4 * np.pi * TT) ** -0.5 * np.exp(-XX ** 2 / (4 * TT))
    oracle = float(np.sum(P * _rho_sq(m, TT, XX[..., None]) * (2 * tau[:, None]))
                   * (2 * e / ntau) * (4 * e / nx))
    val = c_eps(m, she_green())
    assert val == pytest.approx(oracle, rel=1e-3)


@pytest.mark.parametrize("profile", ["exp", "poly4"])
def test_pam_shells_cover_the_support_cube(profile):
    # rho2 lives on the cube [-2 eps, 2 eps]^3, so the radial x sphere nodes
    # of the pam3d rule must reach its corners and integrate rho2 to mass 1
    moll = Mollifier(epsilon=0.1, profile=profile)
    for n_r in (128, 256):
        mass = sum(rwt * rv ** 2 * sphere for rv, rwt, sphere in _pam_shells(moll, n_r))
        assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("profile", ["exp", "poly4"])
def test_pam_rule_matches_the_scalar_shell_sum(profile):
    # the shells with rho2 evaluated at every tiled direction by
    # rho_sq_spatial, and the cutoff applied shell by shell in a generator:
    # the array forms give the same bits
    moll = Mollifier(epsilon=1.0, profile=profile)
    n_c, n_p = 64, 128
    cn, cw = np.polynomial.legendre.leggauss(n_c)
    phi = (np.arange(n_p) + 0.5) * 2.0 * np.pi / n_p
    st = np.sqrt(1.0 - cn ** 2)
    dirs = np.stack([np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)),
                     np.tile(cn[:, None], (1, n_p))], axis=-1)
    for n_r in (128, 256):
        rn, rw = np.polynomial.legendre.leggauss(n_r)
        half = math.sqrt(3.0)
        shells = [(rv, rwt, np.sum(moll.rho_sq_spatial(rv * dirs) * cw[:, None])
                   * (2.0 * np.pi / n_p)) for rv, rwt in zip(half * (rn + 1.0), half * rw)]
        assert np.array_equal(_pam_shells(moll, n_r), np.array(shells))
        for R in (1, 2, 4, 8, 10, 20, 40, 80):
            want = sum(rwt * rv * sphere * _smoothstep(rv / R)
                       for rv, rwt, sphere in shells) / (4.0 * np.pi)
            assert _c_eps_pam(moll, n_r, R) == want, (n_r, R)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_c_eps_pam_cutoff_against_monte_carlo(eps):
    # at eps > R_G / (4 sqrt 3) the cutoff of G reaches into the support of
    # rho2: c is still E G(z), z ~ rho2, here by plain Monte Carlo with
    # per-axis inverse-CDF draws and G evaluated pointwise
    m = _moll(eps)
    p = np.random.default_rng(5).random((1 << 20, 3))
    q = m.bb_quantile(p)
    # the sample np.interp draws on the same table, bit for bit
    gs, cdf = _bb_cdf(m.profile)
    assert np.array_equal(q, np.interp(p, cdf, gs))
    z = eps * q
    g = pam_green()(z)
    stderr = g.std(ddof=1) / np.sqrt(g.size)
    assert abs(c_eps(m, pam_green()) - g.mean()) <= 4 * stderr


def test_c11_pam_log_slope():
    # log-divergence with coefficient -1/(16 pi^2) (shell integral of G^3)
    green = pam_green()
    vals = {}
    for e in (0.2, 0.1, 0.05, 0.025):
        vals[e] = c11_eps(_moll(e), [green], n_samples=1 << 17, seed=11)[0]
    es = sorted(vals, reverse=True)
    slopes = [(vals[b]["value"] - vals[a]["value"]) / (np.log(b) - np.log(a))
              for a, b in zip(es, es[1:])]
    target = -1.0 / (16 * np.pi ** 2)
    assert np.mean(slopes) == pytest.approx(target, rel=0.10)


def test_c11_pam_depends_on_the_ratio_only():
    # every sample scales exactly by a power of two: eps = 1/8 under R_G = 1
    # is eps = 1 under R_G = 8, bit for bit
    a = c11_eps(_moll(0.125), [pam_green(1.0)], n_samples=1 << 14, seed=1000)[0]
    b = c11_eps(_moll(1.0), [pam_green(8.0)], n_samples=1 << 14, seed=1000)[0]
    assert a == b


def test_she_constants_equal_at_every_eps():
    # the untruncated heat kernel scales exactly: at one seed, c11 and c12
    # are the same numbers at dyadic multiples of one eps
    green = she_green()
    vals = []
    for e in (0.4, 0.2, 0.1, 0.05):
        m = _moll(e)
        vals.append((c11_eps(m, [green], n_samples=1 << 13, seed=8)[0],
                     c12_eps(m, [green], n_samples=1 << 13, seed=9)[0]))
    assert all(v == vals[0] for v in vals)


def test_she_constants_scale_invariant():
    # the untruncated heat kernel is exactly parabolic self-similar, so the
    # SHE constants have no epsilon dependence at all: the dyadic increments
    # vanish within QMC noise (the strongest form of the Cauchy property)
    green = she_green()
    res = {}
    for i, e in enumerate((0.2, 0.1, 0.05)):
        m = _moll(e)
        res[e] = (c11_eps(m, [green], n_samples=1 << 15, seed=20 + i)[0],
                  c12_eps(m, [green], n_samples=1 << 15, seed=40 + i)[0])
    es = sorted(res, reverse=True)
    for a, b in zip(es, es[1:]):
        d11 = abs(res[b][0]["value"] - res[a][0]["value"])
        d12 = abs(res[b][1]["value"] - res[a][1]["value"])
        tol11 = 3 * np.hypot(res[b][0]["stderr"], res[a][0]["stderr"])
        tol12 = 3 * np.hypot(res[b][1]["stderr"], res[a][1]["stderr"])
        assert d11 <= tol11
        assert d12 <= tol12


def test_c12_pam_bounded():
    green = pam_green()
    out = {}
    for e in (0.05, 0.025):
        out[e] = c12_eps(_moll(e), [green], n_samples=1 << 16, seed=5)[0]
    c11s = {e: c11_eps(_moll(e), [green], n_samples=1 << 16, seed=6)[0]
            for e in (0.05, 0.025)}
    inc12 = abs(out[0.025]["value"] - out[0.05]["value"])
    inc11 = abs(c11s[0.025]["value"] - c11s[0.05]["value"])
    assert inc12 < inc11


@pytest.mark.parametrize("equation,eps", [("pam3d", 0.1), ("pam3d", 0.0125), ("she1d", 0.1)])
def test_c12_one_integral_matches_the_pieces(equation, eps):
    # the split form of c12, A - c B with two independent means:
    #   A = E_{w, z3 ~ rho2} E_{z1 ~ q} [ (G/q)(z1) G(w - z1 - z3) G(z3) ],
    #   B = E_{u ~ rho2} E_{z1 ~ q} [ (G/q)(z1) G(u - z1) ];
    # the one-integral value must agree with it, and at small eps, where A
    # and c B nearly cancel, have the smaller standard error
    green, m = (pam_green() if equation == "pam3d" else she_green()), _moll(eps)
    dz, n = green.dim, 1 << 17

    def fn_a(U):
        w, z3 = _sample_rho2(m, green, U[:, :dz]), _sample_rho2(m, green, U[:, dz:2 * dz])
        z1, wt = green.sample_factor(U[:, 2 * dz:], tmax=8.0 * eps ** 2)
        return wt * green(w - z1 - z3) * green(z3)

    def fn_b(U):
        z1, wt = green.sample_factor(U[:, dz:], tmax=4.0 * eps ** 2)
        return wt * green(_sample_rho2(m, green, U[:, :dz]) - z1)

    a, a_err = _qmc_mean(lambda U: fn_a(U)[None], 2 * dz + 3, n, seed=1)[0]
    b, b_err = _qmc_mean(lambda U: fn_b(U)[None], dz + 3, n, seed=2)[0]
    c = c_eps(m, green)
    pieces, pieces_err = a - c * b, np.hypot(a_err, c * b_err)
    one = c12_eps(m, [green], n_samples=n, seed=3)[0]
    assert abs(one["value"] - pieces) <= 4 * np.hypot(one["stderr"], pieces_err)
    if eps == 0.0125:
        assert one["stderr"] < pieces_err


def test_qmc_rate_on_smooth_integrand():
    # randomized-QMC error should beat the Monte Carlo 1/sqrt(N) rate
    # markedly on a smooth integrand: fit stderr ~ N^rate, rate < -0.7
    def fn(U):
        return np.exp(-np.sum((U - 0.5) ** 2, axis=1)) * np.cos(U[:, 0] + 2 * U[:, 1])

    errs = []
    ns = [1 << 12, 1 << 14, 1 << 16]
    for n in ns:
        errs.append(_qmc_mean(lambda U: fn(U)[None], 6, n, seed=2)[0][1])
    rate = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert rate < -0.7


def test_compute_constants_consistency():
    rc = compute_constants("she1d", [0.1], n_samples=1 << 13, seed=1)[0]
    assert rc.C_eps == rc.c_eps + rc.c11_eps + rc.c12_eps
    assert rc.c11_err >= 0 and rc.c12_err >= 0
    with pytest.raises(ValueError, match="unknown equation"):
        compute_constants("kpz", [0.1])


def test_determinism_across_threads():
    m = _moll(0.1)
    greens = [pam_green(), pam_green(2.0)]
    a = c11_eps(m, greens, n_samples=1 << 13, seed=4, threads=1)
    b = c11_eps(m, greens, n_samples=1 << 13, seed=4, threads=4)
    assert [(r["value"], r["stderr"]) for r in a] == [(r["value"], r["stderr"]) for r in b]


def test_one_qmc_pass_serves_every_eps(monkeypatch):
    # the constants of an eps list are those of its eps one at a time, bit
    # for bit, in any order and with repeats; the Sobol replicates are drawn
    # once per integral for the whole list
    eps = [0.1, 0.05, 0.025, 0.0125]
    together = compute_constants("pam3d", eps, 1 << 13, seed=3)
    assert together == [compute_constants("pam3d", [e], 1 << 13, seed=3)[0] for e in eps]
    assert compute_constants("pam3d", eps[::-1], 1 << 13, seed=3) == together[::-1]
    assert (compute_constants("pam3d", eps + [0.05], 1 << 13, seed=3)
            == together + [together[1]])
    draws = []
    sobol = renorm._sobol
    monkeypatch.setattr(renorm, "_sobol", lambda *a: draws.append(a) or sobol(*a))
    compute_constants("pam3d", eps, 1 << 13, seed=3)
    assert len(draws) == 2 * 16
    draws.clear()
    compute_constants("she1d", [0.4, 0.2, 0.1], 1 << 13, seed=3)
    assert len(draws) == 2 * 16


def test_constants_only_for_their_equations():
    # pam2d is an equation of the structure table, but no constant is
    # computed for it; every equation with a Green's function is one of it
    from mshe.renorm import GREENS
    from mshe.structure import EQUATIONS

    assert set(GREENS) == {"pam3d", "she1d"} and set(GREENS) <= set(EQUATIONS)
    with pytest.raises(ValueError, match="no renormalisation constant is computed for pam2d"):
        compute_constants("pam2d", [0.1])
    with pytest.raises(ValueError, match="unknown equation"):
        compute_constants("kpz", [0.1])


@pytest.mark.parametrize("d", [1, 6, 7, 9])
def test_sobol_matches_scipy(d):
    # the scrambled Sobol points of scipy's engine, bit for bit, at the
    # dimensions the constants use (pam3d 9, she1d 7) and at 64-bit seeds
    qmc = pytest.importorskip("scipy.stats").qmc
    for m in (5, 6, 10, 13):
        for seed in (0, 123456789, 2 ** 63 + 5, 2 ** 64 - 1):
            want = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m=m)
            assert np.array_equal(_sobol(d, m, seed), want), (m, seed)


def test_sobol_refuses_untabulated_dimensions():
    with pytest.raises(ValueError, match="up to 9 dimensions, got 10"):
        _sobol(10, 4, 0)


@pytest.mark.parametrize("tmax", [4.0, 8.0])
def test_she_green_factor_has_the_heat_kernel_law(tmax):
    # t uniform on [0, tmax) and x ~ N(0, 2t) under the weight tmax: then
    # E[w exp(-x^2)] = int_0^tmax (1 + 4t)^-1/2 dt = (sqrt(1 + 4 tmax) - 1) / 2
    green, ts = she_green(), []

    def fn(U):
        z, w = green.sample_factor(U, tmax)
        ts.append(z[:, 0])
        return w * np.exp(-z[:, 1] ** 2)

    mean, err = _qmc_mean(lambda U: fn(U)[None], 3, 1 << 16, seed=11)[0]
    assert abs(mean - (np.sqrt(1.0 + 4.0 * tmax) - 1.0) / 2.0) <= 4 * err
    t = np.concatenate(ts)
    assert t.min() >= 0.0 and t.max() < tmax


def test_qmc_blocks_leave_the_mean_unchanged(monkeypatch):
    # fn maps rows independently, so mapping a replicate's points in row
    # blocks gives the mean of one call on all of them, bit for bit
    m, green = _moll(0.1), pam_green()
    a = c11_eps(m, [green], n_samples=1 << 15, seed=4)[0]
    b = c12_eps(m, [she_green()], n_samples=1 << 15, seed=4)[0]
    monkeypatch.setattr("mshe.renorm._BLOCK", 1 << 20)
    assert c11_eps(m, [green], n_samples=1 << 15, seed=4)[0] == a
    assert c12_eps(m, [she_green()], n_samples=1 << 15, seed=4)[0] == b


def test_constants_unchanged_with_np_interp_lookups(monkeypatch):
    # the three table lookups put back to the np.interp calls they replaced
    # give c, c11 and c12 bit for bit, at one pam3d ratio and for she1d; the
    # constants never read b itself, so the mollifier's kernel factors are
    # compared too
    from mshe import noise

    def values():
        _quadrature.cache_clear()
        _pam_shells.cache_clear()
        out = []
        for moll, green in ((_moll(0.25), pam_green()), (_moll(0.1), she_green())):
            out.append(c_eps(moll, green).hex())
            for integral in (c11_eps, c12_eps):
                r = integral(moll, [green], n_samples=1 << 12, seed=5)[0]
                out += [r["value"].hex(), r["stderr"].hex()]
        return out + [b.tobytes() for b in _moll(0.1).kernel((96, 64), 1 / 32, 1 / 512)]

    indexed = values()
    calls = set()

    def interp(name, xp, fp, left, right):
        def lookup(x):
            calls.add(name)
            return np.interp(x, xp, fp, left=left, right=right)
        return lookup

    monkeypatch.setattr(noise, "_lookups",
                        lambda p: (interp("b", *noise.bump_profile(p)[:2], 0.0, 0.0),
                                   interp("bb", *noise.bump_profile(p)[2:], 0.0, 0.0),
                                   interp("cdf", *noise._bb_cdf(p)[::-1], None, None)))
    try:
        assert values() == indexed
    finally:
        _quadrature.cache_clear()
        _pam_shells.cache_clear()
    assert calls == {"b", "bb", "cdf"}
