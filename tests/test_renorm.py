import numpy as np
import pytest

from mshe.noise import Mollifier
from mshe.renorm import (
    c11_eps,
    c12_eps,
    c_eps,
    compute_constants,
    pam_green,
    rho_sq,
    she_green,
    smooth_test_green,
)
from mshe.renorm import _pam_shells, _quadrature


def _moll(eps):
    return Mollifier(epsilon=eps)


def test_rho_sq_mass_and_evenness():
    m = _moll(0.2)
    f = rho_sq(m, she_green())
    t = np.linspace(-0.1, 0.1, 401)
    x = np.linspace(-0.45, 0.45, 401)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    vals = f(np.stack([tt, xx], axis=-1))
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
        direct = _quadrature(moll, equation, 1e-5)
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
    oracle = float(np.sum(P * m.rho_sq(TT, XX[..., None]) * (2 * tau[:, None]))
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


def test_c_eps_pam_requires_small_eps():
    with pytest.raises(ValueError, match="too large"):
        c_eps(_moll(0.2), pam_green(R_G=1.0))


def test_c11_pam_log_slope():
    # log-divergence with coefficient -1/(16 pi^2) (shell integral of G^3)
    green = pam_green()
    vals = {}
    for e in (0.2, 0.1, 0.05, 0.025):
        vals[e] = c11_eps(_moll(e), green, n_samples=1 << 17, seed=3)
    es = sorted(vals, reverse=True)
    slopes = [(vals[b]["value"] - vals[a]["value"]) / (np.log(b) - np.log(a))
              for a, b in zip(es, es[1:])]
    target = -1.0 / (16 * np.pi ** 2)
    assert np.mean(slopes) == pytest.approx(target, rel=0.10)


def test_c11_zero_green():
    zero = smooth_test_green(lambda z: np.zeros(z.shape[:-1]), ((-1, 1), (-1, 1)))
    r = c11_eps(_moll(0.1), zero, n_samples=1 << 12, seed=0)
    assert r["value"] == 0.0


def test_she_constants_scale_invariant():
    # the untruncated heat kernel is exactly parabolic self-similar, so the
    # SHE constants have no epsilon dependence at all: the dyadic increments
    # vanish within QMC noise (the strongest form of the Cauchy property)
    green = she_green()
    res = {}
    for i, e in enumerate((0.2, 0.1, 0.05)):
        m = _moll(e)
        c = c_eps(m, green)
        res[e] = (c11_eps(m, green, n_samples=1 << 15, seed=20 + i),
                  c12_eps(m, green, c, n_samples=1 << 15, seed=40 + i))
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
        m = _moll(e)
        c = c_eps(m, green)
        out[e] = c12_eps(m, green, c, n_samples=1 << 16, seed=5)
    c11s = {e: c11_eps(_moll(e), green, n_samples=1 << 16, seed=6)
            for e in (0.05, 0.025)}
    inc12 = abs(out[0.025]["value"] - out[0.05]["value"])
    inc11 = abs(c11s[0.025]["value"] - c11s[0.05]["value"])
    assert inc12 < inc11


def test_c12_narrow_spike_cancellation():
    # smooth Green at the origin: rho2(z3) acts like delta_0, the two split
    # pieces nearly cancel
    gs = smooth_test_green(lambda z: np.exp(-(z[..., 0] ** 2 + z[..., 1] ** 2)),
                           ((-0.5, 0.5), (-1.0, 1.0)))
    e = 0.01
    m = _moll(e)
    c = c_eps(m, gs)
    r = c12_eps(m, gs, c, n_samples=1 << 15, seed=17)
    assert abs(r["value"]) < 1e-2 * abs(r["piece_product"])


def test_qmc_rate_on_smooth_integrand():
    # randomized-QMC error should beat the Monte Carlo 1/sqrt(N) rate
    # markedly on a smooth integrand: fit stderr ~ N^rate, rate < -0.7
    gs = smooth_test_green(lambda z: np.exp(-(2 * z[..., 0] ** 2 + z[..., 1] ** 2)),
                           ((-0.5, 0.5), (-1.0, 1.0)))
    m = _moll(0.1)
    errs = []
    ns = [1 << 12, 1 << 14, 1 << 16]
    for n in ns:
        errs.append(c11_eps(m, gs, n_samples=n, seed=2)["stderr"])
    rate = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert rate < -0.7


def test_compute_constants_consistency():
    rc = compute_constants("she1d", 0.1, n_samples=1 << 13, seed=1)
    assert rc.C_eps == rc.c_eps + rc.c11_eps + rc.c12_eps
    assert rc.c11_err >= 0 and rc.c12_err >= 0
    with pytest.raises(ValueError, match="unknown equation"):
        compute_constants("kpz", 0.1)


def test_determinism_across_threads():
    m = _moll(0.1)
    green = pam_green()
    a = c11_eps(m, green, n_samples=1 << 13, seed=4, threads=1)
    b = c11_eps(m, green, n_samples=1 << 13, seed=4, threads=4)
    assert a["value"] == b["value"] and a["stderr"] == b["stderr"]
