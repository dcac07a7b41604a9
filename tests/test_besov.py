import numpy as np
import pytest

from mshe import besov
from mshe.noise import Field, Grid, sample_white_noise
from mshe.wavelet import analyze, build_basis, rescale_psi


@pytest.fixture(scope="module")
def basis():
    return build_basis(2)


def _spacetime(values, T, L):
    """A (time, space) array as a space-time Field on [0, T) x [-L/2, L/2)."""
    M, N = values.shape
    return Field(grid=Grid(d=1, L=L, N=N, T=T, M=M), values=values, kind="spacetime")


def test_zero_field_norm(basis):
    pyr = analyze(_spacetime(np.zeros((64, 64)), 1.0, 1.0), basis, 0, 1)
    assert besov.besov_norm(pyr, -1.0, p=2.0) == 0.0


def test_single_wavelet_norm(basis):
    # xi = psi^{ n0 } atom: norm = 2^{-n0 d/p} / 2^{-n0 |s|/2 - n0 alpha}
    M, N, T, L = 4096, 1024, 1.0, 4.0
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    tt, xx = np.meshgrid(t, x, indexing="ij")
    n0, combo = 2, ("psi0", "psi")
    f = rescale_psi(basis, n0, (6 * 4.0 ** -n0, -0.5), combo, d=1)(tt, xx)
    pyr = analyze(_spacetime(f, T, L), basis, n0, 4)
    alpha, p, d, s = -1.2, 2.0, 1, 3
    expected = 2.0 ** (-n0 * d / p) / 2.0 ** (-n0 * s / 2.0 - n0 * alpha)
    got = besov.besov_norm(pyr, alpha, p=p)
    assert got == pytest.approx(expected, rel=1e-5)


def test_norm_homogeneous(basis):
    rng = np.random.default_rng(1)
    f = rng.normal(size=(256, 128))
    pyr1 = analyze(_spacetime(f, 1.0, 1.0), basis, 0, 2)
    pyr2 = analyze(_spacetime(-3.5 * f, 1.0, 1.0), basis, 0, 2)
    n1 = besov.besov_norm(pyr1, -1.5, p=3.0)
    n2 = besov.besov_norm(pyr2, -1.5, p=3.0)
    assert n2 == pytest.approx(3.5 * n1, rel=1e-12)


def test_norm_monotone_in_alpha(basis):
    rng = np.random.default_rng(2)
    f = rng.normal(size=(256, 128))
    pyr = analyze(_spacetime(f, 1.0, 1.0), basis, 0, 2)
    alphas = [-2.0, -1.5, -1.0, -0.5]
    norms = [besov.besov_norm(pyr, a, p=2.0) for a in alphas]
    assert all(n1 <= n2 * (1 + 1e-12) for n1, n2 in zip(norms, norms[1:]))


def test_embedding_into_sup_norm(basis):
    # norm at (alpha - d/p, infinity) <= norm at (alpha, p), constant 1
    grid = Grid(d=1, L=2.0, N=256, T=1.0, M=1024)
    alpha, p = -1.6, 2.0
    for seed in range(20):
        f = sample_white_noise(grid, "spacetime", seed=seed)
        pyr = analyze(f, basis, 1, 3)
        n_p = besov.besov_norm(pyr, alpha, p=p)
        n_inf = besov.besov_norm(pyr, alpha - grid.d / p, p=np.inf)
        assert n_inf <= n_p * (1 + 1e-9)


def test_weight_families_bounds():
    rep = besov.check_weight(besov.polynomial_weight(2.0))
    assert rep["ok"] and rep["C_est"] <= 4.0 + 1e-6
    rep = besov.check_weight(besov.exponential_weight(1.0))
    assert rep["ok"] and rep["C_est"] <= np.e + 1e-6
    rep = besov.check_weight(besov.Weight(lambda r: r ** 2))
    assert not rep["ok"]


def test_assumption_w_passes_extend():
    rep = besov.check_assumption_w(kappa=0.1, c=0.025, ell=0.0, T=1.0, d=3,
                                   interpretation="extend")
    assert rep["ok"], rep
    assert rep["conditions"]["W-5"]["note"].startswith("holds by definition")


def test_assumption_w_strict_flags_w5():
    rep = besov.check_assumption_w(kappa=0.1, interpretation="strict")
    assert not rep["conditions"]["W-5"]["ok"]
    assert rep["conditions"]["W-5"]["max_abs_log"] > 0


def test_assumption_w_constant_weights_domination():
    # w == 1 family: the domination holds trivially with K = 1
    sw = besov.SolutionWeights(c=0.0, kappa=0.1, ell=0.0)
    r = np.linspace(0, 100, 64)
    lhs = 2 * sw.log_w_pi(r) + sw.log_w(1, 0.2, r, 0.0) - sw.log_w(1, 0.8, r, 0.0)
    assert np.max(lhs) <= 0.0 + 1e-12


@pytest.mark.parametrize(
    "d,p,eta,expected",
    [
        (1, 1.0, -0.4, True),
        (1, np.inf, -0.5, False),
        (3, 1.0, -0.3, True),
        (3, np.inf, -2.7, False),
        (3, np.inf, -3.3, True),
        (1, 2.0, -0.6, True),
        (1, 2.0, -0.4, False),
    ],
)
def test_dirac_membership_analytic(d, p, eta, expected):
    assert besov.dirac_membership(d, p, eta) is expected


def test_dirac_membership_initial_condition_window():
    kappa = 0.01
    eta = -0.5 + 3 * kappa
    p_max = 3 / (3 + eta)
    assert besov.dirac_membership(3, 1.0, eta)
    assert not besov.dirac_membership(3, 1.3, eta)
    assert 1.0 < p_max < 1.3


def test_dirac_norm_growth_matches_criterion(basis):
    # bounded iff member, on both sides of eta = -d + d/p (d = 1, p = 1)
    member = besov.dirac_norm_growth(1, 1.0, -0.3, basis, [6, 7, 8, 9])
    ratio_m = member[-1] / member[0]
    non = besov.dirac_norm_growth(1, 1.0, 0.3, basis, [6, 7, 8, 9])
    ratio_n = non[-1] / non[0]
    assert ratio_m < 1.3
    assert ratio_n > 1.5


@pytest.mark.parametrize("p", [1000.0, 5000.0])
@pytest.mark.parametrize("c", [0.3, 3.0])
def test_level_norm_at_large_p_closed_form(c, p):
    # a constant c on 64 cells at level n has the norm
    # c (cells 2^{-nd})^{1/p} / 2^{-n|s|/2 - n alpha}; c^p underflows (0.3)
    # or overflows (3.0) at these p, so the powers are taken relative to c
    n, alpha = 3, 0.5
    want = c * (64 * 2.0 ** -n) ** (1.0 / p) / 2.0 ** (-n * 0.5 - n * alpha)
    assert besov.level_norm(np.full(64, c), n, alpha, p, False, None) == \
        pytest.approx(want, rel=1e-12)
    # space-time: the sup over time rows, one row at c and one at c / 2
    rows = np.stack([np.full(64, c / 2), np.full(64, c)])
    want_st = c * (64 * 2.0 ** -n) ** (1.0 / p) / 2.0 ** (-n * 1.5 - n * alpha)
    assert besov.level_norm(rows, n, alpha, p, True, None) == pytest.approx(want_st, rel=1e-12)


def test_level_norm_keeps_its_bits_in_range():
    # a row whose p-th powers stay in range is computed as before, root of
    # the max of the row aggregates, bit for bit
    a = np.random.default_rng(3).standard_normal((8, 64))
    for p in (1.0, 2.0, 7.5, 60.0):
        want = float(np.max(2.0 ** -3 * np.sum(np.abs(a) ** p, axis=1)) ** (1.0 / p))
        assert besov.level_norm(a, 3, 0.5, p, True, None) * 2.0 ** -6 == want
