import numpy as np
import pytest

from mshe.kernel import decompose, heat_kernel


@pytest.fixture(scope="module")
def dec1():
    return decompose(1, 3)


def test_heat_kernel_values():
    assert heat_kernel(1.0, np.array([0.0]), 1) == pytest.approx(1 / np.sqrt(4 * np.pi))
    assert heat_kernel(-0.5, np.array([0.3, 0.0, 0.0]), 3) == 0.0
    assert heat_kernel(0.0, np.array([0.1]), 1) == 0.0
    assert heat_kernel(0.25, np.array([1.0]), 1) == pytest.approx(np.pi ** -0.5 * np.e ** -1)


def test_heat_kernel_parabolic_scaling():
    t, x = 0.07, np.array([0.3])
    lam = 2.0
    lhs = heat_kernel(lam ** 2 * t, lam * x, 1)
    assert lhs == pytest.approx(heat_kernel(t, x, 1) / lam, rel=1e-14)


def test_reassembly_d1(dec1):
    rng = np.random.default_rng(0)
    n = 1000
    sc = 10 ** rng.uniform(-3, 1, n)
    tt = np.sign(rng.normal(size=n)) * rng.uniform(0.1, 1, n) * sc ** 2
    xx = rng.uniform(-1, 1, (n, 1)) * sc[:, None]
    ref = heat_kernel(tt, xx, 1)
    got = dec1.reassemble(tt, xx, n_max=12)
    mask = ref > 1e-300
    assert np.max(np.abs(got - ref)[mask] / ref[mask]) < 1e-5
    if (~mask).any():
        assert np.max(np.abs(got[~mask])) < 1e-12


def test_moments_vanish_d1(dec1):
    for k0 in range(2):
        for k1 in range(4):
            if 2 * k0 + k1 <= 3:
                assert dec1.moment_residual((k0, k1)) < 1e-8, (k0, k1)


def test_scaling_identity_exact(dec1):
    rng = np.random.default_rng(1)
    tt = rng.uniform(-0.5, 1.0, 50)
    xx = rng.uniform(-1.0, 1.0, (50, 1))
    for n in (1, 4, 9):
        lhs = dec1.pn(n, tt * 4.0 ** -n, xx * 2.0 ** -n)
        rhs = 2.0 ** n * dec1.p0(tt, xx)
        assert np.array_equal(lhs, rhs)


def test_p0_support(dec1):
    # zero for t <= 0 and outside the unit parabolic ball
    assert dec1.p0(np.array([-0.2, 0.0]), np.array([[0.3], [0.1]])).tolist() == [0, 0]
    assert dec1.p0(np.array([1.2]), np.array([[0.0]]))[0] == 0.0
    assert dec1.p0(np.array([0.1]), np.array([[1.05]]))[0] == 0.0


def test_pn_support_shrinks(dec1):
    n = 4
    # outside parabolic ball of radius 2^-n -> 0
    assert dec1.pn(n, np.array([4.0 ** -n * 1.01]), np.array([[0.0]]))[0] == 0.0
    assert dec1.pn(n, np.array([0.5 * 4.0 ** -n]), np.array([[2.0 ** -n * 1.01]]))[0] == 0.0


def test_pminus_smooth_bounded(dec1):
    # m-th differences at step h of P_- (all orders, on a wide box) and of P_0
    # (one space derivative, on its support) are finite and bounded
    rng = np.random.default_rng(3)
    wide = rng.uniform(-10, 10, 400), rng.uniform(-10, 10, (400, 1))
    rng = np.random.default_rng(2)
    support = rng.uniform(0, 1, 200), rng.uniform(-1, 1, (200, 1))
    h = 0.01
    cases = [(dec1.pminus, k, wide) for k in [(0, 0), (1, 1), (0, 5), (2, 1)]]
    for fn, (k0, k1), (tt, xx) in cases + [(dec1.p0, (0, 1), support)]:
        t = tt[:, None, None] + h * np.arange(k0 + 1)[:, None]
        x = xx[:, None, None, :] + h * np.arange(k1 + 1)[:, None]
        vals = np.diff(np.diff(fn(t, x), n=k0, axis=1), n=k1, axis=2) / h ** (k0 + k1)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1e7


def test_reassembly_d2():
    dec = decompose(2, 3)
    rng = np.random.default_rng(4)
    n = 200
    sc = 10 ** rng.uniform(-2, 0.5, n)
    tt = rng.uniform(0.1, 1, n) * sc ** 2
    xx = rng.uniform(-1, 1, (n, 2)) * sc[:, None]
    ref = heat_kernel(tt, xx, 2)
    got = dec.reassemble(tt, xx, n_max=10)
    mask = ref > 1e-30
    assert np.max(np.abs(got - ref)[mask] / ref[mask]) < 1e-5


def test_rejects_bad_args():
    with pytest.raises(ValueError, match="r must be"):
        decompose(1, 1)
    with pytest.raises(ValueError, match="dimension"):
        decompose(4, 3)
