import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mshe.noise import (
    Field,
    Grid,
    Mollifier,
    _bb_cdf,
    _IndexedInterp,
    _lookups,
    bump_profile,
    mollify,
    read_field,
    sample_white_noise,
    write_field,
)
from mshe.wavelet import _cascade, build_basis, build_family


@pytest.fixture(scope="module")
def basis():
    return build_basis(2)


def _gauss_bump(grid):
    xx = np.meshgrid(*([grid.xs] * grid.d), indexing="ij")
    return np.exp(-4.0 * sum(x ** 2 for x in xx))


def test_pairing_variance_matches_l2():
    # Var(<xi, eta>) -> ||eta||_L2^2 over many seeds, within 3 SE
    grid = Grid(d=1, L=4.0, N=256)
    eta = _gauss_bump(grid)
    l2 = np.sum(eta ** 2) * grid.dx
    n_seeds = 10_000
    pair = np.empty(n_seeds)
    for s in range(n_seeds):
        xi = sample_white_noise(grid, "spatial", seed=s).values
        pair[s] = np.sum(xi * eta) * grid.dx
    mean_se = pair.std() / np.sqrt(n_seeds)
    assert abs(pair.mean()) < 3 * mean_se
    var = pair.var()
    var_se = var * np.sqrt(2.0 / n_seeds)
    assert abs(var - l2) < 3 * var_se


def test_disjoint_supports_uncorrelated():
    grid = Grid(d=1, L=8.0, N=256)
    x = grid.xs
    eta1 = np.exp(-8 * (x + 2) ** 2) * (np.abs(x + 2) < 1)
    eta2 = np.exp(-8 * (x - 2) ** 2) * (np.abs(x - 2) < 1)
    n_seeds = 10_000
    a = np.empty(n_seeds)
    b = np.empty(n_seeds)
    for s in range(n_seeds):
        xi = sample_white_noise(grid, "spatial", seed=s).values
        a[s] = np.sum(xi * eta1) * grid.dx
        b[s] = np.sum(xi * eta2) * grid.dx
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 3.0 / np.sqrt(n_seeds)


def test_determinism_same_seed():
    grid = Grid(d=2, L=2.0, N=64, T=1.0, M=64)
    f1 = sample_white_noise(grid, "spacetime", seed=42)
    f2 = sample_white_noise(grid, "spacetime", seed=42)
    assert np.array_equal(f1.values, f2.values)
    f3 = sample_white_noise(grid, "spacetime", seed=43)
    assert not np.array_equal(f1.values, f3.values)


def test_gaussianity_jarque_bera():
    grid = Grid(d=1, L=4.0, N=4096 * 16)
    xi = sample_white_noise(grid, "spatial", seed=5).values
    chunks = xi[: 10 * 4096].reshape(10, 4096)
    # Bonferroni over 10 cells at overall level 0.01
    for row in chunks:
        assert stats.jarque_bera(row).pvalue > 0.001


def test_mollifier_mass_and_evenness():
    m = Mollifier(epsilon=0.25)
    # quadrature of rho_eps over its support, d = 1
    t = np.linspace(-0.1, 0.1, 801)
    x = np.linspace(-0.3, 0.3, 801)[:, None]
    tt, xx = np.meshgrid(t, x.ravel(), indexing="ij")
    e = m.epsilon

    def rho_eps(t, x):
        return m.rho(t / e ** 2, x / e) / e ** 3

    vals = rho_eps(tt, xx[..., None])
    mass = np.trapezoid(np.trapezoid(vals, x.ravel(), axis=1), t)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(vals, vals[:, ::-1], atol=1e-15)  # even in x
    # support inside the parabolic eps-ball
    assert rho_eps(np.array([0.0651]), np.array([[0.0]]))[0] == 0.0
    assert rho_eps(np.array([0.0]), np.array([[0.2505]]))[0] == 0.0


@pytest.mark.parametrize("profile", ["exp", "poly4"])
def test_kernel_factors_even(profile):
    # the bump is even, so each per-axis factor of the sampled kernel is even
    # on the periodic offsets, f[j] = f[-j], up to round-off in the table lookup
    m = Mollifier(epsilon=0.37, profile=profile)
    for shape, dx, dt in (((7500,), 1e-3, None), ((7500, 37), 0.02, 1e-4)):
        for f in m.kernel(shape, dx, dt):
            mirror = f[(-np.arange(f.size)) % f.size]
            assert np.abs(f - mirror).max() <= 1e-15 * f.max()


def test_mollify_preserves_constants():
    grid = Grid(d=1, L=4.0, N=256)
    f = Field(grid=grid, values=np.full(grid.space_shape(), 3.25), kind="spatial")
    out = mollify(f, Mollifier(epsilon=0.125))
    assert np.allclose(out.values, 3.25, atol=1e-12)


def test_mollify_linear():
    grid = Grid(d=1, L=4.0, N=256)
    m = Mollifier(epsilon=0.125)
    f1 = sample_white_noise(grid, "spatial", seed=0)
    f2 = sample_white_noise(grid, "spatial", seed=1)
    s12 = mollify(f1.copy_with(f1.values + f2.values), m)
    s1 = mollify(f1, m)
    s2 = mollify(f2, m)
    assert np.allclose(s12.values, s1.values + s2.values, atol=1e-10)


def test_mollify_kills_high_frequencies():
    grid = Grid(d=1, L=4.0, N=1024)
    xi = sample_white_noise(grid, "spatial", seed=3)
    eps = 16 * grid.dx
    out = mollify(xi, Mollifier(epsilon=eps)).values
    spec = np.abs(np.fft.rfft(out)) ** 2
    freqs = np.fft.rfftfreq(grid.N, d=grid.dx)
    cut = 1.0 / eps
    high = spec[freqs > 2 * cut].sum()
    low = spec[freqs <= cut].sum()
    assert high / low < 1e-3


def test_mollify_under_resolved_rejected():
    grid = Grid(d=1, L=4.0, N=64)
    xi = sample_white_noise(grid, "spatial", seed=0)
    with pytest.raises(ValueError, match="under-resolved"):
        mollify(xi, Mollifier(epsilon=grid.dx))


def _rho_sq(m, t, x):
    # rho_eps^{*2}(t, x): the bb table at time scale eps^2 times the spatial
    # marginal
    e = m.epsilon
    return m.bb(np.asarray(t) / e ** 2) / e ** 2 * m.rho_sq_spatial(x)


def test_rho_sq_properties():
    m = Mollifier(epsilon=0.5)
    # integral one (d = 1 space-time), evenness, scaling through convolution
    t = np.linspace(-0.6, 0.6, 601)
    x = np.linspace(-1.1, 1.1, 601)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    vals = _rho_sq(m, tt, xx[..., None])
    mass = np.trapezoid(np.trapezoid(vals, x, axis=1), t)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(vals, vals[:, ::-1], atol=1e-12)
    # scaling: rho_eps^{*2}(z) = eps^{-|s|} rho_1^{*2}(t eps^-2, x / eps)
    m1 = Mollifier(epsilon=1.0)
    e = 0.5
    pts_t = np.array([0.1, -0.05, 0.2])
    pts_x = np.array([[0.3], [-0.2], [0.6]])
    lhs = _rho_sq(m, pts_t, pts_x)
    rhs = _rho_sq(m1, pts_t / e ** 2, pts_x / e) / e ** 3
    assert np.allclose(lhs, rhs, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), kind=st.sampled_from(["spatial", "spacetime"]),
       log_n=st.integers(0, 3), log_m=st.integers(0, 4), L=st.floats(0.1, 50.0),
       T=st.floats(0.01, 10.0), seed=st.integers(0, 2 ** 31))
def test_field_file_roundtrip(tmp_path_factory, d, kind, log_n, log_m, L, T, seed):
    # every grid and kind survives write_field / read_field bit for bit
    grid = Grid(d=d, L=L, N=2 ** log_n, T=T, M=2 ** log_m)
    f = sample_white_noise(grid, kind, seed=seed)
    path = tmp_path_factory.mktemp("shef") / "field.shef"
    write_field(path, f)
    g = read_field(path)
    assert g.kind == f.kind
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    # header magic
    assert path.read_bytes()[:4] == b"SHEF"


@pytest.mark.parametrize("cut, match", [
    pytest.param(lambda b: b[:6], "truncated header: 6 bytes", id="header"),
    pytest.param(lambda b: b[:8] + bytes([7]) + b[9:], "unknown field kind 7", id="kind"),
    pytest.param(lambda b: b[:-8], "payload of 4088 bytes", id="payload"),
    pytest.param(lambda b: b"SHEX" + b[4:], "not a field file", id="magic"),
    pytest.param(lambda b: b[:10] + (3).to_bytes(8, "little") + b[18:], "power of two",
                 id="grid"),
    pytest.param(lambda b: b[:9] + bytes([0]) + b[10:], "d must be 1, 2 or 3, got 0",
                 id="dimension"),
])
def test_read_field_malformed(tmp_path, cut, match):
    # a damaged file raises ValueError naming the file and the fault
    good = tmp_path / "good.shef"
    write_field(good, sample_white_noise(Grid(d=1, L=1.0, N=512), "spatial", seed=0))
    bad = tmp_path / "bad.shef"
    bad.write_bytes(cut(good.read_bytes()))
    with pytest.raises(ValueError, match=match) as info:
        read_field(bad)
    assert str(bad) in str(info.value)


def test_field_shape_validation():
    grid = Grid(d=1, L=1.0, N=32)
    with pytest.raises(ValueError, match="shape"):
        Field(grid=grid, values=np.zeros(16), kind="spatial")
    with pytest.raises(ValueError, match="finite"):
        Field(grid=grid, values=np.full(32, np.nan), kind="spatial")


@pytest.mark.parametrize("kw, match", [
    (dict(N=0), "N must be a power of two"), (dict(N=-4), "N must be a power of two"),
    (dict(M=-2), "M must be 0 or a power of two"), (dict(L=float("nan")), "L must be"),
    (dict(L=-1.0), "L must be"), (dict(T=-0.5, M=0), "T must be"),
    (dict(T=0.0), "positive when M > 0"), (dict(T=float("inf")), "T must be"),
    (dict(d=0), "d must be 1, 2 or 3, got 0"), (dict(d=4), "d must be 1, 2 or 3, got 4"),
])
def test_grid_rejects_degenerate_boxes(kw, match):
    with pytest.raises(ValueError, match=match):
        Grid(**{"d": 1, "L": 1.0, "N": 8, "T": 1.0, "M": 8, **kw})
    assert Grid(d=1, L=1.0, N=1).dx == 1.0 and Grid(d=2, L=2.0, N=8, T=0.0).T == 0.0


def test_regularity_smooth_field(basis):
    grid = Grid(d=1, L=4.0, N=512, T=1.0, M=4096)
    tt, xx = np.meshgrid(grid.ts, grid.xs, indexing="ij")
    smooth = Field(grid=grid, values=np.exp(-4 * xx ** 2 - 10 * (tt - 0.5) ** 2),
                   kind="spacetime")
    from mshe.noise import estimate_regularity

    res = estimate_regularity(smooth, basis, n_min=1, n_max=5)
    assert res["regular"]
    assert res["alpha_hat"] >= 0


def test_regularity_needs_four_levels(basis):
    grid = Grid(d=1, L=4.0, N=512, T=1.0, M=4096)
    f = sample_white_noise(grid, "spacetime", seed=0)
    from mshe.noise import estimate_regularity

    with pytest.raises(ValueError, match="4 usable levels"):
        estimate_regularity(f, basis, n_min=2, n_max=4)


def test_mollification_error_decays(basis):
    # Besov distance xi_eps - xi at alpha = -|s|/2 - 0.2 shrinks as eps drops
    from mshe import besov

    grid = Grid(d=1, L=4.0, N=512, T=1.0, M=4096)
    xi = sample_white_noise(grid, "spacetime", seed=11)
    w = besov.polynomial_weight(0.5)
    alpha = -1.5 - 0.2
    from mshe.wavelet import analyze

    norms = []
    for k in (32, 16, 8):
        eps = k * grid.dx
        diff = xi.copy_with(mollify(xi, Mollifier(epsilon=eps)).values - xi.values)
        pyr = analyze(diff, basis, 1, 5)
        norms.append(besov.besov_norm(pyr, alpha, p=2.0, weight=w))
    assert norms[0] > norms[1] > norms[2]


@settings(max_examples=40)
@given(d=st.integers(1, 2), log_n=st.integers(3, 5),
       log_m=st.sampled_from([None, 3, 4, 5]), L=st.floats(1.0, 8.0),
       T=st.floats(0.1, 2.0), cells=st.floats(2.0, 6.0), c=st.floats(-5.0, 5.0),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 31))
def test_mollify_mass_and_linearity(d, log_n, log_m, L, T, cells, c, a, b, seed):
    # constants map to constants, and rho_eps * (a f + b g) = a rho_eps * f +
    # b rho_eps * g, on spatial and space-time grids at any eps >= 2 dx
    if log_m is None:
        grid, kind = Grid(d=d, L=L, N=2 ** log_n), "spatial"
    else:
        grid, kind = Grid(d=d, L=L, N=2 ** log_n, T=T, M=2 ** log_m), "spacetime"
    moll = Mollifier(epsilon=cells * grid.dx)
    const = Field(grid=grid, values=np.full(grid.shape(kind), c), kind=kind)
    assert np.abs(mollify(const, moll).values - c).max() <= 1e-12 * max(1.0, abs(c))
    f = sample_white_noise(grid, kind, seed=seed)
    g = sample_white_noise(grid, kind, seed=seed + 1)
    lhs = mollify(f.copy_with(a * f.values + b * g.values), moll).values
    rhs = a * mollify(f, moll).values + b * mollify(g, moll).values
    scale = abs(a) * np.abs(f.values).max() + abs(b) * np.abs(g.values).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("shape, dx, dt, eps", [
    ((37,), 0.1, None, 0.35),              # an odd prime length
    ((24, 37), 0.1, None, 0.25),
    ((12, 10, 9), 0.1, None, 0.3),
    ((7294, 20), 0.1, 0.02, 0.25),         # space-time, 2*7*521 rows
])
def test_convolve_explicit_circular_sum(shape, dx, dt, eps):
    # the spectrum from per-axis factors gives the explicit circular sum
    # sum_j k[j] f[i - j] with the materialised product kernel of unit mass
    m = Mollifier(epsilon=eps)
    offs = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in shape], indexing="ij")
    space = np.stack([o * dx / eps for o in offs[1 if dt else 0:]], axis=-1)
    t = offs[0] * dt / eps ** 2 if dt else np.zeros(shape)
    k = m.rho(t, space)
    k /= k.sum()
    f = np.random.default_rng(7).standard_normal(shape)
    want = np.zeros(shape)
    for j in np.argwhere(k > 0):
        shift = [int(o[tuple(j)]) for o in offs]
        want += k[tuple(j)] * np.roll(f, shift, axis=tuple(range(len(shape))))
    got = m.convolve(np.fft.rfftn(f), shape, dx, dt)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _interp_tables(profile):
    # table -> its lookup and the arguments of the np.interp call it replaced
    # (for a Daubechies family, the interpolant of its phi knots)
    if profile.startswith("db"):
        basis = build_family(int(profile[2:]))
        phi = _cascade(basis.refine_coeffs, basis.depth)
        return {"phi": (basis.phi, np.arange(phi.size) * 2.0 ** -basis.depth, phi, 0.0, 0.0)}
    u, b, s, bb = bump_profile(profile)
    gs, cdf = _bb_cdf(profile)
    b_lookup, bb_lookup, cdf_lookup = _lookups(profile)
    return {"b": (b_lookup, u, b, 0.0, 0.0),
            "bb": (bb_lookup, s, bb, 0.0, 0.0),
            "cdf": (cdf_lookup, cdf, gs, None, None)}


def test_indexed_lookup_refuses_a_negative_zero_value():
    # np.interp gives -0.0 at such a knot, slope * 0 + (-0.0) gives +0.0
    xp = np.array([0.0, 1.0, 2.0])
    assert np.interp(1.0, xp, [1.0, -0.0, 1.0]).hex() == "-0x0.0p+0"
    with pytest.raises(ValueError, match="-0.0 value"):
        _IndexedInterp(xp, np.array([1.0, -0.0, 1.0]), 2)
    assert _IndexedInterp(xp, np.array([1.0, 0.0, 1.0]), 2)(1.0).hex() == "0x0.0p+0"


@pytest.mark.parametrize("profile, table", [(p, t) for p in ("exp", "poly4")
                                            for t in ("b", "bb", "cdf")]
                         + [("db2", "phi"), ("db6", "phi")])
def test_indexed_lookup_is_np_interp_bit_for_bit(profile, table):
    lookup, xp, fp, left, right = _interp_tables(profile)[table]

    def interp(x):
        return np.interp(x, xp, fp, left=left, right=right)

    lo, hi = xp[0], xp[-1]
    rng = np.random.default_rng(17)
    tails = 10.0 ** rng.uniform(-320.0, -2.0, 1 << 12)  # where the CDF is flat
    x = np.concatenate([
        rng.uniform(lo, hi, 1 << 20),
        xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
        tails, 1.0 - tails, lo + tails, hi - tails,
        [0.0, -0.0, 2.0 ** -30, 1.0 - 2.0 ** -30, 1.0, -1.0, 2.0, -2.0],
        rng.uniform(lo - 4.0 * (hi - lo), hi + 4.0 * (hi - lo), 1 << 12),
        [-1e300, 1e300, -np.inf, np.inf, np.nan]])
    assert lookup(x).tobytes() == interp(x).tobytes()
    # any shape, and a 0-d query gives numpy's scalar
    assert lookup(x[:12].reshape(3, 4)).tobytes() == interp(x[:12].reshape(3, 4)).tobytes()
    one = lookup(np.float64(0.3))
    assert type(one) is type(interp(np.float64(0.3))) and one == interp(0.3)
    # the uniform grids (b, bb and phi) index directly; the CDF searches its
    # crowded tails
    assert (lookup.guide is None) == (table != "cdf")
    assert (lookup.crowded is None) == (table != "cdf")
