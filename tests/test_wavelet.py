import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mshe.noise import Field, Grid, sample_white_noise
from mshe.wavelet import (
    LevelTransform,
    _adjoint_axis,
    _cascade,
    analyze,
    build_basis,
    build_family,
    correlate_axis,
    daubechies_coefficients,
    rescale_psi,
)


@pytest.fixture(scope="module")
def basis2():
    return build_basis(2)


@pytest.fixture(scope="module")
def basis3():
    return build_basis(3)


def _spacetime(values, T, L):
    """A (time, space) array as a space-time Field on [0, T) x [-L/2, L/2)."""
    M, N = values.shape
    return Field(grid=Grid(d=1, L=L, N=N, T=T, M=M), values=values, kind="spacetime")


def _smooth_field(M, N, T, L):
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    tt, xx = np.meshgrid(t, x, indexing="ij")
    return tt, xx, np.exp(-8 * (xx - 0.3) ** 2 - 30 * (tt - 0.5) ** 2) * np.sin(6 * xx + 4 * tt)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_orthonormality_exact(r):
    b = build_basis(r)
    lags, gram = b.inner_phi_translates()
    delta = (lags == 0).astype(float)
    assert np.max(np.abs(gram - delta)) < 1e-9


def test_refinement_residual(basis2):
    assert basis2.refinement_residual() < 1e-9


@pytest.mark.parametrize("r", [1, 2, 3])
def test_refinement_coeffs_sum_to_two(r):
    c = daubechies_coefficients(build_basis(r).N)
    assert c.sum() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_psi_annihilates_polynomials(r):
    b = build_basis(r)
    assert np.max(np.abs(b.psi_moments(r))) < 1e-8


def test_polynomial_reproduction_constant(basis2):
    # P(x) = 1: sum_k (int phi) phi(x-k) = sum_k phi(x-k) = 1
    S = basis2.support
    x = np.round(np.linspace(7.0, 8.0, 100) * 4096) / 4096
    s = sum(basis2.phi(x - k) for k in range(-S + 7, 9))
    assert np.max(np.abs(s - 1)) < 1e-8


def test_polynomial_reproduction_linear(basis2):
    # P(x) = x: sum_k (int y phi(y-k) dy) phi(x-k) = x
    S = basis2.support
    m1 = basis2.phi_moments(1)[1]
    x = np.round(np.linspace(7.0, 8.0, 50) * 4096) / 4096
    s = sum((k + m1) * basis2.phi(x - k) for k in range(7 - S, 9))
    assert np.max(np.abs(s - x)) < 1e-7


def test_rescaled_l2_norm(basis2):
    # dedicated fine grid, atom support inside the box, dyadic centres:
    # ||phi^n_{t,x}||_2 = 1 within 1e-6
    M, N, T, L = 4096, 1024, 1.0, 4.0
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    tt, xx = np.meshgrid(t, x, indexing="ij")
    for n in (2, 3):
        f = rescale_psi(basis2, n, (0.125, -1.0), ("phi", "phi"), d=1)(tt, xx)
        l2 = np.sum(f ** 2) * (T / M) * (L / N)
        assert l2 == pytest.approx(1.0, abs=1e-6)


def test_rescale_identity_at_level0(basis2):
    f = rescale_psi(basis2, 0, (0.0, 0.0), ("phi", "phi"), d=1)
    s = np.array([0.25, 0.5])
    y = np.array([1.25, 2.5])
    expected = basis2.phi(s) * basis2.phi(y)
    assert np.allclose(f(s, y), expected, atol=1e-14)


def test_support_shrinks_parabolically(basis2):
    S = basis2.support
    n = 3
    f = rescale_psi(basis2, n, (0.0, 0.0), ("phi", "phi"), d=1)
    # just outside the support in time: 2^{2n} s > S
    s_out = (S + 1e-6) / 4.0 ** n
    assert f(np.array([s_out]), np.array([0.1 / 2 ** n]))[0] == 0.0
    assert f(np.array([0.5 * S / 4 ** n]), np.array([(S + 1e-6) / 2 ** n]))[0] == 0.0


def test_analyze_zero_field(basis2):
    f = np.zeros((64, 64))
    pyr = analyze(_spacetime(f, 1.0, 1.0), basis2, 0, 1)
    assert pyr.total_sq() == 0.0


def test_analyze_linear(basis2):
    rng = np.random.default_rng(0)
    f = rng.normal(size=(128, 64))
    g = rng.normal(size=(128, 64))
    a, be = 1.7, -0.4
    p1 = analyze(_spacetime(f, 1.0, 1.0), basis2, 0, 2)
    p2 = analyze(_spacetime(g, 1.0, 1.0), basis2, 0, 2)
    p3 = analyze(_spacetime(a * f + be * g, 1.0, 1.0), basis2, 0, 2)
    for n in p3.levels:
        for c in p3.levels[n]:
            assert np.allclose(p3.levels[n][c], a * p1.levels[n][c] + be * p2.levels[n][c],
                               atol=1e-12)


def test_parseval_bandlimited(basis2):
    M, N, T, L = 1024, 512, 1.0, 4.0
    _, _, f = _smooth_field(M, N, T, L)
    pyr = analyze(_spacetime(f, T, L), basis2, 0, 4)
    l2 = np.sum(f ** 2) * (T / M) * (L / N)
    assert pyr.total_sq() / l2 == pytest.approx(1.0, abs=1e-4)


def test_parseval_spatial(basis2):
    N, L = 128, 2.0
    xs = -L / 2 + np.arange(N) / N * L
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    g = np.exp(-6 * (X - 0.1) ** 2 - 7 * (Y + 0.2) ** 2) * np.cos(5 * X - 3 * Y)
    pyr = analyze(Field(grid=Grid(d=2, L=L, N=N), values=g), basis2, 0, 3)
    l2 = np.sum(g ** 2) * (L / N) ** 2
    assert pyr.total_sq() / l2 == pytest.approx(1.0, abs=1e-4)


def test_scaling_function_orthogonal_to_finer_wavelets(basis2):
    # f = phi^n lattice atom (support inside the box): zero coefficient
    # against every psi^m, m >= n
    M, N, T, L = 4096, 1024, 1.0, 4.0
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    tt, xx = np.meshgrid(t, x, indexing="ij")
    n0 = 2
    f = rescale_psi(basis2, n0, (2 * 4.0 ** -n0, -1.5), ("phi", "phi"), d=1)(tt, xx)
    pyr = analyze(_spacetime(f, T, L), basis2, n0, 4)
    worst = max(np.max(np.abs(pyr.levels[n][c])) for n in (2, 3, 4) for c in pyr.levels[n])
    assert worst < 1e-6


def test_wavelets_annihilate_polynomials_on_grid(basis2):
    # degree <= r polynomial in (t, x): all psi coefficients ~ 0.
    # Use interior lattice points only (periodic wrap breaks polynomials
    # at the box boundary).
    M, N, T, L = 4096, 512, 1.0, 4.0
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    tt, xx = np.meshgrid(t, x, indexing="ij")
    f = 0.3 + 1.2 * xx + 0.5 * tt + 0.25 * xx ** 2
    pyr = analyze(_spacetime(f, T, L), basis2, 4, 5)
    S = basis2.support
    worst = 0.0
    for n in (4, 5):
        times, xs = np.arange(int(T * 4 ** n)) * 4.0 ** -n, pyr.xs(n)
        margin_t = S * 4.0 ** -n
        margin_x = S * 2.0 ** -n
        sel_t = (times > margin_t) & (times < T - margin_t)
        sel_x = (xs > -L / 2 + margin_x) & (xs < L / 2 - margin_x)
        for c, arr in pyr.levels[n].items():
            worst = max(worst, np.max(np.abs(arr[np.ix_(sel_t, sel_x)])))
    assert worst < 1e-7


def test_refinement_identity_rescaled(basis2):
    # phi^n_{t,x} = sum_k a_k phi^{n+1}_{(t,x)+k 2^-(n+1)} with the parabolic
    # double-refined time coefficients.
    c = basis2.refine_coeffs
    c2 = np.convolve(np.repeat(c, 1), c)  # placeholder, replaced below
    # time coefficients: double refinement (c *_2 c)/2, where the outer
    # refinement acts on the dilated-by-2 index
    cc = np.zeros(3 * (c.size - 1) + 1)
    for k, ck in enumerate(c):
        cc[2 * k:2 * k + c.size] += ck * c
    a_time = cc / 2.0
    a_space = c / np.sqrt(2.0)

    n = 1
    M, N, T, L = 2048, 256, 1.0, 2.0
    t = np.arange(M) / M * T
    x = -L / 2 + np.arange(N) / N * L
    tt, xx = np.meshgrid(t, x, indexing="ij")
    lhs = rescale_psi(basis2, n, (0.25, 0.0), ("phi", "phi"), d=1)(tt, xx)
    rhs = np.zeros_like(lhs)
    for k0, at in enumerate(a_time):
        if at == 0.0:
            continue
        for k1, ax in enumerate(a_space):
            center = (0.25 + k0 * 4.0 ** -(n + 1), 0.0 + k1 * 2.0 ** -(n + 1))
            rhs += at * ax * rescale_psi(basis2, n + 1, center, ("phi",) * 2, d=1)(tt, xx)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_resolution_precondition(basis2):
    f = np.zeros((32, 32))
    with pytest.raises(ValueError, match="resolution too coarse"):
        analyze(_spacetime(f, 1.0, 1.0), basis2, 0, 3)


def test_unsupported_order():
    # r = 5 would select Daubechies-16, whose filter cannot be factored in
    # double precision; Haar (N = 1) has no interior point for the cascade
    for r in (5, 7):
        with pytest.raises(ValueError, match="unsupported.*need r in 1..4"):
            build_basis(r)
    for N in (0, 1, 15):
        with pytest.raises(ValueError, match="need N in 2..14"):
            build_family(N)


def test_combo_count():
    # per level, 4 * 2^d - 1 space-time combinations and 2^d - 1 spatial ones
    for d in (1, 3):
        pst = analyze(Field(grid=Grid(d=d, L=1.0, N=4, T=1.0, M=4),
                            values=np.zeros((4,) * (d + 1)), kind="spacetime"),
                      build_basis(1), 0, 0)
        psp = analyze(Field(grid=Grid(d=d, L=1.0, N=4), values=np.zeros((4,) * d)),
                      build_basis(1), 0, 0)
        assert len(pst.levels[0]) == 4 * 2 ** d - 1 and len(psp.levels[0]) == 2 ** d - 1


def _periodic_atom(basis, n, center, combo, grid, kind):
    """rescale_psi's atom summed over the periodic images of the box: it is
    evaluated on the unwrapped grid points about its support and folded onto
    the box.  For a spatial grid the time factor is evaluated at a table
    point and divided out."""
    spacetime = kind == "spacetime"
    # (lattice unit, grid step, first grid point) per axis
    axes = (([(4.0 ** -n, grid.dt, 0.0)] if spacetime else [])
            + [(2.0 ** -n, grid.dx, -grid.L / 2)] * grid.d)
    S = basis.support
    idx = [np.arange(int((c - S * u - o) // h), int((c + (S + 1) * u - o) // h) + 2)
           for c, (u, h, o) in zip(center, axes)]
    pts = np.meshgrid(*[o + i * h for i, (_, h, o) in zip(idx, axes)], indexing="ij")
    if spacetime:
        vals = rescale_psi(basis, n, center, combo, grid.d)(pts[0], np.stack(pts[1:], -1))
    else:
        atom = rescale_psi(basis, n, (0.0,) + center, ("phi",) + combo, grid.d)
        vals = atom(4.0 ** -n, np.stack(pts, -1)) / (2.0 ** n * basis.phi(1.0))
    out = np.zeros(grid.shape(kind))
    np.add.at(out, np.ix_(*[i % m for i, m in zip(idx, out.shape)]), vals)
    return out


@pytest.mark.parametrize("grid, kind", [
    (Grid(d=1, L=2.0, N=128, T=1.0, M=1024), "spacetime"),
    (Grid(d=2, L=2.0, N=64), "spatial"),
], ids=["spacetime-d1", "spatial-d2"])
def test_analyze_against_brute_force_inner_products(grid, kind):
    # <f, psi^n_x> as the Riemann sum of f times rescale_psi's atom (wrapped
    # periodically), at three lattice points of every combination of two
    # levels, for a random field: this pins the psi1a / psi1b rows and the
    # high-pass offsets
    basis = build_basis(1)
    f = sample_white_noise(grid, kind, seed=11)
    pyr = analyze(f, basis, 1, 2)
    cell = grid.dx ** grid.d * (grid.dt if kind == "spacetime" else 1.0)
    scale = np.sqrt(np.sum(f.values ** 2) * cell)  # bounds every coefficient
    for n in (1, 2):
        for combo, arr in pyr.levels[n].items():
            for idx in [(0,) * arr.ndim, tuple(np.array(arr.shape) // 3),
                        tuple(np.array(arr.shape) - 1)]:
                t = (idx[0] * 4.0 ** -n,) if kind == "spacetime" else ()
                center = t + tuple(pyr.xs(n)[i] for i in idx[len(t):])
                want = np.sum(f.values * _periodic_atom(basis, n, center, combo, grid, kind))
                assert abs(arr[idx] - want * cell) <= 1e-12 * scale, (n, combo, idx)


def test_analyze_builds_one_level_transform(basis2, monkeypatch):
    # the pyramid projects once, at level n_max + 1, and filters down from it
    built, init = [], LevelTransform.__init__

    def counting(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(LevelTransform, "__init__", counting)
    analyze(_spacetime(np.ones((1024, 128)), 1.0, 2.0), basis2, 0, 3)
    assert built == [4]


def test_level_transform_refuses_wavelet_codes(basis2):
    # the wavelet coefficients come from the filter step, not a quadrature
    eng = LevelTransform(basis2, 1, 1.0 / 64, 1.0 / 256)
    for combo in [("psi0", "phi"), ("phi", "psi"), ("disp", "phi")]:
        with pytest.raises(ValueError, match="no level-transform factor"):
            eng.forward(np.zeros((256, 64)), [combo])


def test_level_transform_refuses_strides_past_the_phi_table(basis2):
    # phi is tabulated at 2^-12: a lattice step of 2^13 grid steps would
    # sample it between table points, so it is refused with the level named,
    # in time and in space; 2^12 steps are exact lookups and pass
    for dx, dt, axis in [(2.0 ** -4, 2.0 ** -13, "time"), (2.0 ** -13, 2.0 ** -4, "space")]:
        with pytest.raises(ValueError, match=f"the level-0 {axis} stride 8192 exceeds the "
                                             "2\\^12 points per unit of the phi table"):
            LevelTransform(basis2, 0, dx, dt)
    eng = LevelTransform(basis2, 0, 2.0 ** -12, 2.0 ** -12)
    assert (eng.stride_t, eng.stride_x) == (4096, 4096)


@pytest.mark.parametrize("N", [2, 6])
@pytest.mark.parametrize("dx, dt", [(2.0 ** -7, 2.0 ** -12), (2.0 ** -7, 2.0 ** -13)],
                         ids=["noise-regularity", "reconstruct"])
def test_level_transform_reads_phi_at_its_knots(N, dx, dt):
    # every tap of the time, space and disp factors is amp * phi(j / stride)
    # at a whole table index: the cascade value itself, bit for bit, which is
    # why the transforms keep their bits whatever interpolates between knots
    basis = build_family(N)
    vals = _cascade(basis.refine_coeffs, basis.depth)
    for n in range(1, 7):
        eng = LevelTransform(basis, n, dx, dt)
        for axis, code, amp in [(0, "phi", 2.0 ** n), (1, "phi", 2.0 ** (n / 2.0)),
                                (1, "disp", 2.0 ** (n / 2.0))]:
            taps, offs, stride = eng._factor(axis, code)
            idx = offs * (2 ** basis.depth // stride)
            assert 2 ** basis.depth % stride == 0 and idx[-1] < vals.size
            want = amp * vals[idx]
            if code == "disp":
                want = want * (offs * dx)
            assert taps.tobytes() == want.tobytes(), (n, axis, code)


@settings(max_examples=60)
@given(n=st.integers(0, 2), kt=st.integers(0, 3), kx=st.integers(0, 3),
       tcode=st.sampled_from(["phi", None]),
       xcodes=st.tuples(*[st.sampled_from(["phi", "disp"])] * 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forward_adjoint_duality(basis2, n, kt, kx, tcode, xcodes, seed):
    # <forward(f), c> = <f, adjoint(c)>: on a (time, space) field when tcode
    # is given, else on a two-axis spatial field; strides 2^kt and 2^kx
    N = 2 ** (n + kx)
    if tcode is None:
        eng = LevelTransform(basis2, n, 1.0 / N)
        combo, shape = xcodes, (N, N)
    else:
        M = 4 ** n * 2 ** kt
        eng = LevelTransform(basis2, n, 1.0 / N, 1.0 / M)
        combo, shape = (tcode, xcodes[0]), (M, N)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(shape)
    fwd = eng.forward(f, [combo])[combo]
    c = rng.standard_normal(fwd.shape)
    adj = eng.adjoint(c, combo, shape)
    assert adj.shape == f.shape
    err = abs(np.sum(fwd * c) - np.sum(f * adj))
    assert err <= 1e-12 * np.linalg.norm(fwd) * np.linalg.norm(c)


def _explicit_correlation(arr, axis, taps, offs, stride):
    moved = np.moveaxis(arr, axis, 0)
    n = moved.shape[0]
    out = np.zeros((n // stride,) + moved.shape[1:])
    for j in range(n // stride):
        for t, o in zip(taps, offs):
            out[j] += t * moved[(j * stride + o) % n]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("stride", range(1, 9))
def test_correlate_axis_explicit_sum(stride):
    # out[j] = sum_m taps[m] arr[(j*stride + offs[m]) mod n] on every axis of
    # a 3-d array, C- and Fortran-ordered, with offsets wrapping the axis
    # more than twice and repeated offsets; an axis of n + 1 cells is refused
    rng = np.random.default_rng(stride)
    for axis in range(3):
        shape = [3, 4, 5]
        shape[axis] = n = 3 * stride
        offs = np.concatenate([[-2 * n - 1, 2 * n + 1, 0, 0],
                               rng.integers(-2 * n, 2 * n + 1, size=6)])
        taps = rng.standard_normal(offs.size)
        for order in "CF":
            arr = np.asarray(rng.standard_normal(shape), order=order)
            got = correlate_axis(arr, axis, taps, offs, stride)
            want = _explicit_correlation(arr, axis, taps, offs, stride)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if stride > 1:
            # an axis that is not whole lattice cells is refused
            shape[axis] = n + 1
            with pytest.raises(ValueError, match="not whole lattice cells"):
                correlate_axis(rng.standard_normal(shape), axis, taps, offs, stride)


def _explicit_adjoint(arr, axis, taps, offs, stride, n_out):
    moved = np.moveaxis(arr, axis, 0)
    out = np.zeros((n_out,) + moved.shape[1:])
    for j in range(moved.shape[0]):
        for t, o in zip(taps, offs):
            out[(j * stride + o) % n_out] += t * moved[j]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("stride", range(1, 9))
def test_adjoint_axis_explicit_sum(stride):
    # out[i] = sum_m taps[m] arr[j] over j with j*stride + offs[m] = i mod
    # n_out, on every axis of a 3-d array, C- and Fortran-ordered, with
    # offsets wrapping the output axis more than twice and repeated offsets
    rng = np.random.default_rng(100 + stride)
    for axis in range(3):
        shape = [3, 4, 5]
        shape[axis] = 3
        n_out = 3 * stride
        offs = np.concatenate([[-2 * n_out - 1, 2 * n_out + 1, 0, 0],
                               rng.integers(-2 * n_out, 2 * n_out + 1, size=6)])
        taps = rng.standard_normal(offs.size)
        for order in "CF":
            arr = np.asarray(rng.standard_normal(shape), order=order)
            got = _adjoint_axis(arr, axis, taps, offs, stride, n_out)
            want = _explicit_adjoint(arr, axis, taps, offs, stride, n_out)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # an output axis that is not whole lattice cells is refused
        with pytest.raises(ValueError, match="not whole lattice cells"):
            _adjoint_axis(arr, axis, taps, offs, stride, n_out + 1)


@pytest.mark.parametrize("grid, kind, box", [
    (Grid(d=1, L=0.5, N=64, T=0.25, M=256), "spacetime",
     "has no point on the box L = 0.5, T = 0.25"),
    (Grid(d=1, L=1.0, N=64, T=0.25, M=256), "spacetime",
     "has no point on the box L = 1, T = 0.25"),
    (Grid(d=2, L=0.5, N=64), "spatial", "has no point on the box L = 0.5:"),
    (Grid(d=1, L=3.2, N=512, T=1.0, M=1024), "spacetime",
     "does not tile the box L = 3.2, T = 1:"),
], ids=["space-and-time", "time", "spatial", "not-tiled"])
def test_analyze_rejects_a_box_below_the_coarsest_cell(grid, kind, box):
    # a level whose lattice has no point on the box, or does not tile it (3.2
    # cells at level 0, though the strides are whole), is an input error with
    # the level and the box named, not a NumPy broadcast error or a norm
    fld = Field(grid=grid, values=np.zeros(grid.shape(kind)), kind=kind)
    with pytest.raises(ValueError, match=f"level-0 lattice {box}"):
        analyze(fld, build_basis(2), 0, 3)
