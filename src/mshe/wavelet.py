"""Compactly supported orthonormal wavelets on parabolic space-time lattices.

The 1-d scaling function phi is generated from its refinement filter by the
cascade iteration on dyadic grids (exact at dyadic rationals, linear
interpolation in between, by the indexed lookup of ``noise``); psi is not
tabulated.  Quantities that must hold to near machine precision -- inner
products of integer translates, moments, refinement residuals -- are
evaluated through the two-scale algebra rather than by grid quadrature, since
grid quadrature of a C^alpha scaling function cannot reach 1e-9.
``analyze`` projects a field onto one level on its grid and descends with the
refinement filter (the Mallat pyramid).

Space-time rescaling is parabolic: the time factor of phi^n_{(t,x)} is
2^n phi(2^{2n}(s-t)) and each space factor 2^{n/2} phi(2^n(y_i-x_i)), which
preserves the L^2 norm.  Lattices are Lambda_n = 2^{-2n}Z x (2^{-n}Z)^d.
Fields live on periodic boxes; all transforms wrap periodically, i.e. the
analysis is the one of the parabolic torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .noise import _IndexedInterp

__all__ = [
    "daubechies_coefficients",
    "WaveletBasis",
    "build_basis",
    "rescale_psi",
    "CoeffPyramid",
    "analyze",
    "LevelTransform",
    "correlate_axis",
    "check_lattices",
]

# Hoelder regularity of the Daubechies-N scaling functions (N = vanishing
# moments) that build_family accepts: from N = 15 on the factorization loses
# orthonormality in double precision.  Values for N <= 10 are the classical
# ones; beyond that the ~0.31 per-step increment is enough for selection.
_DB_REGULARITY = {
    2: 0.550, 3: 1.088, 4: 1.618, 5: 1.969, 6: 2.189, 7: 2.460, 8: 2.761,
    9: 3.074, 10: 3.384, 11: 3.693, 12: 4.001, 13: 4.310, 14: 4.618,
}


def daubechies_coefficients(N: int) -> np.ndarray:
    """Refinement coefficients c_k of the Daubechies-N scaling function.

    Convention: phi(x) = sum_k c_k phi(2x - k), k = 0..2N-1, sum c_k = 2.
    Computed by spectral factorization of the halfband polynomial; the
    minimal-phase root selection gives the standard extremal-phase family.
    """
    # P(y) = sum_{k<N} binom(N-1+k, k) y^k with y = sin^2(xi/2)
    P = [math.comb(N - 1 + k, k) for k in range(N)]
    # substitute y = (2 - z - 1/z)/4 and clear z^-(N-1): a polynomial of
    # degree 2(N-1), coefficients ascending in z
    y_num = np.array([-0.25, 0.5, -0.25])
    q = np.zeros(2 * N - 1)
    q[N - 1] = P[0]
    ypow = np.array([1.0])
    for k in range(1, N):
        ypow = np.convolve(ypow, y_num)
        lo = (N - 1) - k
        q[lo:lo + ypow.size] += P[k] * ypow
    roots = np.roots(q[::-1])
    inside = roots[np.abs(roots) < 1.0]
    b = np.array([1.0 + 0j])
    for r in inside:
        b = np.convolve(b, np.array([1.0, -r]))
    b = np.real(b)
    # m0(z) = ((1+z)/2)^N * B(z)/B(1)
    m0 = b / b.sum()
    for _ in range(N):
        m0 = np.convolve(m0, [0.5, 0.5])
    c = 2.0 * m0
    # filter orthonormality: sum_k c_k c_{k-2m} = 2 delta_m
    for m in range(1, N):
        res = np.dot(c[2 * m:], c[:c.size - 2 * m])
        if abs(res) > 1e-9:
            raise RuntimeError(
                f"filter factorization lost orthonormality at lag {m}: {res:.2e}")
    return c


def _cascade(c: np.ndarray, depth: int) -> np.ndarray:
    """Values of phi on the grid k 2^-depth over [0, S], S = len(c) - 1."""
    S = c.size - 1
    k = 2 * np.arange(1, S)[:, None] - np.arange(1, S)  # A[i - 1, j - 1] = c[2i - j]
    A = np.where((k >= 0) & (k <= S), c[np.clip(k, 0, S)], 0.0)
    w, v = np.linalg.eig(A)
    idx = np.argmin(np.abs(w - 1.0))
    phi_int = np.real(v[:, idx])
    phi_int = np.concatenate([[0.0], phi_int, [0.0]])
    phi_int /= phi_int.sum()  # partition of unity at the integers
    phi_int[[0, -1]] = 0.0  # not -0.0, which a negative eigenvector's sum leaves

    vals = phi_int
    for j in range(1, depth + 1):
        n_prev = vals.size
        new = np.zeros(2 * n_prev - 1)
        new[::2] = vals
        odd_idx = np.arange(1, new.size, 2)
        acc = np.zeros(odd_idx.size)
        # odd points x: phi(x) = sum_k c_k phi(2x - k); 2x lands on the
        # previous grid at index odd_idx - k 2^(j-1)
        for k in range(c.size):
            src = odd_idx - k * 2 ** (j - 1)
            mask = (src >= 0) & (src < n_prev)
            acc[mask] += c[k] * vals[src[mask]]
        new[1::2] = acc
        vals = new
    return vals


@dataclass
class WaveletBasis:
    """1-d orthonormal scaling function phi plus the exact two-scale algebra."""

    N: int                      # vanishing moments of psi
    refine_coeffs: np.ndarray   # c_k, sum = 2
    phi: _IndexedInterp         # the cascade values on k 2^-depth, zero outside
    depth: int

    @property
    def support(self) -> int:
        """Length of supp phi (= 2N - 1)."""
        return self.refine_coeffs.size - 1

    # -- exact two-scale algebra ------------------------------------------

    def inner_phi_translates(self) -> tuple:
        """Exact Gram(k) = <phi, phi(.-k)>, k = -(S-1)..S-1.

        Solves the transition fixed point Gram(k) = 1/2 sum_j A(j-2k) Gram(j),
        A the filter autocorrelation, normalized by sum_k Gram(k) = 1 (the
        exact quadrature for integrals of refinable functions).
        """
        c = self.refine_coeffs
        S = self.support
        lags = np.arange(-(S - 1), S)
        A = {i: float(np.dot(c[abs(i):], c[:c.size - abs(i)])) for i in range(-S, S + 1)}
        n = lags.size
        T = np.array([[0.5 * A.get(int(j - 2 * k), 0.0) for j in lags] for k in lags])
        M_aug = np.vstack([T - np.eye(n), np.ones(n)])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        gram, *_ = np.linalg.lstsq(M_aug, rhs, rcond=None)
        return lags, gram

    def phi_moments(self, up_to: int) -> np.ndarray:
        """Exact monomial moments M_j = int x^j phi(x) dx, j = 0..up_to."""
        c = self.refine_coeffs
        k = np.arange(c.size, dtype=float)
        M = np.zeros(up_to + 1)
        M[0] = 1.0
        for j in range(1, up_to + 1):
            s = 0.0
            for i in range(j):
                s += math.comb(j, i) * float(np.dot(c, k ** (j - i))) * M[i]
            M[j] = s / (2.0 ** (j + 1) - 2.0)
        return M

    def psi_moments(self, up_to: int) -> np.ndarray:
        """Exact moments int x^j psi(x) dx via the quadrature-mirror filter."""
        c = self.refine_coeffs
        S = self.support
        M = self.phi_moments(up_to)
        ks = np.arange(1 - S, 2, dtype=float)
        d = np.array([(-1) ** int(k) * c[int(1 - k)] for k in ks])
        out = np.zeros(up_to + 1)
        for j in range(up_to + 1):
            s = 0.0
            for i in range(j + 1):
                s += math.comb(j, i) * float(np.dot(d, ks ** (j - i))) * M[i]
            out[j] = s / 2.0 ** (j + 1)
        return out

    def refinement_residual(self) -> float:
        """max |phi(x) - sum_k c_k phi(2x - k)| on a 257-point dyadic test grid."""
        S = self.support
        x = np.arange(257) * (S / 256)
        # snap to the tabulation grid so both sides are exact lookups
        step = 2.0 ** -self.depth
        x = np.round(x / step / 2) * 2 * step
        lhs = self.phi(x)
        rhs = np.zeros_like(lhs)
        for k, ck in enumerate(self.refine_coeffs):
            rhs += ck * self.phi(2 * x - k)
        return float(np.max(np.abs(lhs - rhs)))


def build_basis(r: int) -> WaveletBasis:
    """Minimal Daubechies family with regularity above r, tabulated to 2^-12.

    Requires r in {1,...,4}; the selected family also has N >= r + 1
    vanishing moments so that psi annihilates polynomials of degree <= r.
    """
    if r not in (1, 2, 3, 4):
        raise ValueError(f"unsupported regularity order r={r}; need r in 1..4")
    N = min(n for n, reg in _DB_REGULARITY.items() if reg > r and n >= r + 1)
    return build_family(N)


def build_family(N: int) -> WaveletBasis:
    """Daubechies-N basis regardless of regularity, tabulated to 2^-12.

    The small-support families (N = 2, 3) matter for reconstruction, where
    the one-sided evaluation shift grows like the squared support diameter.
    """
    if N not in _DB_REGULARITY:
        raise ValueError(f"no Daubechies-{N} family: need N in 2..14")
    c = daubechies_coefficients(N)
    depth = 12
    vals = _cascade(c, depth)
    phi = _IndexedInterp(np.arange(vals.size) * 2.0 ** -depth, vals, vals.size - 1)
    return WaveletBasis(N=N, refine_coeffs=c, phi=phi, depth=depth)


# -- parabolic rescalings ---------------------------------------------------


def rescale_psi(basis: WaveletBasis, n: int, center, combo, d: int = 1):
    """Mixed tensor rescaling at level n centred at center = (t, x_1, ..., x_d),
    L^2-normalized; the returned f(s, y) takes y of shape (..., d).

    combo[0] is a time code ('phi', 'psi0', 'psi1a', 'psi1b'); combo[1:] are
    'phi'/'psi' per space axis, so ('phi',) * (d + 1) gives phi^n_{(t,x)}.
    The two 'psi1*' codes carry the time wavelet at the intermediate scale
    2^{2n+1}, 'psi1b' shifted by 2^-(2n+1).
    """
    t0 = center[0]
    x0 = np.asarray(center[1:], dtype=float)
    kind, extra, off_half, amp_pow = _TIME_CODES[combo[0]]
    c = basis.refine_coeffs

    def psi(x):  # sum_k (-1)^k c_{1-k} phi(2x - k), k = 1-S..1
        return sum((-1) ** k * c[1 - k] * basis.phi(2 * x - k) for k in range(1 - basis.support, 2))

    tfac = basis.phi if kind == "phi" else psi
    tscale = 2.0 ** (2 * n + extra)
    tamp = 2.0 ** (n + amp_pow)
    tshift = off_half * 2.0 ** -(2 * n + 1)
    xfac = [basis.phi if code == "phi" else psi for code in combo[1:]]

    def _eval(s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if d == 1 and y.ndim == s.ndim:
            y = y[..., None]
        out = tamp * tfac(tscale * (s - t0 - tshift))
        for i in range(d):
            out = out * 2.0 ** (n / 2.0) * xfac[i](2.0 ** n * (y[..., i] - x0[i]))
        return out

    return _eval


# -- pyramids, transforms ----------------------------------------------------


@dataclass
class CoeffPyramid:
    """Wavelet coefficients of a grid field per level / tensor combination.

    levels[n][combo] is an array over the level-n lattice Lambda_n of the
    periodic box [0,T) x [-L/2, L/2)^d (time axis first for space-time
    pyramids); phi_level holds the all-phi coefficients at n_min.
    """

    d: int
    L: float
    n_min: int
    spacetime: bool
    levels: dict = field(default_factory=dict)
    phi_level: np.ndarray = None

    def xs(self, n: int) -> np.ndarray:
        """Space coordinates of the level-n lattice along one axis."""
        return -self.L / 2 + np.arange(max(1, int(round(self.L * 2 ** n)))) * 2.0 ** -n

    def total_sq(self) -> float:
        s = float(np.sum(self.phi_level ** 2))
        for lev in self.levels.values():
            s += float(sum(np.sum(a ** 2) for a in lev.values()))
        return s


# Time-axis atom codes at level n.  The parabolic step V_n -> V_{n+1}
# refines time by a factor 4, so the orthogonal complement carries the time
# wavelet at TWO semiscales: 2^{2n} and 2^{2n+1}, the latter at two lattice
# offsets.  Per level and per Lambda_n cell this yields 4*2^d - 1 atoms.
_TIME_CODES = {
    # code: (kind, extra scale power, offset in units of 4^-n / 2, amplitude power)
    "phi": ("phi", 0, 0, 0.0),
    "psi0": ("psi", 0, 0, 0.0),
    "psi1a": ("psi", 1, 0, 0.5),
    "psi1b": ("psi", 1, 1, 0.5),
}


def _axis_taps(basis: WaveletBasis, scale_pow: int, h: float, amp: float):
    """Samples amp * phi(2^scale_pow * j*h) at the grid offsets j = 0, 1, ...
    that cover supp phi, as (taps, offs)."""
    scale = 2.0 ** scale_pow
    offs = np.arange(int(np.ceil(basis.support / scale / h)) + 1)
    return amp * basis.phi(scale * offs * h), offs


def step_filters(basis: WaveletBasis):
    """(taps, offs) of the low- and high-pass halves of one dyadic step: at
    stride 2 along one axis they take the phi coefficients of scale 2^(m+1) to
    the phi and psi ones of scale 2^m, by phi = sum_k c_k phi(2. - k) and
    psi = sum_k (-1)^(1-k) c_k phi(2. - 1 + k)."""
    c = basis.refine_coeffs / np.sqrt(2.0)
    k = np.arange(c.size)
    return (c, k), ((-1.0) ** (1 - k) * c, 1 - k)


def correlate_axis(arr: np.ndarray, axis: int, taps: np.ndarray, offs: np.ndarray,
                   stride: int) -> np.ndarray:
    """out[j] = sum_m taps[m] arr[(j*stride + offs[m]) mod n], periodic.

    The taps are scattered into one dense vector over the offsets lo, lo + 1,
    ... taken mod n (taps on one point of the period add, so the vector is at
    most n long), and out is the product of the strided windows of one
    periodic extension of the axis with that vector.
    """
    n, lo = arr.shape[axis], int(np.min(offs))
    if n % stride:
        raise ValueError(f"{n} grid cells are not whole lattice cells of stride {stride}; "
                         "use dyadic box sizes")
    pos = (np.asarray(offs) - lo) % n
    dense = np.zeros(int(pos.max()) + 1)
    np.add.at(dense, pos, taps)
    span = dense.size + (n // stride - 1) * stride
    ext = np.take(arr, np.arange(lo, lo + span), axis=axis, mode="wrap")
    windows = sliding_window_view(ext, dense.size, axis=axis)
    return windows[(slice(None),) * axis + (slice(None, None, stride),)] @ dense


def _adjoint_axis(arr: np.ndarray, axis: int, taps: np.ndarray, offs: np.ndarray,
                  stride: int, n_out: int) -> np.ndarray:
    """out[i] = sum_m taps[m] arr[j] over lattice j with j*stride + offs[m] = i
    (mod n_out), for n_out = stride * (lattice size).

    Output phase p = i mod stride is one stride-1 ``correlate_axis`` of arr
    with the taps whose offsets are p mod stride, at offsets -(o - p)/stride.
    """
    if n_out != arr.shape[axis] * stride:
        raise ValueError(f"{n_out} grid cells are not whole lattice cells; use dyadic box sizes")
    offs = np.asarray(offs)
    res = np.zeros(arr.shape[:axis] + (n_out,) + arr.shape[axis + 1:])
    head = (slice(None),) * axis
    for p in range(stride):
        mine = offs % stride == p
        if mine.any():
            res[head + (slice(p, None, stride),)] = correlate_axis(
                arr, axis, taps[mine], -((offs[mine] - p) // stride), 1)
    return res


class LevelTransform:
    """The separable level-n transform between a periodic grid field and the
    lattice Lambda_n.

    A combo names one factor code per array axis: 'phi' on every axis, or on
    a space axis 'disp', phi times the displacement y - x from the lattice
    point (with dt given, axis 0 is time).  ``forward`` samples
    <values, factor> on Lambda_n without the cell volume; ``adjoint`` is its
    transpose.
    """

    def __init__(self, basis: WaveletBasis, n: int, dx: float, dt: float = None):
        self.basis, self.n, self.dx, self.dt = basis, n, dx, dt
        self.stride_t = None if dt is None else self._stride(4.0 ** -n / dt, "time")
        self.stride_x = self._stride(2.0 ** -n / dx, "space")

    def _stride(self, v: float, axis: str) -> int:
        """The lattice step in grid steps, which ``_axis_taps`` samples phi at:
        a whole number no greater than the table's points per unit."""
        s, depth = int(round(v)), self.basis.depth
        if abs(v - s) > 1e-9 or s < 1:
            raise ValueError(f"{axis} stride {v} not a positive integer; use dyadic box sizes")
        if s > 2 ** depth:
            raise ValueError(f"the level-{self.n} {axis} stride {s} exceeds the 2^{depth} "
                             "points per unit of the phi table; use a finer level")
        return s

    def _factor(self, axis: int, code: str):
        """(taps, offs, stride) of one axis factor."""
        n, time = self.n, axis == 0 and self.dt is not None
        if code not in (("phi",) if time else ("phi", "disp")):
            raise ValueError(f"no level-transform factor {code!r} on the "
                             f"{'time' if time else 'space'} axis")
        if time:
            return (*_axis_taps(self.basis, 2 * n, self.dt, 2.0 ** n), self.stride_t)
        taps, offs = _axis_taps(self.basis, n, self.dx, 2.0 ** (n / 2.0))
        if code == "disp":
            taps = taps * (offs * self.dx)
        return taps, offs, self.stride_x

    def forward(self, values: np.ndarray, combos) -> dict:
        """{combo: coefficients over Lambda_n} in the order of combos.

        The passes run axis by axis and each distinct prefix of factor codes
        is correlated once, from its parent prefix.
        """
        arrays = {(): values}
        for k in range(values.ndim):
            prefixes = dict.fromkeys(c[:k + 1] for c in combos)
            arrays = {p: correlate_axis(arrays[p[:-1]], k, *self._factor(k, p[-1]))
                      for p in prefixes}
        return {c: arrays[c] for c in combos}

    def adjoint(self, coeffs: np.ndarray, combo, shape) -> np.ndarray:
        """Sum over Lambda_n of coeffs times the combo's tensor factor, sampled
        on a grid of the given shape."""
        for k, code in enumerate(combo):
            coeffs = _adjoint_axis(coeffs, k, *self._factor(k, code), shape[k])
        return coeffs


def finest_level(dx: float, dt) -> int:
    """The finest level n whose lattice steps are 4 grid steps or more:
    2^-n >= 4 dx and, unless dt is None, 4^-n >= 4 dt."""
    n = math.floor(-math.log2(4 * dx) + 1e-9)
    return n if dt is None else min(n, math.floor(-math.log2(4 * dt) / 2 + 1e-9))


def _check_resolution(dx: float, dt, n_max: int):
    if n_max > finest_level(dx, dt):
        steps = [("dx", dx, 2.0 ** -n_max)] + [("dt", dt, 4.0 ** -n_max)] * (dt is not None)
        raise ValueError(f"resolution too coarse: level {n_max} needs " + " and ".join(
            f"{w} <= {step / 4:.4g} (got {h:.4g})" for w, h, step in steps))


def check_lattices(g, dt, n_min: int, n_max: int) -> None:
    """Refuse the levels n_min..n_max of the periodic box of grid g (dt None
    for a spatial field) unless the level-n_min lattice tiles the box and the
    level-n_max lattice steps are whole numbers of grid steps."""
    cells = [g.L * 2.0 ** n_min] + ([g.T * 4.0 ** n_min] if dt is not None else [])
    if min(cells) < 1 or any(c % 1 for c in cells):
        box = f"L = {g.L:g}" + (f", T = {g.T:g}" if dt is not None else "")
        how = "has no point on" if min(cells) < 1 else "does not tile"
        raise ValueError(f"the level-{n_min} lattice {how} the box {box}: n_min needs "
                         "L 2^n_min (and T 4^n_min in time) whole and at least 1")
    steps = {"space": 2.0 ** -n_max / g.dx}
    if dt is not None:
        steps["time"] = 4.0 ** -n_max / dt
    if min(steps.values()) < 1 or any(abs(s - round(s)) > 1e-9 for s in steps.values()):
        raise ValueError(f"the level-{n_max} lattice is finer than the grid: its steps are "
                         + " and ".join(f"{s:g} grid steps in {w}" for w, s in steps.items())
                         + "; n_max needs whole numbers of at least 1")


def level_range(n_min: int, n_max: int) -> range:
    """The levels n_min..n_max; an empty range is refused."""
    if n_min > n_max:
        raise ValueError(f"no levels from n_min = {n_min} to n_max = {n_max}")
    return range(n_min, n_max + 1)


def analyze(fld, basis: WaveletBasis, n_min: int, n_max: int) -> CoeffPyramid:
    """Wavelet coefficients of a ``noise.Field`` on its periodic box.

    A space-time field (time axis first, covering [0,T) x [-L/2,L/2)^d) is
    analysed by the parabolic combinations, time code x phi/psi per space
    axis minus all-phi (time slowest, the first space axis fastest), a
    spatial one by the isotropic d-dimensional ones.  Values sit at cell
    corners.  The level-(n_max + 1) all-phi coefficients are Riemann sums on
    the grid with periodic wrap; each level's follow from those above by the
    ``step_filters`` step, once per space axis and twice in time.
    """
    g = fld.grid
    dt = g.dt if fld.kind == "spacetime" else None
    levels = level_range(n_min, n_max)
    _check_resolution(g.dx, dt, n_max)
    check_lattices(g, dt, n_min, n_max)
    all_phi, filters, coeffs = ("phi",) * fld.values.ndim, step_filters(basis), {}
    phi = LevelTransform(basis, n_max + 1, g.dx, dt).forward(fld.values, [all_phi])[all_phi]
    phi = phi * (g.dx ** g.d * (1.0 if dt is None else dt))  # the cell volume

    def split(a, axis):  # [low, high] halves of one step
        return [correlate_axis(a, axis, *f, 2) for f in filters]

    for n in reversed(levels):
        parts = {(): phi}
        for axis in range(fld.values.ndim - g.d, fld.values.ndim):
            halves = {p: split(a, axis) for p, a in parts.items()}
            parts = {p + (code,): halves[p][i] for i, code in enumerate(("phi", "psi"))
                     for p in parts}
        if dt is not None:
            # the first time step's high-pass rows are psi1a, psi1b in turn
            steps = {p: split(a, 0) for p, a in parts.items()}
            times = {p: split(lo, 0) + [hi[0::2], hi[1::2]] for p, (lo, hi) in steps.items()}
            parts = {(t,) + p: times[p][i] for i, t in enumerate(_TIME_CODES) for p in parts}
        phi, coeffs[n] = parts.pop(all_phi), parts
    return CoeffPyramid(d=g.d, L=g.L, n_min=n_min, spacetime=dt is not None,
                        levels={n: coeffs[n] for n in levels}, phi_level=phi)
