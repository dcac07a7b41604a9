"""White noise on periodic boxes, mollifiers, and regularity estimation.

Noise fields are sampled per grid cell with variance 1/(cell volume), so that
pairings <xi, eta> approximate centered Gaussians of variance ||eta||_L2^2.
Sampling uses the counter-based Philox generator keyed by the seed and fills
the array in one deterministic pass, so results are reproducible bit-for-bit
independently of any parallelism elsewhere.

The mollifier is a smooth, compactly supported, even product bump

    rho(t, x) = b(t) * prod_i b(x_i),      b(u) ~ exp(-1/(1-u^2)) on (-1,1),

parabolic-rescaled as rho_eps(t,x) = eps^-|s| rho(t/eps^2, x/eps), |s| = 2+d,
so supp rho_eps lies in the parabolic ball of radius eps.  The product form
keeps the self-convolution rho_eps * rho_eps computable from a single 1-d
table (used by the renormalisation-constant integrals), and makes the
spectrum of the sampled kernel the outer product of 1-d transforms.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "Mollifier",
    "exp_bump",
    "bump_profile",
    "sample_white_noise",
    "mollify",
    "estimate_regularity",
    "regularity_study",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L/2, L/2)^d x [0, T), N points per space axis, M steps."""

    d: int
    L: float
    N: int
    T: float = 0.0
    M: int = 0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if self.N < 1 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two, got {self.N}")
        if self.M < 0 or self.M & (self.M - 1):
            raise ValueError(f"M must be 0 or a power of two, got {self.M}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be finite and positive, got {self.L}")
        if not 0 <= self.T < math.inf or (self.M and not self.T):
            raise ValueError(f"T must be finite, non-negative, and positive when M > 0; "
                             f"got T = {self.T}, M = {self.M}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dt(self) -> float:
        if not self.M:
            raise ValueError("grid has no time axis")
        return self.T / self.M

    @property
    def xs(self) -> np.ndarray:
        return -self.L / 2 + np.arange(self.N) * self.dx

    @property
    def ts(self) -> np.ndarray:
        return np.arange(self.M) * self.dt

    def space_shape(self) -> tuple:
        return (self.N,) * self.d

    def shape(self, kind: str) -> tuple:
        return ((self.M,) if kind == "spacetime" else ()) + self.space_shape()


@dataclass
class Field:
    grid: Grid
    values: np.ndarray
    kind: str = "spatial"  # or "spacetime"

    def __post_init__(self):
        expected = self.grid.shape(self.kind)
        if tuple(self.values.shape) != expected:
            raise ValueError(f"field shape {self.values.shape} != grid shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy_with(self, values: np.ndarray) -> "Field":
        return Field(grid=self.grid, values=values, kind=self.kind)


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed, stream)))


def sample_white_noise(grid: Grid, kind: str = "spatial", seed: int = 0) -> Field:
    """White noise with cell variance 1/(cell volume).

    spatial: var = dx^-d; spacetime: var = (dt dx^d)^-1.
    """
    if kind not in ("spatial", "spacetime"):
        raise ValueError(f"kind must be 'spatial' or 'spacetime', got {kind!r}")
    vol = grid.dx ** grid.d * (grid.dt if kind == "spacetime" else 1.0)
    rng = _generator(seed)
    vals = rng.standard_normal(grid.shape(kind)) / np.sqrt(vol)
    return Field(grid=grid, values=vals, kind=kind)


# -- mollifier ---------------------------------------------------------------


def exp_bump(u):
    """The unnormalized bump exp(-1/(1-u^2)) on (-1, 1), zero outside."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - u ** 2)), 0.0)


@functools.cache
def bump_profile(profile: str):
    """Normalized 1-d bump b on (-1,1) and its self-convolution table on (-2,2).

    profile 'exp' is the standard exp(-1/(1-u^2)) bump; 'poly4' the polynomial
    (1-u^2)^4 alternative (used to demonstrate mollifier dependence).
    Returns (grid_b, b, grid_bb, bb) on 8193 and 16385 points; both tables
    integrate to one.  Tables are built once per profile and shared, so they
    are read-only.
    """
    u = np.linspace(-1.0, 1.0, 8193)
    if profile == "exp":
        b = exp_bump(u)
    elif profile == "poly4":
        b = np.maximum(0.0, 1.0 - u ** 2) ** 4
    else:
        raise ValueError(f"unknown bump profile {profile!r}")
    b /= np.trapezoid(b, u)
    h = u[1] - u[0]
    bb = np.convolve(b, b) * h
    s = np.linspace(-2.0, 2.0, 2 * u.size - 1)
    bb /= np.trapezoid(bb, s)
    for a in (u, b, s, bb):
        a.setflags(write=False)
    return u, b, s, bb


@functools.cache
def _bb_cdf(profile: str):
    # built once per profile and shared, so read-only like the tables
    _, _, gs, bb = bump_profile(profile)
    h = gs[1] - gs[0]
    cdf = np.concatenate([[0.0], np.cumsum((bb[1:] + bb[:-1]) * h / 2)])
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return gs, cdf


class _IndexedInterp:
    """np.interp(x, xp, fp) over fixed non-decreasing knots, bit for bit,
    with the knot found by indexing instead of by binary search.

    The range [xp[0], xp[-1]] is cut into equal buckets, and a guide table
    gives the last knot at or below each bucket's end (Chen and Asau 1974;
    Devroye 1986, III.2.4).  A query, clamped to the range as np.interp's
    default ends are, takes its bucket's guide entry and steps down once if
    that knot lies above it; a query in a bucket of two or more knots is
    searched.  Knots are bucketed by the same arithmetic as queries, so one
    step always suffices elsewhere.  Of a run of equal knots only the last is
    kept, the one np.interp picks.  On a uniform table (the b and bb grids)
    the guide is the identity and is skipped.  The value is slope[j]·(x −
    xp[j]) + fp[j], as numpy computes it; the slopes must be finite.
    """

    def __init__(self, xp, fp, buckets):
        j = np.flatnonzero(np.append(np.diff(xp) > 0, True))
        jn = j[:-1]
        self.slope = np.append((fp[jn + 1] - fp[jn]) / (xp[jn + 1] - xp[jn]), 0.0)
        if not np.all(np.isfinite(self.slope)):
            raise ValueError("interpolation table with an infinite slope")
        self.x, self.f = xp[j], fp[j]
        if j[0]:  # below a run of equal first knots np.interp gives fp[0]
            self.x = np.append(np.nextafter(xp[0], -np.inf), self.x)
            self.f, self.slope = np.append(fp[0], self.f), np.append(0.0, self.slope)
        self.lo, self.hi = self.x[0], xp[-1]
        self.origin, self.scale = xp[0], buckets / (xp[-1] - xp[0])
        kk = self._bucket(self.x)
        k = np.arange(kk[-1] + 1)
        top = np.searchsorted(kk, k, "right") - 1
        crowded = top - np.maximum(np.searchsorted(kk, k, "left") - 1, 0) > 1
        self.guide = None if np.array_equal(top, k) else top
        self.crowded = crowded if crowded.any() else None

    def _bucket(self, xc):
        t = xc - self.origin
        t *= self.scale
        np.fmax(t, 0.0, out=t)  # a NaN query goes to bucket 0 and stays NaN
        return t.astype(np.intp)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.maximum(x.reshape(-1), self.lo)
        np.minimum(xc, self.hi, out=xc)
        i = self._bucket(xc)
        searched = () if self.crowded is None else np.flatnonzero(self.crowded[i])
        if self.guide is not None:
            i = self.guide[i]
        i -= xc < self.x[i]
        if len(searched):
            i[searched] = np.searchsorted(self.x, xc[searched], "right") - 1
        out = xc - self.x[i]
        out *= self.slope[i]
        out += self.f[i]
        return out.reshape(x.shape)[()]


# The lookups of a profile's tables, built on first use.  b and bb vanish at
# both ends of their grids, so the held end values are the 0 that np.interp
# gave outside them; of the CDF's 2^16 buckets about 1% hold two or more
# knots, in the flat tails.


@functools.cache
def _b_table(profile: str) -> _IndexedInterp:
    gu, b, _, _ = bump_profile(profile)
    return _IndexedInterp(gu, b, gu.size - 1)


@functools.cache
def _bb_table(profile: str) -> _IndexedInterp:
    _, _, gs, bb = bump_profile(profile)
    return _IndexedInterp(gs, bb, gs.size - 1)


@functools.cache
def _cdf_table(profile: str) -> _IndexedInterp:
    gs, cdf = _bb_cdf(profile)
    return _IndexedInterp(cdf, gs, 1 << 16)


@dataclass(frozen=True)
class Mollifier:
    """Product bump at scale eps over the shared 1-d tables of its profile."""

    epsilon: float
    profile: str = "exp"

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"eps must be finite and positive, got {self.epsilon}")
        bump_profile(self.profile)  # rejects an unknown profile

    def _b(self, u):
        return _b_table(self.profile)(u)

    def rho(self, t, x):
        """Unit-scale rho(t, x...); x has shape (..., d)."""
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = self._b(t)
        for i in range(x.shape[-1]):
            out = out * self._b(x[..., i])
        return out

    def bb(self, s):
        """1-d self-convolution (b*b)(s), unit scale."""
        return _bb_table(self.profile)(s)

    def bb_quantile(self, p):
        """The inverse at p in [0, 1] of the trapezoid CDF of bb on the grid
        of the bb table: np.interp(p, cdf, grid)."""
        return _cdf_table(self.profile)(p)

    def rho_sq_spatial(self, x):
        """Spatial marginal of rho_eps^{*2} (time integrated out); x has shape
        (..., d)."""
        e = self.epsilon
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.ones(x.shape[:-1])
        for i in range(x.shape[-1]):
            out = out * self.bb(x[..., i] / e) / e
        return out

    def kernel(self, shape: tuple, dx: float, dt: float = None) -> list:
        """Per-axis factors of rho_eps sampled on a periodic array of this
        shape (time first when dt is given; any length, e.g. a time-padded
        noise): one 1-d profile per axis at the signed periodic offsets, each
        normalized to discrete mass 1.

        Their outer product is the sampled product kernel normalized to mass
        1, which makes discrete convolution exactly mass preserving
        (constants map to constants).
        """
        e = self.epsilon
        if e < 2 * dx - 1e-12:
            raise ValueError(f"mollifier under-resolved: eps = {e} < 2 dx = {2 * dx}")
        steps = [(dt, e ** 2)] if dt is not None else []
        steps += [(dx, e)] * (len(shape) - len(steps))
        factors = []
        for n, (h, scale) in zip(shape, steps):
            b = self._b(np.fft.fftfreq(n, d=1.0 / n) * h / scale)
            tot = b.sum()
            if tot <= 0:
                raise ValueError("mollifier kernel vanished on the grid")
            factors.append(b / tot)
        return factors

    def convolve(self, F: np.ndarray, shape: tuple, dx: float, dt: float = None) -> np.ndarray:
        """rho_eps * f, circular on an array of this shape, from F = rfftn(f).

        The kernel is a product, so its rfftn is the outer product of the
        fft of each leading axis's factor and the rfft of the last axis's.
        """
        *lead, last = self.kernel(shape, dx, dt)
        K = functools.reduce(np.multiply.outer,
                             [np.fft.fft(b) for b in lead] + [np.fft.rfft(last)])
        return np.fft.irfftn(np.multiply(F, K, out=K), s=shape, axes=tuple(range(len(shape))))


def mollify(noise: Field, moll: Mollifier) -> Field:
    """Circular convolution rho_eps * xi on the periodic box via FFT."""
    g = noise.grid
    return noise.copy_with(moll.convolve(np.fft.rfftn(noise.values), noise.values.shape,
                                         g.dx, g.dt if noise.kind == "spacetime" else None))


# -- field file format -------------------------------------------------------

_MAGIC = b"SHEF"
_VERSION = 1
_HEADER = struct.Struct("<IBBQQdd")  # after the magic
_KINDS = {"spatial": 0, "spacetime": 1}
_KINDS_INV = {v: k for k, v in _KINDS.items()}


def write_field(path, f: Field) -> None:
    """Little-endian header {magic, version u32, kind u8, d u8, N u64, M u64,
    L f64, T f64} followed by row-major f64 values."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, _KINDS[f.kind], f.grid.d,
                              f.grid.N, f.grid.M, f.grid.L, f.grid.T))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path) -> Field:
    """The field of a file written by write_field; a malformed file raises
    ValueError naming the file and the fault."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = 4 + _HEADER.size
    try:
        if data[:4] != _MAGIC:
            raise ValueError(f"not a field file (magic {data[:4]!r})")
        if len(data) < start:
            raise ValueError(f"truncated header: {len(data)} bytes, a header takes {start}")
        version, kind_u8, d, N, M, L, T = _HEADER.unpack_from(data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported field file version {version}")
        if kind_u8 not in _KINDS_INV:
            raise ValueError(f"unknown field kind {kind_u8}")
        kind = _KINDS_INV[kind_u8]
        grid = Grid(d=d, L=L, N=int(N), T=T, M=int(M))
        shape = grid.shape(kind)
        if len(data) - start != 8 * math.prod(shape):
            raise ValueError(f"payload of {len(data) - start} bytes, but a {kind} field "
                             f"of shape {shape} takes {8 * math.prod(shape)}")
        vals = np.frombuffer(data, dtype="<f8", offset=start).reshape(shape).copy()
        return Field(grid=grid, values=vals, kind=kind)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- regularity estimation ---------------------------------------------------


def estimate_regularity(fld: Field, basis, n_min: int = 1, n_max: int = None) -> dict:
    """Critical Besov exponent from the decay of level aggregates.

    Per level n the unweighted L^2 aggregate of coefficients
    (``besov.level_aggregate``: without the normalization of
    ``besov.level_norm``) behaves like 2^{-n(|s|/2 + alpha_c)}; a linear fit
    of log2(aggregate) against n returns alpha_hat = -|s|/2 - slope, with
    |s| = ``besov.scaling_dim``.
    """
    from . import besov
    from .wavelet import analyze, finest_level

    g = fld.grid
    dt = g.dt if fld.kind == "spacetime" else None
    s_half = besov.scaling_dim(g.d, dt is not None) / 2.0
    pyr = analyze(fld, basis, n_min, finest_level(g.dx, dt) if n_max is None else n_max)
    levels = sorted(pyr.levels)
    if len(levels) < 4:
        raise ValueError(f"need at least 4 usable levels, got {len(levels)}")
    aggs = [besov.level_aggregate(pyr, n) for n in levels]
    slope, _ = np.polyfit(np.asarray(levels, dtype=float), np.log2(aggs), 1)
    alpha_hat = float(-s_half - slope)
    return {"alpha_hat": alpha_hat, "regular": alpha_hat >= 0}


def regularity_study(grid: Grid, kind: str, basis, seeds, n_min: int = 1,
                     n_max: int = None) -> dict:
    """alpha_hat over several seeds with a normal 95% confidence interval."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError(f"a confidence interval needs at least 2 seeds, got {len(seeds)}")
    vals = []
    for s in seeds:
        fld = sample_white_noise(grid, kind, seed=s)
        vals.append(estimate_regularity(fld, basis, n_min=n_min, n_max=n_max)["alpha_hat"])
    vals = np.asarray(vals)
    half = 1.96 * vals.std(ddof=1) / np.sqrt(len(vals))
    return {"alpha_hat": float(vals.mean()), "ci_halfwidth": float(half),
            "samples": [float(v) for v in vals]}
