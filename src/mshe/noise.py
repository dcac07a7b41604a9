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
        if self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two, got {self.N}")
        if self.M and (self.M & (self.M - 1)):
            raise ValueError(f"M must be a power of two, got {self.M}")

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
def bump_profile(n_tab: int = 8193, profile: str = "exp"):
    """Normalized 1-d bump b on (-1,1) and its self-convolution table on (-2,2).

    profile 'exp' is the standard exp(-1/(1-u^2)) bump; 'poly4' the polynomial
    (1-u^2)^4 alternative (used to demonstrate mollifier dependence).
    Returns (grid_b, b, grid_bb, bb); both tables integrate to one.  Tables
    are built once per (n_tab, profile) and shared, so they are read-only.
    """
    u = np.linspace(-1.0, 1.0, n_tab)
    if profile == "exp":
        b = exp_bump(u)
    elif profile == "poly4":
        b = np.maximum(0.0, 1.0 - u ** 2) ** 4
    else:
        raise ValueError(f"unknown bump profile {profile!r}")
    b /= np.trapezoid(b, u)
    h = u[1] - u[0]
    bb = np.convolve(b, b) * h
    s = np.linspace(-2.0, 2.0, 2 * n_tab - 1)
    bb /= np.trapezoid(bb, s)
    for a in (u, b, s, bb):
        a.setflags(write=False)
    return u, b, s, bb


@functools.cache
def _bb_cdf(profile: str):
    # built once per profile and shared, so read-only like the tables
    _, _, gs, bb = bump_profile(profile=profile)
    h = gs[1] - gs[0]
    cdf = np.concatenate([[0.0], np.cumsum((bb[1:] + bb[:-1]) * h / 2)])
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return gs, cdf


@dataclass
class Mollifier:
    """Product bump at scale eps over the shared 1-d tables of its profile."""

    epsilon: float
    profile: str = "exp"

    def __post_init__(self):
        bump_profile(profile=self.profile)  # rejects an unknown profile

    def _b(self, u):
        gu, b, _, _ = bump_profile(profile=self.profile)
        return np.interp(u, gu, b, left=0.0, right=0.0)

    def rho(self, t, x):
        """Unit-scale rho(t, x...); x has shape (..., d)."""
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = self._b(t)
        for i in range(x.shape[-1]):
            out = out * self._b(x[..., i])
        return out

    def rho_eps(self, t, x, d: int):
        e = self.epsilon
        x = np.asarray(x, dtype=float)
        return self.rho(t / e ** 2, x / e) / e ** (2 + d)

    def bb(self, s):
        """1-d self-convolution (b*b)(s), unit scale."""
        _, _, gs, bb = bump_profile(profile=self.profile)
        return np.interp(np.asarray(s, dtype=float), gs, bb, left=0.0, right=0.0)

    def bb_cdf(self):
        """The grid of the bb table and the trapezoid CDF of bb on it."""
        return _bb_cdf(self.profile)

    def rho_sq(self, t, x):
        """Space-time self-convolution rho_eps^{*2}(t, x); support radius 2 eps."""
        e = self.epsilon
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = self.bb(t / e ** 2) / e ** 2
        for i in range(x.shape[-1]):
            out = out * self.bb(x[..., i] / e) / e
        return out

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

    Per level n the unweighted L^2 aggregate of coefficients (volume-weighted,
    averaged over time rows and tensor combinations, WITHOUT the
    2^{-n|s|/2 - n alpha} normalization) behaves like 2^{-n(|s|/2 + alpha_c)};
    a linear fit of log2(aggregate) against n returns alpha_hat = -|s|/2 -
    slope, where |s| is 2 + d for space-time fields and d for spatial ones.
    """
    from . import besov
    from .wavelet import analyze, analyze_spatial

    g = fld.grid
    if fld.kind == "spacetime":
        if n_max is None:
            n_max = int(np.log2(min(2 ** -2 * g.N / g.L, np.sqrt(g.M / g.T) / 2)))
        pyr = analyze(fld.values, basis, n_min, n_max, g.T, g.L)
        s_half = (2 + g.d) / 2.0
    else:
        if n_max is None:
            n_max = int(np.log2(g.N / g.L / 4))
        pyr = analyze_spatial(fld.values, basis, n_min, n_max, g.L)
        s_half = g.d / 2.0
    levels = sorted(pyr.levels)
    if len(levels) < 4:
        raise ValueError(f"need at least 4 usable levels, got {len(levels)}")
    aggs = [besov.level_aggregate(pyr, n, reduce="mean") for n in levels]
    logs = np.log2(aggs)
    ns = np.asarray(levels, dtype=float)
    slope, _ = np.polyfit(ns, logs, 1)
    alpha_hat = -s_half - slope
    return {
        "alpha_hat": float(alpha_hat),
        "slope": float(slope),
        "levels": levels,
        "aggregates": [float(a) for a in aggs],
        "regular": bool(alpha_hat >= 0),
    }


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
