"""Renormalisation constants from their explicit singular integrals.

With rho2 = rho_eps * rho_eps (self-convolved mollifier) and G the equation's
Green's function, the three constants are

    c    = int G(z) rho2(z) dz
    c11  = int G(z1) G(z2) G(z3) rho2(z1+z2) rho2(z2+z3) dz1 dz2 dz3
    c12  = int G(z1) G(z2) [G(z3) rho2(z3) - c delta_0(z3)] rho2(z1+z2+z3) dz

and C = c + c11 + c12.  For the 3-d equation with spatial noise, G is the
truncated Green's function of the Laplacian (exactly 1/(4 pi |x|) on
|x| <= R_G/2) and all variables are spatial; rho2 is then the time marginal
of the self-convolution.  For the 1-d space-time equation, G is the heat
kernel (zero for t <= 0) and the variables are space-time points.

For pam3d, c11 diverges logarithmically: as eps -> 0, rho2 tends to a delta,
so z1 = z3 = -z2 and c11 approaches the shell integral of G^3,

    int_{eps<|x|<R} (4 pi |x|)^-3 dx = log(R/eps) / (16 pi^2),

hence c11 = log(1/eps) / (16 pi^2) + O(1).

c is a deterministic quadrature (radial for the 1/|x| singularity,
sqrt(t)-substituted for the heat kernel).  Every constant is a unit-scale
value: rho2 at scale eps is eps^-|s| rho2(./eps) at unit scale (|s| = 3 for
the spatial marginal on R^3, 2 + 1 for the space-time kernel on R), and G is
homogeneous of degree -1 in the same scaling, its cutoff moving from R_G to
the ratio R_G/eps.  So C(eps) = c_1(R_G/eps)/eps + K(R_G/eps), with c_1 and
K = c11 + c12 computed once at eps = 1.  pam3d truncates G at R_G = 1 in
every command, so C depends on eps alone; the cutoff weights each shell of
its radial rule, and is exactly 1 on the support of rho2 once R_G/eps >=
4 sqrt(3).  The heat kernel is untruncated (R_G = inf): one ratio.

c11 and c12 are randomized-QMC means of one integrand each: the mollifier
factors are importance sampled exactly through per-axis inverse CDFs of the
self-convolved bump (``Mollifier.bb_quantile``, a guide-table lookup that
gives np.interp's bits on the CDF table), one Green factor per integral is
importance sampled from three uniforms (radially with density ~ 1/|x| in the
3-d case; with the heat kernel's own density, uniform in t and Gaussian in x
by Box-Muller, in the space-time case), and the remaining factors are plain
weights.  c12 is the mean over w = z1+z2+z3 and z3 ~ rho2 and z1 ~ q of

    (G/q)(z1) G(z3) [G(w - z1 - z3) - G(w - z1)]:

the first term is the product part, and the second is unbiased for the delta
part because E_{z3 ~ rho2} G(z3) = c exactly, so the two cancel sample by
sample.  The standard error comes from independent scrambled replicates.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .kernel import _smoothstep, heat_kernel
from .noise import Mollifier
from .structure import EQUATIONS

__all__ = [
    "GreenFn",
    "pam_green",
    "she_green",
    "GREENS",
    "RenormConstants",
    "c_eps",
    "c11_eps",
    "c12_eps",
    "compute_constants",
]


@dataclass(frozen=True)
class GreenFn:
    """Green's function plus the importance sampler for one of its factors."""

    equation: str          # "pam3d" | "she1d"
    dim: int               # dims of one integration variable z_i
    R_G: float = math.inf  # truncation radius (pam3d)

    def __call__(self, z):
        """z shape (..., dim); pam3d: purely spatial, she1d: (t, x)."""
        z = np.asarray(z, dtype=float)
        if self.equation == "pam3d":
            r = np.sqrt(np.sum(z ** 2, axis=-1))
            with np.errstate(divide="ignore"):
                g = np.where(r > 0, 1.0 / (4.0 * np.pi * np.maximum(r, 1e-300)), 0.0)
            return g * _smoothstep(r / self.R_G)
        return heat_kernel(z[..., 0], z[..., 1:], 1)

    def sample_factor(self, U: np.ndarray, tmax: float):
        """Map three uniforms per row of U to points z and weights G(z)/q(z).

        pam3d: radius R_G sqrt(U) with density ~ 1/r (cancels the Green
        singularity exactly inside the plateau); she1d: the heat kernel's own
        normalized density on (0, tmax) (weight tmax), t uniform and x the
        Box-Muller normal of variance 2t.  Only she1d reads tmax.
        """
        if self.equation == "pam3d":
            r = self.R_G * np.sqrt(U[:, 0])
            cost = 1.0 - 2.0 * U[:, 1]
            sint = np.sqrt(np.maximum(0.0, 1.0 - cost ** 2))
            phi = 2.0 * np.pi * U[:, 2]
            z = np.stack([r * sint * np.cos(phi), r * sint * np.sin(phi), r * cost],
                         axis=-1)
            # q(x) = 1 / (2 pi R_G^2 r)  =>  G/q = cutoff * R_G^2 / 2
            w = _smoothstep(r / self.R_G) * self.R_G ** 2 / 2.0
            return z, w
        t = U[:, 0] * tmax
        x = np.sqrt(-4.0 * t * np.log1p(-U[:, 1])) * np.cos(2.0 * np.pi * U[:, 2])
        return np.stack([t, x], axis=-1), np.full(t.shape, tmax)


def pam_green(R_G: float = 1.0) -> GreenFn:
    return GreenFn(equation="pam3d", dim=3, R_G=R_G)


def she_green() -> GreenFn:
    return GreenFn(equation="she1d", dim=2)


#: equation -> its Green's function: the equations whose constants are computed
GREENS = {"pam3d": pam_green, "she1d": she_green}


def _sample_rho2(moll: Mollifier, green: GreenFn, U: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples of rho_eps^{*2} per axis: (eps^2-time, eps-space)
    for she1d, (eps-space)^3 for pam3d."""
    e = moll.epsilon
    scales = (e, e, e) if green.equation == "pam3d" else (e ** 2, e)
    return np.stack([s * moll.bb_quantile(U[:, i]) for i, s in enumerate(scales)], axis=-1)


# -- c_eps: deterministic quadrature ----------------------------------------


def _unit_scale(moll: Mollifier, green: GreenFn) -> tuple:
    """The mollifier and G at eps = 1 with the same truncation ratio R_G/eps,
    at which every constant is computed (module docstring)."""
    return (Mollifier(epsilon=1.0, profile=moll.profile),
            replace(green, R_G=green.R_G / moll.epsilon))


def c_eps(moll: Mollifier, green: GreenFn) -> float:
    """int G rho_eps^{*2} by adaptive-resolution deterministic quadrature:
    c_1(R_G/eps) / eps (module docstring), with c_1 the quadrature at eps = 1
    for the profile and truncation ratio.
    """
    return _quadrature(*_unit_scale(moll, green), 1e-5) / moll.epsilon


@functools.cache
def _quadrature(moll: Mollifier, green: GreenFn, tol: float) -> float:
    """The pam3d or she1d rule at doubling resolutions, until two successive
    values agree to relative tol; computed once per process for each input."""
    rule, sizes = {"pam3d": (lambda n: _c_eps_pam(moll, n, green.R_G), (128, 256, 512)),
                   "she1d": (lambda n: _c_eps_she(moll, n), (256, 512, 1024))}[green.equation]
    prev = None
    for n in sizes:
        val = rule(n)
        if prev is not None and abs(val - prev) <= tol * abs(val):
            return val
        prev = val
    raise RuntimeError(f"quadrature did not converge to rel {tol}")


@functools.cache
def _pam_shells(moll: Mollifier, n_r: int) -> tuple:
    """Gauss-Legendre radii r over the support of rho2, each with its weight
    and the sphere integral int_{S^2} rho2(r w) dw.

    rho2 is a product of per-axis bb tables, so its support is the cube
    [-2 eps, 2 eps]^3: the radii run to its corners at 2 sqrt(3) eps.  G does
    not enter, so c_eps computes them once per profile and n_r, at eps = 1.
    """
    rn, rw = np.polynomial.legendre.leggauss(n_r)
    half = math.sqrt(3.0) * moll.epsilon
    n_c, n_p = 64, 128
    cn, cw = np.polynomial.legendre.leggauss(n_c)
    phi = (np.arange(n_p) + 0.5) * 2.0 * np.pi / n_p
    st = np.sqrt(1.0 - cn ** 2)
    dirs = np.stack([np.outer(st, np.cos(phi)),
                     np.outer(st, np.sin(phi)),
                     np.tile(cn[:, None], (1, n_p))], axis=-1)  # (n_c, n_p, 3)
    return tuple((rv, rwt, np.sum(moll.rho_sq_spatial(rv * dirs) * cw[:, None])
                  * (2.0 * np.pi / n_p)) for rv, rwt in zip(half * (rn + 1.0), half * rw))


def _c_eps_pam(moll: Mollifier, n_r: int, R: float) -> float:
    # (1/4pi) int_0^{2 sqrt(3) eps} r chi(r/R) [int_{S^2} rho2(r w) dw] dr
    # for G = chi(r/R) / (4 pi r)
    return sum(rwt * rv * sphere * _smoothstep(rv / R)
               for rv, rwt, sphere in _pam_shells(moll, n_r)) / (4.0 * np.pi)


def _c_eps_she(moll: Mollifier, n: int) -> float:
    # self-similar substitution t = tau^2, x = tau xi removes both the
    # t^{-1/2} singularity and the shrinking Gaussian ridge:
    #   c = int_0^{2 eps} 2 tau (4 pi)^{-1/2} bb_{e^2}(tau^2)
    #       [ int e^{-xi^2/4} bb_e(tau xi) dxi ] dtau
    e = moll.epsilon
    tn, tw = np.polynomial.legendre.leggauss(n)
    tau = e * (tn + 1.0)        # (0, 2 eps): t in (0, 4 eps^2)
    tauw = e * tw
    xi = np.linspace(-40.0, 40.0, 4 * n + 1)
    dxi = xi[1] - xi[0]
    gauss = np.exp(-xi ** 2 / 4.0)
    total = 0.0
    for tv, twt, bt in zip(tau, tauw, moll.bb(tau ** 2 / e ** 2)):
        inner = np.sum(gauss * moll.bb(tv * xi / e) / e) * dxi
        total += twt * 2.0 * tv * (4.0 * np.pi) ** -0.5 * bt / e ** 2 * inner
    return total


# -- QMC machinery ------------------------------------------------------------

#: scrambled replicates per QMC mean; the standard error is from their spread
_REPLICATES = 16
#: rows of a QMC block that fn maps at once
_BLOCK = 2048


# Joe-Kuo primitive polynomials and initial direction numbers m_1, m_2, ...
# of the first Sobol dimensions; dimension 0 has every m_i = 1
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41)
_SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
                (1, 1, 5, 5, 17), (1, 1, 5, 5, 5))
_SOBOL_BITS = 30


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, 30) direction numbers v_kj = m_kj 2^(29 - j), with m_kj from
    the dimension's polynomial x^s + a_1 x^(s-1) + ... + a_s (a_s = 1) by
    m_j = m_{j-s} ^ (XOR over i = 1..s of 2^i a_i m_{j-i})."""
    if d > len(_SOBOL_POLY):
        raise ValueError(f"Sobol points are tabulated up to {len(_SOBOL_POLY)} dimensions, "
                         f"got {d}")
    m = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for k in range(1, d):
        poly, deg = _SOBOL_POLY[k], _SOBOL_POLY[k].bit_length() - 1
        m[k, :deg] = _SOBOL_VINIT[k]
        for j in range(deg, _SOBOL_BITS):
            m[k, j] = m[k, j - deg]
            for i in range(1, deg + 1):
                if poly >> (deg - i) & 1:
                    m[k, j] ^= m[k, j - i] << i
    v = m << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))
    v.flags.writeable = False   # shared by every caller of the cache
    return v


def _sobol(d: int, m: int, seed: int) -> np.ndarray:
    """The first 2^m points of the d-dimensional Sobol sequence with linear
    matrix scrambling and a digital shift drawn from default_rng(seed): the
    points of scipy's qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)."""
    bits = np.arange(_SOBOL_BITS)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << bits)
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    # bit 29 - p of a scrambled v is the parity of sum_c ltm[p, 29 - c] bit_c(v)
    v = _sobol_directions(d)[:, :, None] >> bits & 1
    parity = np.einsum("kpc,kjc->kjp", ltm[:, :, ::-1].astype(np.int64), v) & 1
    sv = (parity @ (1 << (_SOBOL_BITS - 1 - bits))).astype(np.uint32)
    # Gray-code order: point 2^b + j is point 2^b - 1 - j with direction b flipped
    q = np.empty((1 << m, d), dtype=np.uint32)
    q[0] = shift
    for b in range(m):
        q[1 << b:2 << b] = q[(1 << b) - 1::-1] ^ sv[:, b]
    return q * 2.0 ** -_SOBOL_BITS


def _qmc_mean(fn, dim: int, n_samples: int, seed: int, threads: int = 1):
    """Randomized-QMC mean of fn(U) with scrambled Sobol replicates.

    fn maps an (n, dim) uniform block to one value per row.  Returns
    (mean, stderr).  Per-replicate seeds come from a spawned SeedSequence, so
    the result is independent of the thread count.  n_samples is the count
    run: a power of two, at least 2^6 Sobol points per replicate.
    """
    if n_samples < _REPLICATES << 6 or n_samples & (n_samples - 1):
        raise ValueError(f"QMC samples must be a power of two >= {_REPLICATES << 6}, "
                         f"got {n_samples}")
    m = (n_samples // _REPLICATES).bit_length() - 1
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(_REPLICATES)]

    def one(rep_seed):
        U = _sobol(dim, m, rep_seed)
        # row blocks keep fn's temporaries small enough for malloc to reuse
        return float(np.mean(np.concatenate([fn(U[i:i + _BLOCK])
                                             for i in range(0, len(U), _BLOCK)])))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            means = list(ex.map(one, seeds))
    else:
        means = [one(s) for s in seeds]
    means = np.asarray(means)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(_REPLICATES))


def c11_eps(moll: Mollifier, green: GreenFn, n_samples: int = 1 << 17,
            seed: int = 0, threads: int = 1):
    """The three-Green two-mollifier integral, with u = z1+z2, v = z2+z3.

    c11 = E_{u,v ~ rho2} E_{z2 ~ q} [ (G/q)(z2) G(u - z2) G(v - z2) ].
    """
    dz = green.dim
    e = moll.epsilon

    def fn(U):
        u = _sample_rho2(moll, green, U[:, :dz])
        v = _sample_rho2(moll, green, U[:, dz:2 * dz])
        z2, w = green.sample_factor(U[:, 2 * dz:], tmax=4.0 * e ** 2)
        return w * green(u - z2) * green(v - z2)

    mean, err = _qmc_mean(fn, 2 * dz + 3, n_samples, seed, threads)
    return {"value": mean, "stderr": err}


def c12_eps(moll: Mollifier, green: GreenFn, n_samples: int = 1 << 17,
            seed: int = 1, threads: int = 1):
    """The delta-subtracted integral as one mean (module docstring)."""
    dz = green.dim
    e = moll.epsilon

    def fn(U):
        w = _sample_rho2(moll, green, U[:, :dz])
        z3 = _sample_rho2(moll, green, U[:, dz:2 * dz])
        z1, wt = green.sample_factor(U[:, 2 * dz:], tmax=8.0 * e ** 2)
        return wt * green(z3) * (green(w - z1 - z3) - green(w - z1))

    mean, err = _qmc_mean(fn, 2 * dz + 3, n_samples, seed, threads)
    return {"value": mean, "stderr": err}


@dataclass
class RenormConstants:
    c_eps: float
    c11_eps: float
    c11_err: float
    c12_eps: float
    c12_err: float

    @property
    def C_eps(self) -> float:
        return self.c_eps + self.c11_eps + self.c12_eps


#: (c11, c12) results per (mollifier and G at unit scale, samples, seed); the
#: thread count never changes a result, so it is not in the key
_FINITE_PARTS = {}


def compute_constants(equation: str, eps: float,
                      n_samples: int = 1 << 16, seed: int = 0,
                      threads: int = 1) -> RenormConstants:
    """All constants for one epsilon of an equation in GREENS: 'pam3d' (G
    truncated at R_G = 1) or 'she1d'.  c11 and c12 are computed at eps = 1
    (module docstring), once per process per truncation ratio, samples, seed.
    """
    if equation not in GREENS:
        raise ValueError(f"no renormalisation constant is computed for {equation}"
                         if equation in EQUATIONS else f"unknown equation {equation!r}")
    green = GREENS[equation]()
    moll = Mollifier(epsilon=eps)
    unit = _unit_scale(moll, green)
    key = unit + (n_samples, seed)
    if key not in _FINITE_PARTS:
        _FINITE_PARTS[key] = (c11_eps(*unit, n_samples, seed, threads),
                              c12_eps(*unit, n_samples, seed + 7919, threads))
    r11, r12 = _FINITE_PARTS[key]
    return RenormConstants(c_eps=c_eps(moll, green), c11_eps=r11["value"],
                           c11_err=r11["stderr"], c12_eps=r12["value"],
                           c12_err=r12["stderr"])
