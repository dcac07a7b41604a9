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
sqrt(t)-substituted for the heat kernel).  It is exactly c_1/eps: rho2 at
scale eps is eps^-|s| rho2(./eps) at unit scale (|s| = 3 for the spatial
marginal on R^3, 2 + 1 for the space-time kernel on R), and G is homogeneous
of degree -1 in the same scaling (1/(4 pi |x|) on the plateau that holds the
support of rho2 once eps <= R_G/8; the heat kernel in the parabolic
scaling).  So the quadrature runs once per mollifier profile, at eps = 1.

c11 and the two split pieces of c12 are randomized-QMC integrals: the
mollifier factors are importance sampled exactly through per-axis inverse
CDFs of the self-convolved bump, one Green factor per integral is importance
sampled (radially with density ~ 1/|x| in the 3-d case; with the heat
kernel's own density, uniform in t and Gaussian in x, in the space-time
case), and the remaining factors are plain weights.  The standard error comes
from independent scrambled replicates.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .kernel import heat_kernel
from .noise import Mollifier

__all__ = [
    "GreenFn",
    "pam_green",
    "she_green",
    "smooth_test_green",
    "RenormConstants",
    "rho_sq",
    "c_eps",
    "c11_eps",
    "c12_eps",
    "compute_constants",
]


def _cutoff(r, R):
    """Smooth radial cutoff: 1 on [0, R/2], 0 on [R, inf)."""
    s = np.clip((np.asarray(r, dtype=float) / R - 0.5) * 2.0, 0.0, 1.0)

    def f(v):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(v > 0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)

    near = f(1.0 - s)
    return near / (near + f(s))


@dataclass
class GreenFn:
    """Green's function plus the importance sampler for one of its factors."""

    equation: str          # "pam3d" | "she1d" | "smooth"
    dim: int               # dims of one integration variable z_i
    R_G: float = 1.0       # pam3d truncation radius
    custom: callable = None
    support: tuple = None  # smooth kind: ((t_lo, t_hi), (x_lo, x_hi))

    def __call__(self, z):
        """z shape (..., dim); pam3d: purely spatial, she1d: (t, x)."""
        z = np.asarray(z, dtype=float)
        if self.equation == "pam3d":
            r = np.sqrt(np.sum(z ** 2, axis=-1))
            with np.errstate(divide="ignore"):
                g = np.where(r > 0, 1.0 / (4.0 * np.pi * np.maximum(r, 1e-300)), 0.0)
            return g * _cutoff(r, self.R_G)
        if self.equation == "she1d":
            return heat_kernel(z[..., 0], z[..., 1:], 1)
        return self.custom(z)

    def sample_factor(self, U: np.ndarray, tmax: float = None):
        """Map uniforms U (shape (n, dim)) to points z and weights G(z)/q(z).

        pam3d: radius R_G sqrt(U) with density ~ 1/r (cancels the Green
        singularity exactly inside the plateau); she1d: the heat kernel's own
        normalized density on (0, tmax) (weight tmax); smooth: uniform on the
        support box.
        """
        if self.equation == "pam3d":
            r = self.R_G * np.sqrt(U[:, 0])
            cost = 1.0 - 2.0 * U[:, 1]
            sint = np.sqrt(np.maximum(0.0, 1.0 - cost ** 2))
            phi = 2.0 * np.pi * U[:, 2]
            z = np.stack([r * sint * np.cos(phi), r * sint * np.sin(phi), r * cost],
                         axis=-1)
            # q(x) = 1 / (2 pi R_G^2 r)  =>  G/q = cutoff * R_G^2 / 2
            w = _cutoff(r, self.R_G) * self.R_G ** 2 / 2.0
            return z, w
        if self.equation == "she1d":
            t = U[:, 0] * tmax
            x = np.sqrt(2.0 * t) * ndtri(np.clip(U[:, 1], 1e-15, 1 - 1e-15))
            z = np.stack([t, x], axis=-1)
            return z, np.full(t.shape, tmax)
        (t0, t1), (x0, x1) = self.support
        t = t0 + (t1 - t0) * U[:, 0]
        x = x0 + (x1 - x0) * U[:, 1]
        z = np.stack([t, x], axis=-1)
        vol = (t1 - t0) * (x1 - x0)
        return z, self(z) * vol


def pam_green(R_G: float = 1.0) -> GreenFn:
    return GreenFn(equation="pam3d", dim=3, R_G=R_G)


def she_green() -> GreenFn:
    return GreenFn(equation="she1d", dim=2)


def smooth_test_green(fn, support) -> GreenFn:
    """Spacetime test Green's function, smooth at the origin (diagnostics)."""
    return GreenFn(equation="smooth", dim=2, custom=fn, support=support)


def rho_sq(moll: Mollifier, green: GreenFn):
    """Evaluator of the self-convolution rho_eps^{*2} matching the equation:
    spatial marginal for pam3d (3 arguments), space-time for she1d."""
    if green.equation == "pam3d":
        return lambda x: moll.rho_sq_spatial(np.asarray(x))
    return lambda z: moll.rho_sq(np.asarray(z)[..., 0], np.asarray(z)[..., 1:])


def _moll_inv_cdf(moll: Mollifier):
    gs, cdf = moll.bb_cdf()
    return lambda U: np.interp(U, cdf, gs)


def _sample_rho_sq(moll: Mollifier, green: GreenFn, U: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples of rho_eps^{*2} per axis: (eps^2-time, eps-space)
    for she1d, (eps-space)^3 for pam3d."""
    inv = _moll_inv_cdf(moll)
    e = moll.epsilon
    if green.equation == "pam3d":
        return e * np.stack([inv(U[:, i]) for i in range(3)], axis=-1)
    return np.stack([e ** 2 * inv(U[:, 0]), e * inv(U[:, 1])], axis=-1)


# -- c_eps: deterministic quadrature ----------------------------------------


def c_eps(moll: Mollifier, green: GreenFn) -> float:
    """int G rho_eps^{*2} by adaptive-resolution deterministic quadrature.

    For pam3d and she1d this is c_1 / eps (module docstring), with c_1 the
    quadrature at eps = 1 for the mollifier's profile, cached per process.
    The pam3d rule never reads R_G: it uses the exact 1/(4 pi |x|) of the
    plateau, which the eps <= R_G/8 check keeps valid.
    """
    e = moll.epsilon
    if green.equation == "pam3d" and e > green.R_G / 8.0 + 1e-12:
        raise ValueError(f"eps = {e} too large for truncation radius {green.R_G}")
    if green.equation in ("pam3d", "she1d"):
        return _unit_c(green.equation, moll.profile) / e
    # smooth test kind: plain tensor rule on the rho^2 support
    ts = np.linspace(-2 * e ** 2, 2 * e ** 2, 801)
    xs = np.linspace(-2 * e, 2 * e, 801)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    z = np.stack([tt, xx], axis=-1)
    vals = green(z) * moll.rho_sq(tt, xx[..., None])
    return float(np.trapezoid(np.trapezoid(vals, xs, axis=1), ts))


@functools.cache
def _unit_c(equation: str, profile: str) -> float:
    """c at eps = 1 to relative 1e-5, computed once per process for each profile."""
    return _quadrature(Mollifier(epsilon=1.0, profile=profile), equation, 1e-5)


def _quadrature(moll: Mollifier, equation: str, tol: float) -> float:
    """The pam3d or she1d rule at doubling resolutions, until two successive
    values agree to relative tol."""
    rule, sizes = {"pam3d": (_c_eps_pam, (128, 256, 512)),
                   "she1d": (_c_eps_she, (256, 512, 1024))}[equation]
    prev = None
    for n in sizes:
        val = rule(moll, n)
        if prev is not None and abs(val - prev) <= tol * abs(val):
            return val
        prev = val
    raise RuntimeError(f"quadrature did not converge to rel {tol}")


def _pam_shells(moll: Mollifier, n_r: int):
    """Gauss-Legendre radii r over the support of rho2, each with its weight
    and the sphere integral int_{S^2} rho2(r w) dw.

    rho2 is a product of per-axis bb tables, so its support is the cube
    [-2 eps, 2 eps]^3: the radii run to its corners at 2 sqrt(3) eps.
    """
    e = moll.epsilon
    rn, rw = np.polynomial.legendre.leggauss(n_r)
    half = math.sqrt(3.0) * e
    n_c, n_p = 64, 128
    cn, cw = np.polynomial.legendre.leggauss(n_c)
    phi = (np.arange(n_p) + 0.5) * 2.0 * np.pi / n_p
    st = np.sqrt(1.0 - cn ** 2)
    dirs = np.stack([np.outer(st, np.cos(phi)),
                     np.outer(st, np.sin(phi)),
                     np.tile(cn[:, None], (1, n_p))], axis=-1)  # (n_c, n_p, 3)
    for rv, rwt in zip(half * (rn + 1.0), half * rw):
        vals = moll.rho_sq_spatial(rv * dirs)
        yield rv, rwt, np.sum(vals * cw[:, None]) * (2.0 * np.pi / n_p)


def _c_eps_pam(moll: Mollifier, n_r: int) -> float:
    # (1/4pi) int_0^{2 sqrt(3) eps} r [int_{S^2} rho2(r w) dw] dr  (G exact
    # there, since 2 sqrt(3) eps <= R_G/2)
    return sum(rwt * rv * sphere for rv, rwt, sphere in _pam_shells(moll, n_r)) / (4.0 * np.pi)


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
    for tv, twt in zip(tau, tauw):
        inner = np.sum(gauss * moll.bb(tv * xi / e) / e) * dxi
        total += twt * 2.0 * tv * (4.0 * np.pi) ** -0.5 \
            * moll.bb(tv ** 2 / e ** 2) / e ** 2 * inner
    return total


# -- QMC machinery ------------------------------------------------------------

#: scrambled replicates per QMC mean; the standard error is from their spread
_REPLICATES = 16


def _qmc_mean(fn, dim: int, n_samples: int, seed: int, threads: int = 1):
    """Randomized-QMC mean of fn(U) with scrambled Sobol replicates.

    fn maps an (n, dim) uniform block to one value per row.  Returns
    (mean, stderr).  Per-replicate seeds come from a spawned SeedSequence, so
    the result is independent of the thread count.
    """
    m = max(6, int(math.ceil(math.log2(max(2, n_samples // _REPLICATES)))))
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(_REPLICATES)]

    def one(rep_seed):
        eng = qmc.Sobol(d=dim, scramble=True, seed=rep_seed)
        U = eng.random_base2(m=m)
        return float(np.mean(fn(U)))

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
        u = _sample_rho_sq(moll, green, U[:, :dz])
        v = _sample_rho_sq(moll, green, U[:, dz:2 * dz])
        tmax = 4.0 * e ** 2 if green.equation != "pam3d" else None
        z2, w = green.sample_factor(U[:, 2 * dz:], tmax=tmax)
        return w * green(u - z2) * green(v - z2)

    mean, err = _qmc_mean(fn, 3 * dz, n_samples, seed, threads)
    return {"value": mean, "stderr": err}


def c12_eps(moll: Mollifier, green: GreenFn, c_eps_value: float,
            n_samples: int = 1 << 17, seed: int = 1, threads: int = 1):
    """Split evaluation of the delta-subtracted integral.

    piece A = int G(z1) G(z2) G(z3) rho2(z3) rho2(z1+z2+z3)
            = E_{w, z3 ~ rho2} E_{z1 ~ q} [ (G/q)(z1) G(w - z1 - z3) G(z3) ],
    piece B = c_eps * int G(z1) G(z2) rho2(z1+z2)
            = c_eps * E_{u ~ rho2} E_{z1 ~ q} [ (G/q)(z1) G(u - z1) ],
    value = A - B; pieces reported separately.
    """
    dz = green.dim
    e = moll.epsilon

    def fn_a(U):
        w = _sample_rho_sq(moll, green, U[:, :dz])
        z3 = _sample_rho_sq(moll, green, U[:, dz:2 * dz])
        tmax = 8.0 * e ** 2 if green.equation != "pam3d" else None
        z1, wt = green.sample_factor(U[:, 2 * dz:], tmax=tmax)
        return wt * green(w - z1 - z3) * green(z3)

    def fn_b(U):
        u = _sample_rho_sq(moll, green, U[:, :dz])
        tmax = 4.0 * e ** 2 if green.equation != "pam3d" else None
        z1, wt = green.sample_factor(U[:, dz:], tmax=tmax)
        return wt * green(u - z1)

    a, a_err = _qmc_mean(fn_a, 3 * dz, n_samples, seed, threads)
    b, b_err = _qmc_mean(fn_b, 2 * dz, n_samples, seed + 1, threads)
    b, b_err = c_eps_value * b, abs(c_eps_value) * b_err
    return {
        "value": a - b,
        "stderr": float(np.hypot(a_err, b_err)),
        "piece_product": a,
        "piece_delta": b,
    }


@dataclass
class RenormConstants:
    epsilon: float
    c_eps: float
    c11_eps: float
    c11_err: float
    c12_eps: float
    c12_err: float
    samples: int

    @property
    def C_eps(self) -> float:
        return self.c_eps + self.c11_eps + self.c12_eps


def compute_constants(equation: str, eps: float,
                      n_samples: int = 1 << 16, seed: int = 0, threads: int = 1,
                      R_G: float = 1.0) -> RenormConstants:
    """All constants for one epsilon; equation is 'pam3d' or 'she1d'."""
    if equation == "pam3d":
        green = pam_green(R_G)
    elif equation == "she1d":
        green = she_green()
    else:
        raise ValueError(f"unknown equation {equation!r}")
    moll = Mollifier(epsilon=eps)
    c = c_eps(moll, green)
    r11 = c11_eps(moll, green, n_samples, seed, threads)
    r12 = c12_eps(moll, green, c, n_samples, seed + 7919, threads)
    return RenormConstants(epsilon=eps, c_eps=c,
                           c11_eps=r11["value"], c11_err=r11["stderr"],
                           c12_eps=r12["value"], c12_err=r12["stderr"],
                           samples=n_samples)
