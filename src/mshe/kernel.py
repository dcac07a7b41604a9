"""Heat kernel and its dyadic decomposition P = sum_n P_n + P_-.

The base piece is built as a telescoped annular localization of P with a
moment correction:

    P_0(z) = (G - Q)(z) - 2^d (G - Q)(2^2 t, 2 x),

where G = P * chi(N(z)) localizes the heat kernel to the unit parabolic ball
through the smooth parabolic gauge N(t,x) = (t^2 + |x|^4)^{1/4}, and Q is a
smooth, compactly supported, even-in-x correction with the same monomial
moments as G up to scaled degree r.  Setting P_n(t,x) = 2^{nd} P_0(2^{2n}t,
2^n x) makes the scaling identity hold by definition, the telescope gives

    sum_{n>=0} P_n = P * chi(N) - Q        pointwise off the origin,

so the smooth remainder is P_- = P (1 - chi(N)) + Q, and the moments satisfy
int P_0 z^k dz = (1 - 2^{-(2+|k|)}) (int G z^k - int Q z^k) = 0 exactly for
every scaled degree |k| <= r.

Q is assembled from tensor products of per-axis dual bumps (theta_a with
int theta_a(s) s^b ds = delta_ab, solved from a small moment Gram system);
the time-axis bumps are supported in (0, 1), which keeps P_0(t<=0) = 0.
Moments of G, and of the annular heat-kernel piece of P_0, are computed by
Gauss-Legendre in time and a fine trapezoid in the self-similar variable
x = sqrt(t) u, in which the gauge is exactly sqrt(t) (1 + |u|^4)^{1/4}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product as _iproduct

import numpy as np

from .noise import exp_bump

__all__ = ["heat_kernel", "KernelDecomposition", "decompose"]


def heat_kernel(t, x, d: int):
    """(4 pi t)^{-d/2} exp(-|x|^2 / 4t) for t > 0, zero for t <= 0.

    x has shape (..., d) (a trailing scalar is fine for d = 1).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == t.ndim:
        x = x[..., None]
    r2 = np.sum(x ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = (4.0 * np.pi * t) ** (-d / 2.0) * np.exp(-r2 / (4.0 * t))
    return np.where(t > 0.0, np.nan_to_num(val, posinf=0.0), 0.0)


def _smoothstep(s):
    """C^infinity step: 1 on (-inf, 1/2], 0 on [1, inf)."""
    s = np.asarray(s, dtype=float)
    u = np.clip(2.0 * (1.0 - s), 0.0, 1.0)

    def f(v):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(v > 0.0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)

    fu, fmu = f(u), f(1.0 - u)
    return fu / (fu + fmu)


def _gauge(t, x):
    """Parabolic gauge N(t, x) = (t^2 + |x|^4)^{1/4}; 1-homogeneous under
    (t, x) -> (lam^2 t, lam x) and comparable to the sup norm."""
    r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    return (np.asarray(t, dtype=float) ** 2 + r2 ** 2) ** 0.25


def _bump(u, lo, hi):
    """Smooth bump on (lo, hi), unnormalized."""
    return exp_bump((2.0 * np.asarray(u, dtype=float) - (lo + hi)) / (hi - lo))


class _DualAxis:
    """Per-axis dual functions theta_a, int theta_a(s) s^b ds = delta_ab."""

    def __init__(self, order: int, lo: float, hi: float):
        self.order = order
        self.lo, self.hi = lo, hi
        nodes, weights = np.polynomial.legendre.leggauss(400)
        s = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        w = 0.5 * (hi - lo) * weights * _bump(s, lo, hi)
        gram = np.array([[np.sum(w * s ** (a + b)) for b in range(order + 1)]
                         for a in range(order + 1)])
        self.cond = float(np.linalg.cond(gram))
        if self.cond > 1e12:
            raise RuntimeError(
                f"moment-correction system singular (cond = {self.cond:.3e})")
        self.coeffs = np.linalg.solve(gram, np.eye(order + 1))

    def theta(self, a: int, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        base = _bump(u, self.lo, self.hi)
        for b in range(self.order + 1):
            out += self.coeffs[b, a] * u ** b
        return out * base


def _scaled_degree(k) -> int:
    return 2 * k[0] + sum(k[1:])


@dataclass
class KernelDecomposition:
    """Evaluators for P_0, P_n and the smooth remainder P_-."""

    d: int
    r: int
    lambdas: dict            # multi-index -> moment of G
    time_axis: _DualAxis = field(repr=False, default=None)
    space_axis: _DualAxis = field(repr=False, default=None)
    cond: float = 0.0

    # -- building blocks ----------------------------------------------------

    def _G(self, t, x):
        return heat_kernel(t, x, self.d) * _smoothstep(_gauge(t, x))

    def _Q(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == t.ndim:
            x = x[..., None]
        out = np.zeros(np.broadcast(t, x[..., 0]).shape)
        for k, lam in self.lambdas.items():
            term = lam * self.time_axis.theta(k[0], t)
            for i in range(self.d):
                term = term * self.space_axis.theta(k[1 + i], x[..., i])
            out = out + term
        return out

    def _gm(self, t, x):
        """G - Q at t and x (shape (..., d)) that broadcast: a time column and
        a space row give the mesh, and Q is a sum of separable products."""
        return self._G(t, x) - self._Q(t, x)

    # -- public evaluators ---------------------------------------------------

    def p0(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return self._gm(t, x) - 2 ** self.d * self._gm(4.0 * t, 2.0 * x)

    def pn(self, n: int, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return 2.0 ** (n * self.d) * self.p0(4.0 ** n * t, 2.0 ** n * x)

    def pminus(self, t, x):
        """P (1 - chi(N)) + Q: smooth, bounded with all derivatives."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return (heat_kernel(t, x, self.d) * (1.0 - _smoothstep(_gauge(t, x)))
                + self._Q(t, x))

    def reassemble(self, t, x, n_max: int = 12):
        """sum_{n <= n_max} P_n + P_-; equals P off the origin once n_max
        exceeds the dyadic depth of the evaluation point."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = self.pminus(t, x)
        for n in range(n_max + 1):
            out = out + self.pn(n, t, x)
        return out

    # -- diagnostics ----------------------------------------------------------

    def moment_residual(self, k) -> float:
        """|int P_0 z^k dz| / int |P_0|, with quadratures adapted per piece.

        P_0 = P [chi(N) - chi(2N)] - Q_diff.  The heat-kernel piece is the
        radial moment of the annular cutoff (``_radial_moment``), which
        resolves the small-t Gaussian ridge that defeats a plain tensor rule;
        the fixed-scale compactly supported Q_diff piece takes a plain tensor
        rule.
        """
        v1 = _radial_moment(k, self.d, lambda s: _smoothstep(s) - _smoothstep(2.0 * s),
                            n_t=160)

        # Q is a tensor product, so its moment reduces exactly to 1-d dual
        # moments (fine trapezoid; Gauss-Legendre stalls on the flat bumps)
        st = np.linspace(0.0, 1.0, 20001)
        sx = np.linspace(-1.0, 1.0, 20001)
        theta_t = {a: np.trapezoid(self.time_axis.theta(a, st) * st ** k[0], st)
                   for a in range(self.r // 2 + 1)}
        theta_x = {}
        for a in range(self.r + 1):
            th = self.space_axis.theta(a, sx)
            theta_x[a] = [np.trapezoid(th * sx ** b, sx) for b in range(self.r + 1)]
        q_mom = 0.0
        for j, lam in self.lambdas.items():
            term = lam * theta_t[j[0]]
            for i in range(self.d):
                term *= theta_x[j[1 + i]][k[1 + i]]
            q_mom += term
        v2 = (1.0 - 2.0 ** -(2 + _scaled_degree(k))) * q_mom

        return abs(v1 - v2) / self._abs_mass

    @functools.cached_property
    def _abs_mass(self) -> float:
        """int |P_0| by a moderate tensor rule (normalizer only)."""
        n = {1: 1601, 2: 201, 3: 41}[self.d]
        ts = np.linspace(0.0, 1.0, n)
        xs = np.linspace(-1.0, 1.0, n)
        Xg = np.meshgrid(*([xs] * self.d), indexing="ij")
        X = np.stack(Xg, axis=-1)
        dx = (xs[1] - xs[0]) ** self.d
        dt = ts[1] - ts[0]
        tot = 0.0
        for tv in ts:
            w = dt * (0.5 if tv in (ts[0], ts[-1]) else 1.0)
            tot += w * np.sum(np.abs(self.p0(np.full(X.shape[:-1], tv), X))) * dx
        return tot


def _moment_indices(d: int, r: int):
    out = []
    for k0 in range(r // 2 + 1):
        for kx in _iproduct(*(range(r + 1) for _ in range(d))):
            if 2 * k0 + sum(kx) <= r:
                out.append((k0,) + kx)
    return out


def _sphere_moment(kx) -> float:
    """int_{S^{d-1}} prod omega_i^{k_i} domega for even multi-indices."""
    num = 2.0
    tot = 0.0
    for ki in kx:
        num *= math.gamma((ki + 1) / 2.0)
        tot += ki + 1
    return num / math.gamma(tot / 2.0)


def _radial_moment(k, d: int, chi, n_t: int) -> float:
    """int P(z) chi(N(z)) z^k dz over 0 < t < 1 through the self-similar
    radial reduction

        (4 pi)^{-d/2} A_{k'} int_0^1 t^{k0 + |k'|/2}
            [ int_0^inf e^{-rho^2/4} rho^{|k'| + d - 1} chi(sqrt(t) nu(rho)) drho ] dt,

    with nu(rho) = (1 + rho^4)^{1/4} and A_{k'} the sphere moment; a radial
    cutoff chi makes this exact, and it vanishes for odd k'.  n_t-point
    Gauss-Legendre in t, fine trapezoid in rho (the integrand is smooth and
    decays super-exponentially).
    """
    kx = k[1:]
    if any(ki % 2 for ki in kx):
        return 0.0
    tn, tw = np.polynomial.legendre.leggauss(n_t)
    rho = np.linspace(0.0, 50.0, 16001)
    nu = (1.0 + rho ** 4) ** 0.25
    radial = np.exp(-rho ** 2 / 4.0) * rho ** (sum(kx) + d - 1)
    drho = rho[1] - rho[0]
    tot = 0.0
    for tv, twt in zip(0.5 * (tn + 1.0), 0.5 * tw):
        inner = np.trapezoid(radial * chi(np.sqrt(tv) * nu), dx=drho)
        tot += twt * tv ** (k[0] + sum(kx) / 2.0) * inner
    return float((4.0 * np.pi) ** (-d / 2.0) * _sphere_moment(kx) * tot)


def decompose(d: int, r: int = 3) -> KernelDecomposition:
    """Build the dyadic decomposition with vanishing moments up to scaled
    degree r.  Requires r >= 2 and d in {1, 2, 3}."""
    if r < 2:
        raise ValueError(f"moment order r must be >= 2, got {r}")
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    time_axis = _DualAxis(order=r // 2, lo=0.05, hi=0.95)
    space_axis = _DualAxis(order=r, lo=-0.9, hi=0.9)
    # the moments of G = P chi(N), even in every space axis
    moments = {k: _radial_moment(k, d, _smoothstep, n_t=128) for k in _moment_indices(d, r)}
    lambdas = {k: v for k, v in moments.items() if v != 0.0}
    dec = KernelDecomposition(d=d, r=r, lambdas=lambdas,
                              time_axis=time_axis, space_axis=space_axis,
                              cond=max(time_axis.cond, space_axis.cond))
    return dec
