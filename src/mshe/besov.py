"""Weighted Besov-type norms from wavelet pyramids, and weight families.

The norm of a distribution xi with coefficients <xi, psi^n_{t,x}> over the
dyadic parabolic lattices is

    max_n  sup_t  ( sum_x 2^{-nd} | <xi, psi^n_{t,x}> / (w(x) 2^{-n|s|/2 - n a}) |^p )^{1/p}

plus the scaling-coefficient term at the coarsest level; p = infinity is the
corresponding sup.  Spatial (isotropic) pyramids use |s| -> d.

Weight families: polynomial p_a(x) = (1+|x|)^a, exponential
e_l(x) = exp(l(1+|x|)), the model weight (1+|x|)^{c(1-kappa)/28}, and the
two time-increasing solution families

    w1_t(x, z) = (1+|x|)^{c z / 14} e^{(t+l)(1+|x|)},
    w2_t(x, z) = (1+|x|)^{c (z+3) / 14} e^{(t+l)(1+|x|)},

indexed by a homogeneity z.  ``check_assumption_w`` verifies the ratio,
domination and comparison inequalities these families must satisfy on sampled
grids and reports worst-case margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .structure import StructureParams, build_structure

__all__ = [
    "Weight",
    "polynomial_weight",
    "exponential_weight",
    "model_weight",
    "SolutionWeights",
    "besov_norm",
    "level_norm",
    "level_aggregate",
    "scaling_dim",
    "check_weight",
    "check_assumption_w",
    "dirac_membership",
    "dirac_norm_growth",
]


@dataclass
class Weight:
    """Positive radial weight w(|x|); log_fn maps the radius array to log w.

    Evaluations go through the log to stay finite for exponential families on
    large boxes; __call__ exponentiates.
    """

    log_fn: callable

    def __call__(self, r):
        return np.exp(self.log_fn(np.asarray(r, dtype=float)))

    def log(self, r):
        return self.log_fn(np.asarray(r, dtype=float))


def polynomial_weight(a: float) -> Weight:
    return Weight(lambda r: a * np.log1p(r))


def exponential_weight(ell: float) -> Weight:
    return Weight(lambda r: ell * (1.0 + r))


def model_weight(c: float, kappa: float) -> Weight:
    return polynomial_weight(c * (1.0 - kappa) / 28.0)


@dataclass
class SolutionWeights:
    """The pair w1/w2 of homogeneity-indexed, time-increasing weights."""

    c: float
    kappa: float
    ell: float = 0.0

    def log_w(self, i: int, t, r, zeta):
        power = self.c * (np.asarray(zeta, dtype=float) + 3.0 * (i - 1)) / 14.0
        r = np.asarray(r, dtype=float)
        return power * np.log1p(r) + (np.asarray(t) + self.ell) * (1.0 + r)

    def log_w_pi(self, r):
        return model_weight(self.c, self.kappa).log(r)

    def log_w_t(self, t, r, zetas):
        """log of inf over i and the homogeneity set of w^{(i)}_t(x, zeta)."""
        vals = [self.log_w(i, t, r, z) for i in (1, 2) for z in zetas]
        return np.minimum.reduce(vals)


# -- norms -------------------------------------------------------------------


def scaling_dim(d: int, spacetime: bool) -> int:
    """The parabolic |s| of d space dimensions: d + 2 with a time axis."""
    return d + 2 if spacetime else d


def _aggregate(arr, n: int, d: int, p: float, wvals, reduce) -> float:
    """l^p over the d trailing (space) axes of arr at the level-n cell volume
    2^{-nd}, with the weight wvals (None for 1) divided out, then reduced
    over the time rows: np.max for norms, np.mean of the p-th powers for
    estimators (unbiased for stationary fields).  The rows are summed
    C-ordered, as row sums round by memory layout.  When a row's sum of p-th
    powers underflows to 0 or overflows while its largest entry is a
    positive float (large p), the powers are taken relative to the array's
    largest entry, which is multiplied back after the root."""
    scaled = np.abs(np.ascontiguousarray(arr)) / (1.0 if wvals is None else wvals)
    if math.isinf(p):
        return float(np.max(scaled))
    axes = tuple(range(arr.ndim - d, arr.ndim))
    agg_p = 2.0 ** (-n * d) * np.sum(scaled ** p, axis=axes)
    lost = (agg_p == 0) | (agg_p == math.inf)
    if np.any(lost):
        top = np.max(scaled, axis=axes)
        if np.any(lost & (top > 0) & (top < math.inf)):
            m = np.max(top)
            return float(m * reduce(2.0 ** (-n * d) * np.sum((scaled / m) ** p, axis=axes))
                         ** (1.0 / p))
    return float(reduce(agg_p) ** (1.0 / p))


def level_norm(arr, n: int, alpha: float, p: float, spacetime: bool, wvals) -> float:
    """The weighted level-n norm of an array of level-n coefficients (time
    axis first when spacetime),

        sup_t ( sum_x 2^{-nd} | arr / (w(x) 2^{-n|s|/2 - n alpha}) |^p )^{1/p},

    with wvals the weight at the lattice points, or None for w = 1.  Raises
    FloatingPointError, naming the level and alpha, when the norm is not a
    finite number or the normaliser is not a normal float."""
    d = arr.ndim - spacetime
    log2_normaliser = -n * scaling_dim(d, spacetime) / 2.0 - n * alpha
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        agg = _aggregate(arr, n, d, p, wvals, np.max)
    if -1022.0 <= log2_normaliser < 1024.0:
        norm = agg / 2.0 ** log2_normaliser
        if math.isfinite(norm):
            return norm
    raise FloatingPointError(f"the level-{n} norm at alpha = {alpha:g}, p = {p:g} is "
                             f"outside the floating-point range")


def level_aggregate(pyr, n: int) -> float:
    """Level-n l^2 aggregate without the 2^{-n|s|/2 - n alpha} normalization:
    squares averaged over tensor combinations and time rows (the regularity
    estimator's mean, which avoids the small-sample maximum bias at coarse
    levels)."""
    per = [_aggregate(arr, n, pyr.d, 2.0, None, np.mean) for arr in pyr.levels[n].values()]
    return float(np.mean(np.asarray(per) ** 2.0) ** 0.5)


def besov_norm(pyr, alpha: float, p: float = 2.0, weight: Weight = None) -> float:
    """Weighted Besov norm of the distribution behind a coefficient pyramid:
    the max over the wavelet levels and the coarsest scaling term."""
    if not pyr.levels:
        raise ValueError("empty pyramid")
    terms = [(n, pyr.levels[n].values()) for n in sorted(pyr.levels)]
    terms.append((pyr.n_min, [pyr.phi_level]))
    norms = []
    for n, arrays in terms:
        wvals = None
        if weight is not None:  # at the radii of the level-n lattice
            grids = np.meshgrid(*([pyr.xs(n)] * pyr.d), indexing="ij")
            # a weight past the float range is inf, which only zeroes its terms
            with np.errstate(over="ignore"):
                wvals = weight(np.sqrt(sum(g ** 2 for g in grids)))
        norms += [level_norm(arr, n, alpha, p, pyr.spacetime, wvals) for arr in arrays]
    return max(norms)


# -- weight validators -------------------------------------------------------


def check_weight(w: Weight, box: float = 100.0, n_samples: int = 512) -> dict:
    """Estimate sup_{|x-y|<=1} w(x)/w(y) on [0, box] and test stability
    under a tenfold box enlargement.  Works on log-ratios so exponential
    families on large boxes never overflow."""

    def sup_log_ratio(b):
        # dense near the origin where polynomial ratios peak, log-spaced out
        r = np.concatenate([np.linspace(0.0, min(4.0, b), n_samples // 2),
                            np.geomspace(max(1e-3, min(4.0, b)), b, n_samples // 2)])
        best = 0.0
        for dlt in np.linspace(-1.0, 1.0, 41):
            r2 = np.clip(r + dlt, 0.0, None)
            best = max(best, float(np.max(w.log(r) - w.log(r2))))
        return best

    c1 = sup_log_ratio(box)
    c2 = sup_log_ratio(box * 10.0)
    ok = np.isfinite(c2) and c2 <= c1 * 1.05 + 1e-9
    return {"ok": bool(ok), "C_est": float(np.exp(c2)) if c2 < 700 else float("inf")}


def check_assumption_w(kappa: float, c: float = None, ell: float = 0.0,
                       T: float = 1.0, d: int = 3,
                       interpretation: str = "extend") -> dict:
    """Numerical verification of the ratio/domination/comparison conditions
    for the concrete weight family, on sampled grids.

    interpretation controls how weights are evaluated on symbols carrying the
    extra noise factor: 'extend' reads w(x, tau*Xi) as w(x, tau) (the equality
    condition then holds by definition); 'strict' evaluates the weight formula
    at the actual homogeneity of tau*Xi.
    """
    if interpretation not in ("extend", "strict"):
        raise ValueError("interpretation must be 'extend' or 'strict'")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    if c is None:
        c = kappa / 4.0
    params = StructureParams(kappa=kappa, d=d)
    rs = build_structure(params)
    alpha = params.alpha.value(kappa)
    gamma_prime = params.gamma.value(kappa) + alpha + 2.0 - c
    u_homs = sorted({s.homogeneity.value(kappa) for s in rs.symbols_U
                     if s.homogeneity.value(kappa) < gamma_prime})
    # the scaled degrees |k| = 2 k_0 + k_1 + ... + k_d of the monomials X^k
    # below gamma': every integer in [0, gamma')
    k_degs = range(math.ceil(gamma_prime))
    sw = SolutionWeights(c=c, kappa=kappa, ell=ell)

    r = np.concatenate([np.linspace(0, 10, 64), np.geomspace(10.5, 1e3, 64)])
    times = np.linspace(0.0, T, 6)
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(16):
        s, t = np.sort(rng.uniform(-1.0, T, size=2))
        if t - s < 1e-3:
            t = min(T, s + 0.1)
        pairs.append((s, t))

    report = {"interpretation": interpretation, "c": c, "kappa": kappa,
              "ell": ell, "T": T, "conditions": {}}

    def zeta_eval(zu):
        # effective homogeneity at which w(., tau*Xi) is evaluated
        return zu if interpretation == "extend" else zu + alpha

    family = (1, 2)
    log_w = sw.log_w
    # W-0: bounded ratios at unit distance
    worst = max((check_weight(Weight(partial(log_w, i, t, zeta=z)), box=50.0,
                              n_samples=128)["C_est"]
                 for i, t, z in product(family, times, u_homs)), default=1.0)
    report["conditions"]["W-0"] = {"ok": bool(np.isfinite(worst)), "K_est": worst}

    # W-1: w_pi^2 w_s / w_t <= K (t-s)^{-c/2}, estimated in log space
    log_wt = {t: sw.log_w_t(t, r, u_homs) for _, t in pairs}
    logK1 = max((float(np.max(2 * sw.log_w_pi(r) + log_w(i, s, r, z) - log_wt[t]))
                 + (c / 2.0) * np.log(t - s)
                 for (s, t), i, z in product(pairs, family, u_homs)), default=-np.inf)
    K1 = float(np.exp(logK1))
    report["conditions"]["W-1"] = {"ok": bool(np.isfinite(K1)), "K_est": K1}

    # W-2: w_i(t, x, tau) <= w_i(t, x, I(tau Xi)), margin in log
    m2 = min((float(np.min(log_w(i, t, r, zu + alpha + 2.0) - log_w(i, t, r, zu)))
              for i, t, zu in product(family, times, u_homs)), default=np.inf)
    report["conditions"]["W-2"] = {"ok": bool(m2 >= -1e-12), "min_log_margin": m2}

    # W-3: w_pi * w_i(tau Xi) <= w_i(X^k) whenever |tau| + alpha <= |k| - 2
    cases3 = [(i, t, zu, kd) for i, t, zu, kd in product(family, times, u_homs, k_degs)
              if zu + alpha <= kd - 2.0 + 1e-9]
    m3 = min((float(np.min(log_w(i, t, r, float(kd)) - sw.log_w_pi(r)
                           - log_w(i, t, r, zeta_eval(zu))))
              for i, t, zu, kd in cases3), default=np.inf)
    report["conditions"]["W-3"] = {"ok": bool(m3 >= -1e-9), "min_log_margin": m3,
                                   "pairs_checked": len(cases3)}

    # W-4: w_pi * w_1(tau Xi) <= w_2(X^k), all k with |k| < gamma'
    m4 = min((float(np.min(log_w(2, t, r, float(kd)) - sw.log_w_pi(r)
                           - log_w(1, t, r, zeta_eval(zu))))
              for t, zu, kd in product(times, u_homs, k_degs)), default=np.inf)
    report["conditions"]["W-4"] = {"ok": bool(m4 >= -1e-9), "min_log_margin": m4}

    # W-5: w_i(x, tau Xi) = w_i(x, tau)
    if interpretation == "extend":
        report["conditions"]["W-5"] = {"ok": True, "max_abs_log": 0.0,
                                       "note": "holds by definition under 'extend'"}
    else:
        dev = max((float(np.max(np.abs(log_w(i, t, r, zu + alpha) - log_w(i, t, r, zu))))
                   for i, t, zu in product(family, times, u_homs)), default=0.0)
        report["conditions"]["W-5"] = {"ok": bool(dev < 1e-12), "max_abs_log": dev}

    # increasing in time
    inc = min((float(np.min(log_w(i, t2, r, zu) - log_w(i, t1, r, zu)))
               for i, zu, (t1, t2) in product(family, u_homs, zip(times[:-1], times[1:]))),
              default=np.inf)
    report["conditions"]["time-increasing"] = {"ok": bool(inc >= -1e-12),
                                               "min_log_margin": inc}
    report["ok"] = all(v["ok"] for v in report["conditions"].values())
    return report


# -- Dirac membership --------------------------------------------------------


def dirac_membership(d: int, p: float, eta: float) -> bool:
    """Whether the Dirac mass lies in the spatial Besov space of regularity
    eta and integrability p: eta < -d + d/p (strict)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    dp = 0.0 if math.isinf(p) else d / p
    return eta < -d + dp


def dirac_norm_growth(d: int, p: float, eta: float, basis, exponents) -> list:
    """Spatial Besov norms of the grid Dirac on the unit box at increasing
    resolution.

    exponents are grid exponents (N = 2**e); returns one norm per resolution.
    Bounded sequence <=> membership (off the boundary line).
    """
    from .noise import Field, Grid
    from .wavelet import analyze

    norms = []
    for e in exponents:
        N = 2 ** e
        dx = 1.0 / N
        vals = np.zeros((N,) * d)
        vals[(N // 2,) * d] = dx ** -d
        pyr = analyze(Field(grid=Grid(d=d, L=1.0, N=N), values=vals), basis, 0, e - 2)
        norms.append(besov_norm(pyr, eta, p))
    return norms
