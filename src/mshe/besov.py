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

import numpy as np

from fractions import Fraction

from .structure import Homogeneity, StructureParams, build_structure

__all__ = [
    "Weight",
    "polynomial_weight",
    "exponential_weight",
    "model_weight",
    "SolutionWeights",
    "besov_norm",
    "level_aggregate",
    "row_aggregate",
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
    a = c * (1.0 - kappa) / 28.0
    return Weight(lambda r: a * np.log1p(r))


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

    def weight_at(self, i: int, t: float, zeta: float) -> Weight:
        return Weight(lambda r: self.log_w(i, t, r, zeta))


# -- norms -------------------------------------------------------------------


def _lattice_radii(pyr, n) -> np.ndarray:
    lat = pyr.lattice(n)
    xs = lat.xs
    if pyr.d == 1:
        return np.abs(xs)
    grids = np.meshgrid(*([xs] * pyr.d), indexing="ij")
    return np.sqrt(sum(g ** 2 for g in grids))


def row_aggregate(arr, wvals, vol, p, reduce="max"):
    """l^p-in-x aggregate with cell volume vol, weight divided out.

    arr has the time axis first for space-time pyramids (absent for spatial).
    reduce='max' takes the sup over time rows (norm semantics); 'mean'
    averages the p-th powers over rows (estimator semantics, unbiased for
    stationary fields).
    """
    scaled = np.abs(arr) / wvals
    if math.isinf(p):
        return float(np.max(scaled))
    axes = tuple(range(arr.ndim - wvals.ndim, arr.ndim))
    agg_p = vol * np.sum(scaled ** p, axis=axes)
    if reduce == "mean":
        return float(np.mean(agg_p) ** (1.0 / p))
    return float(np.max(agg_p) ** (1.0 / p))


def level_aggregate(pyr, n: int, p: float = 2.0, weight: Weight = None,
                    reduce: str = "max") -> float:
    """Level aggregate without the 2^{-n|s|/2 - n alpha} normalization.

    reduce='max': max over tensor combinations and time rows (norm
    semantics); reduce='mean': p-th-power average over combinations and rows
    (used by the regularity estimator to avoid small-sample maximum bias at
    coarse levels).
    """
    r = _lattice_radii(pyr, n)
    wvals = weight(r) if weight is not None else np.ones_like(r)
    per = [row_aggregate(arr, wvals, 2.0 ** (-n * pyr.d), p, reduce=reduce)
           for arr in pyr.levels[n].values()]
    if reduce == "mean" and not math.isinf(p):
        return float(np.mean(np.asarray(per) ** p) ** (1.0 / p))
    return max(per)


def besov_norm(pyr, alpha: float, p: float = 2.0, weight: Weight = None) -> float:
    """Weighted Besov norm of the distribution behind a coefficient pyramid."""
    if not pyr.levels:
        raise ValueError("empty pyramid")
    s_norm = (2 + pyr.d) if pyr.spacetime else pyr.d
    best = 0.0
    for n in sorted(pyr.levels):
        normalizer = 2.0 ** (-n * s_norm / 2.0 - n * alpha)
        best = max(best, level_aggregate(pyr, n, p, weight) / normalizer)
    # scaling-coefficient term at the coarsest level
    n0 = pyr.n_min
    r = _lattice_radii(pyr, n0)
    wvals = weight(r) if weight is not None else np.ones_like(r)
    normalizer = 2.0 ** (-n0 * s_norm / 2.0 - n0 * alpha)
    best = max(best, row_aggregate(pyr.phi_level, wvals, 2.0 ** (-n0 * pyr.d), p)
               / normalizer)
    return best


# -- weight validators -------------------------------------------------------


def check_weight(w: Weight, box: float = 100.0, n_samples: int = 512,
                 growth_factor: float = 10.0) -> dict:
    """Estimate sup_{|x-y|<=1} w(x)/w(y) on [0, box] and test stability
    under box enlargement.  Works on log-ratios so exponential families on
    large boxes never overflow."""

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
    c2 = sup_log_ratio(box * growth_factor)
    ok = np.isfinite(c2) and c2 <= c1 * 1.05 + 1e-9
    expc = lambda v: float(np.exp(v)) if v < 700 else float("inf")
    return {"ok": bool(ok), "C_est": expc(c2), "C_small_box": expc(c1)}


def _monomial_degrees(d: int, below: float):
    """Scaled degrees |k| of monomials X^k, k in N^{d+1}, with |k| < below."""
    out = set()
    kmax = int(math.floor(below))
    for k0 in range(kmax // 2 + 1):
        for rest in range(kmax + 1):
            deg = 2 * k0 + rest
            if deg < below:
                out.add(deg)
    return sorted(out)


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
    if c is None:
        c = kappa / 4.0
    # the canonical symbol table lives in the window gamma in (3/2, 2-4kappa);
    # for kappa > 1/12 cap the truncation so the table stays canonical
    gamma = Homogeneity(Fraction(3, 2), 2)
    if gamma.value(kappa) >= 2.0 - 4.0 * kappa:
        gamma = Homogeneity(Fraction(2), -4)
    params = StructureParams(kappa=kappa, d=d, gamma=gamma)
    rs = build_structure(params)
    alpha = params.alpha.value(kappa)
    gamma_prime = params.gamma.value(kappa) + alpha + 2.0 - c
    u_homs = sorted({s.homogeneity.value(kappa) for s in rs.symbols_U
                     if s.homogeneity.value(kappa) < gamma_prime})
    k_degs = _monomial_degrees(d, gamma_prime)
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

    # W-0: bounded ratios at unit distance
    worst = 1.0
    for i in (1, 2):
        for t in times:
            for z in u_homs:
                w = sw.weight_at(i, t, z)
                worst = max(worst, check_weight(w, box=50.0, n_samples=128)["C_est"])
    report["conditions"]["W-0"] = {"ok": bool(np.isfinite(worst)), "K_est": worst}

    # W-1: w_pi^2 w_s / w_t <= K (t-s)^{-c/2}, estimated in log space
    logK1 = -np.inf
    for (s, t) in pairs:
        log_wt = sw.log_w_t(t, r, u_homs)
        for i in (1, 2):
            for z in u_homs:
                log_lhs = 2 * sw.log_w_pi(r) + sw.log_w(i, s, r, z) - log_wt
                logK1 = max(logK1, float(np.max(log_lhs)) + (c / 2.0) * np.log(t - s))
    K1 = float(np.exp(logK1))
    report["conditions"]["W-1"] = {"ok": bool(np.isfinite(K1)), "K_est": K1}

    # W-2: w_i(t, x, tau) <= w_i(t, x, I(tau Xi)), margin in log
    m2 = np.inf
    for i in (1, 2):
        for t in times:
            for zu in u_homs:
                z_int = zu + alpha + 2.0
                diff = sw.log_w(i, t, r, z_int) - sw.log_w(i, t, r, zu)
                m2 = min(m2, float(np.min(diff)))
    report["conditions"]["W-2"] = {"ok": bool(m2 >= -1e-12), "min_log_margin": m2}

    # W-3: w_pi * w_i(tau Xi) <= w_i(X^k) whenever |tau| + alpha <= |k| - 2
    m3 = np.inf
    checked3 = 0
    for i in (1, 2):
        for t in times:
            for zu in u_homs:
                for kd in k_degs:
                    if zu + alpha <= kd - 2.0 + 1e-9:
                        diff = (sw.log_w(i, t, r, float(kd))
                                - sw.log_w_pi(r) - sw.log_w(i, t, r, zeta_eval(zu)))
                        m3 = min(m3, float(np.min(diff)))
                        checked3 += 1
    report["conditions"]["W-3"] = {"ok": bool(m3 >= -1e-9), "min_log_margin": m3,
                                   "pairs_checked": checked3}

    # W-4: w_pi * w_1(tau Xi) <= w_2(X^k), all k with |k| < gamma'
    m4 = np.inf
    for t in times:
        for zu in u_homs:
            for kd in k_degs:
                diff = (sw.log_w(2, t, r, float(kd))
                        - sw.log_w_pi(r) - sw.log_w(1, t, r, zeta_eval(zu)))
                m4 = min(m4, float(np.min(diff)))
    report["conditions"]["W-4"] = {"ok": bool(m4 >= -1e-9), "min_log_margin": m4}

    # W-5: w_i(x, tau Xi) = w_i(x, tau)
    if interpretation == "extend":
        report["conditions"]["W-5"] = {"ok": True, "max_abs_log": 0.0,
                                       "note": "holds by definition under 'extend'"}
    else:
        dev = 0.0
        for i in (1, 2):
            for t in times:
                for zu in u_homs:
                    diff = sw.log_w(i, t, r, zu + alpha) - sw.log_w(i, t, r, zu)
                    dev = max(dev, float(np.max(np.abs(diff))))
        report["conditions"]["W-5"] = {"ok": bool(dev < 1e-12), "max_abs_log": dev}

    # increasing in time
    inc = np.inf
    for i in (1, 2):
        for zu in u_homs:
            for t1, t2 in zip(times[:-1], times[1:]):
                diff = sw.log_w(i, t2, r, zu) - sw.log_w(i, t1, r, zu)
                inc = min(inc, float(np.min(diff)))
    report["conditions"]["time-increasing"] = {"ok": bool(inc >= -1e-12),
                                               "min_log_ratio": inc}
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


def dirac_norm_growth(d: int, p: float, eta: float, basis, exponents,
                      L: float = 1.0) -> list:
    """Spatial Besov norms of the grid Dirac at increasing resolution.

    exponents are grid exponents (N = 2**e); returns one norm per resolution.
    Bounded sequence <=> membership (off the boundary line).
    """
    from .wavelet import analyze_spatial

    norms = []
    for e in exponents:
        N = 2 ** e
        dx = L / N
        vals = np.zeros((N,) * d)
        vals[(N // 2,) * d] = dx ** -d
        n_max = e - 2 - int(round(math.log2(1 / L)))
        pyr = analyze_spatial(vals, basis, 0, n_max, L)
        norms.append(besov_norm(pyr, eta, p))
    return norms
