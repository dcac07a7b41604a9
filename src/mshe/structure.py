"""Symbolic regularity structure for the multiplicative heat equations.

Symbols are built from the unit symbol, monomials X^k, the noise symbol Xi
and the abstract heat-kernel integration I(.) by the two closure rules

    tau in U  <=>  tau*Xi in F,        tau in F  =>  I(tau) in U,

truncated at homogeneity gamma for U and gamma + alpha for F.  alpha = |Xi|
follows from the one equation of dimension d (EQUATIONS): -d/2 - kappa for
spatial and -(d + 2)/2 - kappa for space-time white noise.  gamma is
3/2 + 2 kappa, capped at 2 - 4 kappa from kappa = 1/12 on, so that the table
stays canonical: the one of any gamma in (3/2, 2 - 4 kappa).  Homogeneities are
carried exactly as pairs (q, m) meaning q + m*kappa with q rational and m an
integer, so that the generated table is reproducible with zero tolerance and
threshold comparisons never depend on floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _iproduct

__all__ = [
    "EQUATIONS",
    "Homogeneity",
    "Symbol",
    "StructureParams",
    "RegularityStructure",
    "build_structure",
]


@dataclass(frozen=True, order=True)
class Homogeneity:
    """Exact homogeneity q + m*kappa with q rational, m integer."""

    q: Fraction
    m: int

    def __add__(self, other: "Homogeneity") -> "Homogeneity":
        return Homogeneity(self.q + other.q, self.m + other.m)

    def value(self, kappa: float) -> float:
        return float(self.q) + self.m * kappa

    def less_than(self, other: "Homogeneity", kappa: Fraction) -> bool:
        """Exact comparison q + m*kappa < q' + m'*kappa for rational kappa."""
        return self.q + self.m * kappa < other.q + other.m * kappa


#: equation -> (space dimension d, kind of its driving white noise); one
#: equation per d
EQUATIONS = {"she1d": (1, "spacetime"), "pam2d": (2, "spatial"), "pam3d": (3, "spatial")}
#: homogeneity shift of the abstract integration: +2
_I_SHIFT = Homogeneity(Fraction(2), 0)


@dataclass(frozen=True)
class Symbol:
    """One basis symbol.

    kind is one of "one", "xi", "monomial", "integral", "product"; a product
    is always (Xi, tau) with tau in U, normalized with Xi written first.
    """

    kind: str
    k: tuple = ()            # multi-index, monomials only
    child: "Symbol" = None   # integrals: the integrand; products: the U factor
    homogeneity: Homogeneity = None

    def __str__(self) -> str:
        if self.kind == "one":
            return "1"
        if self.kind == "xi":
            return "Xi"
        if self.kind == "monomial":
            names = [f"X_{i}" for i, ki in enumerate(self.k) for _ in range(ki)]
            return "*".join(names)
        if self.kind == "integral":
            return f"I({self.child})"
        if self.kind == "product":
            return f"Xi*{self.child}"
        raise ValueError(self.kind)


def _monomial(k: tuple, scaling: tuple) -> Symbol:
    deg = sum(s * ki for s, ki in zip(scaling, k))
    return Symbol("monomial", k=k, homogeneity=Homogeneity(Fraction(deg), 0))


def _xi_times(tau: Symbol, alpha: Homogeneity) -> Symbol:
    if tau.kind == "one":
        return Symbol("xi", homogeneity=alpha)
    return Symbol("product", child=tau, homogeneity=tau.homogeneity + alpha)


def _integral(tau: Symbol) -> Symbol:
    return Symbol("integral", child=tau, homogeneity=tau.homogeneity + _I_SHIFT)


@dataclass(frozen=True)
class StructureParams:
    """Exponents of the structure; all exact in (q, m) arithmetic.

    kappa enters symbolically; the numeric value is only used to decide the
    truncation inequalities (exactly, via Fraction(kappa)).
    """

    kappa: float
    d: int = 3

    def __post_init__(self):
        if not 0 < self.kappa < 0.125:
            raise ValueError(f"kappa must lie in (0, 1/8), got {self.kappa}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.d}")

    @property
    def alpha(self) -> Homogeneity:
        """|Xi| for the equation of dimension d (module docstring)."""
        kind = next(k for d, k in EQUATIONS.values() if d == self.d)
        return Homogeneity(Fraction(-(self.d + 2 * (kind == "spacetime")), 2), -1)

    @property
    def gamma(self) -> Homogeneity:
        """3/2 + 2 kappa, capped at 2 - 4 kappa exactly (module docstring)."""
        gamma, cap = Homogeneity(Fraction(3, 2), 2), Homogeneity(Fraction(2), -4)
        return gamma if gamma.less_than(cap, self.kappa_exact) else cap

    @property
    def scaling(self) -> tuple:
        """Parabolic scaling (2, 1, ..., 1) over (time, space...) axes."""
        return (2,) + (1,) * self.d

    @property
    def kappa_exact(self) -> Fraction:
        return Fraction(self.kappa).limit_denominator(10**12)


@dataclass
class RegularityStructure:
    params: StructureParams
    symbols_U: list = field(default_factory=list)
    symbols_F: list = field(default_factory=list)

    def table(self) -> list:
        """Rows (set, symbol string, q, m, value at kappa) in canonical order."""
        rows = []
        for name, syms in (("U", self.symbols_U), ("F", self.symbols_F)):
            for s in syms:
                h = s.homogeneity
                rows.append((name, str(s), h.q, h.m, h.value(self.params.kappa)))
        return rows


def _sort_key(sym: Symbol):
    return (sym.homogeneity.q, sym.homogeneity.m, str(sym))


def build_structure(params: StructureParams) -> RegularityStructure:
    """Generate U and F below their truncation thresholds.

    The closure iteration alternates tau -> tau*Xi and tau -> I(tau) until no
    new symbol falls below the thresholds; polynomials X^k with scaled degree
    below gamma seed U.  Output order is deterministic: ascending homogeneity
    at kappa = 0, ties broken by the canonical symbol string.
    """
    kq = params.kappa_exact
    gamma, alpha = params.gamma, params.alpha
    gamma_alpha = gamma + alpha

    seeds = [Symbol("one", homogeneity=Homogeneity(Fraction(0), 0))]
    max_deg = int(gamma.value(params.kappa)) + 1
    for k in _iproduct(*(range(max_deg + 1) for _ in range(params.d + 1))):
        if sum(k) == 0:
            continue
        mono = _monomial(k, params.scaling)
        if mono.homogeneity.less_than(gamma, kq):
            seeds.append(mono)

    symbols_u = {str(s): s for s in seeds}
    symbols_f = {}
    while True:
        new_f = {}
        for s in symbols_u.values():
            cand = _xi_times(s, alpha)
            if str(cand) not in symbols_f and cand.homogeneity.less_than(gamma_alpha, kq):
                new_f[str(cand)] = cand
        symbols_f.update(new_f)
        new_u = {}
        for s in symbols_f.values():
            cand = _integral(s)
            if str(cand) not in symbols_u and cand.homogeneity.less_than(gamma, kq):
                new_u[str(cand)] = cand
        symbols_u.update(new_u)
        if not new_f and not new_u:
            break

    return RegularityStructure(
        params=params,
        symbols_U=sorted(symbols_u.values(), key=_sort_key),
        symbols_F=sorted(symbols_f.values(), key=_sort_key),
    )
