"""Desk-scale reconstruction: canonical models, modelled distributions, the
dyadic approximation sequence and sewing diagnostics (for d = 1 fields).

The model covers the low-order symbols reachable by the canonical recursion
from a mollified noise field xi on the periodic space-time box:

    1, X, I(Xi)      and      Xi, X Xi, Xi I(Xi),

with Pi_z tau = N (. - x_z)^b (Phi - Phi(z))^c for the noise factor N = 1 or
xi, where Phi = P_+ * xi (the singular part of the heat kernel, in the exact
telescoped closed form); ``_FACTORS`` lists (N, b, c) per symbol.  The
re-expansion maps are the canonical transports: a symbol with b (or c) picks
up its N times the increment of x (or of Phi).

The reconstruction sequence is

    R_n f = sum_{(t,x) in Lambda_n} A^n_{t,x} phi^n_{t,x},
    A^n_{t,x} = avg_{y in B(x, 2^-n)} < Pi_{(t_dn, y)} f(t_dn, y), phi^n_{t,x} >,

with the one-sided time shift t_dn = t - (7 M^2 + 1) 2^{-2n}, M the support
diameter bound of the wavelet family.  Pairings are Riemann sums on the
field's grid.  A^n reads the level-n transforms of the base fields N Phi^c
that the symbols present need: each is projected once, at n_max, onto
phi^n and, for a field N that a symbol N X reads so, onto phi^n (y - x),
and descends through the low-pass half of ``step_filters`` as in
``wavelet.analyze``; those of 1 are closed forms, so a lift of 1 and X reads
no model.  R_n f rises to n_max by the transposed filter for one adjoint.
The sewing check measures A^n and delta A^n by ``besov.level_norm``, the
level norm of the weighted Besov norms.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .noise import Field, Grid, exp_bump
from .besov import level_norm
from .kernel import decompose
from .wavelet import (LevelTransform, WaveletBasis, _adjoint_axis, check_lattices,
                      correlate_axis, level_range, step_filters)

__all__ = [
    "SYMBOLS",
    "Model",
    "ModelledDistribution",
    "canonical_model",
    "reconstruct",
    "sewing_check",
    "write_modelled",
    "read_modelled",
]

#: the canonical model of each symbol, Pi_z tau = N (. - x_z)^b (Phi - Phi(z))^c,
#: as (N, b, c) with the noise factor N itself the symbol "1" or "Xi"; the
#: order is the coefficient channel layout of modelled distributions
_FACTORS = {"1": ("1", 0, 0), "X": ("1", 1, 0), "I(Xi)": ("1", 0, 1),
            "Xi": ("Xi", 0, 0), "X*Xi": ("Xi", 1, 0), "Xi*I(Xi)": ("Xi", 0, 1)}
SYMBOLS = tuple(_FACTORS)

#: the canonical re-expansion Gamma tau = tau + shift * N: symbol -> (N, "x"
#: or "Phi": the shift is the increment of x if b, else of Phi)
_TRANSPORT = {s: (N, "x" if b else "Phi") for s, (N, b, c) in _FACTORS.items() if b or c}


def _transport(coeffs: dict, increments: dict) -> dict:
    """Gamma applied to coefficient fields: each lower symbol picks up every
    symbol above it times its increment, in _TRANSPORT order (x before Phi);
    a rule whose increment is absent contributes nothing."""
    out = dict(coeffs)
    for sym, (lower, by) in _TRANSPORT.items():
        if by in increments:
            out[lower] = out[lower] + coeffs[sym] * increments[by]
    return out


@dataclass
class Model:
    """Canonical model data on a grid: the noise field and Phi = P_+ * xi."""

    grid: Grid
    xi: np.ndarray          # (M, N)
    phi_field: np.ndarray   # (M, N), P_+ * xi

    def pi_field(self, sym: str, z_idx: tuple) -> np.ndarray:
        """Pi_z tau as a grid function; z_idx = (time index, space index)."""
        it, ix = z_idx
        noise, b, c = _FACTORS[sym]
        _, xx = self._mesh
        return ({"1": 1.0, "Xi": self.xi}[noise] * (xx - self.grid.xs[ix]) ** b
                * (self.phi_field - self.phi_field[it, ix]) ** c)

    @functools.cached_property
    def _mesh(self):
        return np.meshgrid(self.grid.ts, self.grid.xs, indexing="ij")

    def pair(self, sym: str, z_idx: tuple, lam: float) -> float:
        """< Pi_z tau, eta^lam_z > for a fixed smooth bump eta (mass one),
        by Riemann quadrature on the grid."""
        g = self.grid
        it, ix = z_idx
        tt, xx = self._mesh
        eta = exp_bump((tt - g.ts[it]) / lam ** 2) * exp_bump((xx - g.xs[ix]) / lam)
        mass = eta.sum() * g.dt * g.dx
        if mass == 0.0:
            raise ValueError("test function support misses the grid")
        eta /= mass
        return float(np.sum(self.pi_field(sym, z_idx) * eta) * g.dt * g.dx)


@dataclass
class ModelledDistribution:
    """Coefficient fields over SYMBOLS on the model's grid."""

    grid: Grid
    coeffs: dict                # symbol -> (M, N) array
    gamma: float = 2.0
    p: float = 2.0

    def __post_init__(self):
        for s in self.coeffs:
            if s not in SYMBOLS:
                raise ValueError(f"unknown symbol {s!r}; the symbols are {', '.join(SYMBOLS)}")
        shape = (self.grid.M, self.grid.N)
        for s, a in self.coeffs.items():
            if a.shape != shape:
                raise ValueError(f"coefficient {s} has shape {a.shape} != {shape}")

    @property
    def reads_model(self) -> bool:
        """Whether a symbol has the factor Xi or a power of Phi in _FACTORS."""
        return any(_FACTORS[s][0] == "Xi" or _FACTORS[s][2] for s in self.coeffs)


def canonical_model(xi_eps: Field) -> Model:
    """Lift a mollified noise field to the canonical model.

    Phi = P_+ * xi is computed by FFT on the periodic box with the exact
    telescoped closed form of P_+ (heat kernel localized to the unit
    parabolic ball minus the moment correction) of ``kernel.decompose(1, 3)``.
    P_+ is exactly 0 off 0 < t < 1, |x| < 1, so it is evaluated on the rows
    and columns of the box inside, a time column and a space row that
    broadcast, and is 0 elsewhere.
    """
    if xi_eps.kind != "spacetime" or xi_eps.grid.d != 1:
        raise ValueError("canonical_model expects a d=1 space-time field")
    g = xi_eps.grid
    toffs = np.fft.fftfreq(g.M, d=1.0 / g.M) * g.dt
    xoffs = np.fft.fftfreq(g.N, d=1.0 / g.N) * g.dx
    rows, cols = np.flatnonzero((toffs > 0) & (toffs < 1)), np.flatnonzero(np.abs(xoffs) < 1)
    kern = np.zeros((g.M, g.N))
    kern[np.ix_(rows, cols)] = decompose(1, 3)._gm(toffs[rows, None],
                                                   xoffs[None, cols, None]) * g.dt * g.dx
    phi_field = np.fft.irfftn(np.fft.rfftn(xi_eps.values) * np.fft.rfftn(kern),
                              s=xi_eps.values.shape, axes=(0, 1))
    return Model(grid=g, xi=xi_eps.values.copy(), phi_field=phi_field)


# -- reconstruction ------------------------------------------------------------


def time_shift_cells(basis: WaveletBasis, n: int, g: Grid) -> int:
    """The one-sided evaluation shift t_dn = t - (7 M^2 + 1) 2^{-2n} in grid
    steps (M = support diameter bound)."""
    C = 7 * basis.support ** 2 + 1
    return int(round(C * 4.0 ** -n / g.dt))


def _level_A(f: ModelledDistribution, model: Model, fields: dict, basis: WaveletBasis,
             n: int) -> np.ndarray:
    """A^n summed over the symbols f carries, from the level-n transforms
    fields[N, c] of the base fields N Phi^c against phi^n ("phi") and phi^n
    (y - x) ("disp"); those of the field 1 are 2^{-3n/2} and 2^{-5n/2} M_1."""
    g = f.grid
    stride_t, stride_x = int(round(4.0 ** -n / g.dt)), int(round(2.0 ** -n / g.dx))
    T = {("1", 0): {"phi": 2.0 ** (-1.5 * n), "disp": 2.0 ** (-2.5 * n)
                    * basis.phi_moments(1)[1]}, **fields}
    # the ball averages act along space only, so the lattice rows are picked first
    t_rows = (np.arange(g.M // stride_t) * stride_t - time_shift_cells(basis, n, g)) % g.M
    offs = np.arange(-stride_x, stride_x + 1)
    box, disp = np.full(offs.size, 1.0 / offs.size), offs / offs.size * g.dx

    def avg(rows, taps):
        # avg over y in the ball of rows(y), times (y - x_lattice) for disp
        return correlate_axis(rows, 1, taps, offs, stride_x)

    A = np.zeros((t_rows.size, g.N // stride_x))
    for sym, coeff in f.coeffs.items():
        noise, b, c = _FACTORS[sym]
        rows, T0 = coeff[t_rows], T[noise, 0]
        if b:    # <N (. - y), phi^n_x> = D_N - (y - x) T_N
            A += T0["disp"] * avg(rows, box) - T0["phi"] * avg(rows, disp)
        elif c:  # <N (Phi - Phi(y)), phi^n_x> = T_{N Phi} - Phi(y) T_N
            A += T[noise, 1]["phi"] * avg(rows, box) - T0["phi"] * avg(
                rows * model.phi_field[t_rows], box)
        else:
            A += T0["phi"] * avg(rows, box)
    return A


def _coarser(T: dict, low, h: float) -> dict:
    """Level-n transforms from the level-(n+1) ones T by the low-pass half of
    one step, twice in time and once in space; as y - x = (y - x - k h) + k h,
    h = 2^-(n+1), a "disp" one picks up h sum_k k c_k phi^{n+1}_{x + k h}."""
    c, k = low
    rows = {key: correlate_axis(correlate_axis(a, 0, c, k, 2), 0, c, k, 2) for key, a in T.items()}
    out = {key: correlate_axis(a, 1, c, k, 2) for key, a in rows.items()}
    if "disp" in out:
        out["disp"] = out["disp"] + h * correlate_axis(rows["phi"], 1, k * c, k, 2)
    return out


def reconstruct(f: ModelledDistribution, model: Model, basis: WaveletBasis,
                n_min: int = 2, n_max: int = 5) -> dict:
    """Dyadic reconstruction: R_{n_max} f on the grid plus per-level data; a
    lift that does not read the model (``f.reads_model``) takes model None.

    Returns {"field", "levels": {n: A^n}, "deltas": {n: delta A^n},
    "outputs": {n: R_n f}}.
    """
    g = f.grid
    levels = level_range(n_min, n_max)
    check_lattices(g, g.dt, n_min, n_max)
    eng, low = LevelTransform(basis, n_max, g.dx, g.dt), step_filters(basis)[0]
    fields = {}  # (N, c) -> the transforms of N Phi^c, projected once at n_max
    # _level_A reads a field's phi^n (y - x) transform only for a symbol N X^b, b > 0
    disp = {(N, 0) for N, b, _ in map(_FACTORS.get, f.coeffs) if b}
    for key in {(N, k) for N, _, c in map(_FACTORS.get, f.coeffs) for k in {0, c}} - {("1", 0)}:
        base = (model.xi if key[0] == "Xi" else 1.0) * (model.phi_field if key[1] else 1.0)
        out = eng.forward(base, [("phi", "phi")] + [("phi", "disp")] * (key in disp))
        fields[key] = {code: v * g.dt * g.dx for (_, code), v in out.items()}
    A, outputs = dict.fromkeys(levels), dict.fromkeys(levels)
    for n in reversed(levels):
        if n < n_max:
            fields = {key: _coarser(T, low, 2.0 ** -(n + 1)) for key, T in fields.items()}
        A[n] = coeffs = _level_A(f, model, fields, basis, n)
        for axis in (1, 0, 0) * (n_max - n):  # phi^n = sum_k c_k phi^{n+1}, transposed
            coeffs = _adjoint_axis(coeffs, axis, *low, 2, 2 * coeffs.shape[axis])
        outputs[n] = eng.adjoint(coeffs, ("phi", "phi"), (g.M, g.N))
    deltas = {n: _coarser({"phi": A[n + 1]}, low, 0.0)["phi"] - A[n] for n in levels[:-1]}
    return {"field": outputs[n_max], "levels": A, "deltas": deltas, "outputs": outputs}


def sewing_check(result: dict, alpha: float, gamma: float, p: float = 2.0) -> dict:
    """Level norms of the sewing criterion plus the convergence-rate fit.

    The A-norm of level n is ``besov.level_norm`` of A^n at alpha, the
    delta-norm that of delta A^n at gamma; the rate is fitted from
    ||R_{n_max} f - R_n f||_p ~ 2^{-n rate} (the sup at p = inf).
    """
    levels = result["levels"]
    deltas = result["deltas"]
    ns = sorted(levels)
    if len(ns) < 4:
        raise ValueError("need at least 4 levels for the sewing check")
    a_norms = {n: level_norm(levels[n], n, alpha, p, True, None) for n in ns}
    d_norms = {n: level_norm(deltas[n], n, gamma, p, True, None) for n in sorted(deltas)}
    fine = result["outputs"][ns[-1]]
    # the mean over cells: the L^p norm up to a constant, which the fit ignores
    ens = ns[:-1]
    diffs = (np.abs(result["outputs"][n] - fine).ravel() for n in ens)  # one at a time
    errs = [np.max(e) if np.isinf(p) else np.mean(e ** p) ** (1.0 / p) for e in diffs]
    rate = float(-np.polyfit(ens, np.log2(np.maximum(errs, 1e-300)), 1)[0])
    a_sup = max(a_norms.values())
    d_sup = max(d_norms.values())
    d_vals = [d_norms[n] for n in sorted(d_norms)]
    stable = all(b <= a * 2.0 ** (-0.5 * gamma) * 4.0 for a, b in zip(d_vals, d_vals[1:]))
    return {"A_norms": a_norms, "delta_norms": d_norms, "A_sup": a_sup,
            "delta_sup": d_sup, "rate": rate, "delta_stable": bool(stable)}


# -- storage -------------------------------------------------------------------


def write_modelled(path, f: ModelledDistribution) -> None:
    """Field-format container with a symbol-index channel dimension (stacked
    along time) plus a JSON sidecar naming the symbols.  The channels are
    padded with zero blocks to a power of two, as the field format's time
    axis must be; read_modelled reads the named ones only."""
    from .noise import write_field

    syms = [s for s in SYMBOLS if s in f.coeffs]
    g = f.grid
    blocks = 1 << (len(syms) - 1).bit_length()
    stacked = np.zeros((g.M * blocks, g.N))
    for i, s in enumerate(syms):
        stacked[i * g.M:(i + 1) * g.M] = f.coeffs[s]
    carrier = Field(grid=Grid(d=1, L=g.L, N=g.N, T=g.T * blocks, M=g.M * blocks),
                    values=stacked, kind="spacetime")
    write_field(path, carrier)
    sidecar = {"symbols": syms, "M": g.M, "T": g.T, "gamma": f.gamma, "p": f.p}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)


def read_modelled(path) -> ModelledDistribution:
    from .noise import read_field

    carrier = read_field(path)
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    missing = [k for k in ("symbols", "M", "T", "gamma", "p") if k not in sidecar]
    if missing:
        raise ValueError(f"{path}.json lacks the field(s) {', '.join(missing)}")
    syms = sidecar["symbols"]
    M = sidecar["M"]
    grid = Grid(d=1, L=carrier.grid.L, N=carrier.grid.N, T=sidecar["T"], M=M)
    coeffs = {}
    for i, s in enumerate(syms):
        coeffs[s] = carrier.values[i * M:(i + 1) * M].copy()
    return ModelledDistribution(grid=grid, coeffs=coeffs,
                                gamma=sidecar["gamma"], p=sidecar["p"])
