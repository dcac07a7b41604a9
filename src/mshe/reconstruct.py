"""Desk-scale reconstruction: canonical models, modelled distributions, the
dyadic approximation sequence and sewing diagnostics (for d = 1 fields).

The model covers the low-order symbols reachable by the canonical recursion
from a mollified noise field xi on the periodic space-time box:

    1, X, I(Xi)      and      Xi, X Xi, Xi I(Xi),

with Pi_z 1 = 1, Pi_z X = (. - z), Pi_z Xi = xi, Pi_z I(Xi) = Phi - Phi(z)
where Phi = P_+ * xi (the singular part of the heat kernel, in the exact
telescoped closed form), and products taken pointwise.  The re-expansion maps
are the canonical transports: X picks up (z - z') 1, I(Xi) picks up
(Phi(z) - Phi(z')) 1, and the Xi-multiplied symbols transport identically
with an extra Xi factor.

The reconstruction sequence is

    R_n f = sum_{(t,x) in Lambda_n} A^n_{t,x} phi^n_{t,x},
    A^n_{t,x} = avg_{y in B(x, 2^-n)} < Pi_{(t_dn, y)} f(t_dn, y), phi^n_{t,x} >,

with the one-sided time shift t_dn = t - (7 M^2 + 1) 2^{-2n}, M the support
diameter bound of the wavelet family.  Pairings are Riemann sums on the
field's grid; every A^n reduces to transforms of six fixed base fields
(1, y, xi, Phi, y xi, xi Phi), so levels cost a handful of separable
correlations plus ball averages along space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .noise import Field, Grid, exp_bump
from .besov import row_aggregate
from .wavelet import LevelTransform, WaveletBasis, correlate_axis

__all__ = [
    "SYMBOLS",
    "Model",
    "ModelledDistribution",
    "canonical_model",
    "reconstruct",
    "sewing_check",
    "dgamma_norm",
    "write_modelled",
    "read_modelled",
]

#: symbol order: the coefficient channel layout of modelled distributions
SYMBOLS = ("1", "X", "I(Xi)", "Xi", "X*Xi", "Xi*I(Xi)")

#: homogeneity of each symbol at given kappa
def symbol_homogeneity(sym: str, kappa: float) -> float:
    alpha = -1.5 - kappa
    return {
        "1": 0.0,
        "X": 1.0,
        "I(Xi)": 0.5 - kappa,
        "Xi": alpha,
        "X*Xi": 1.0 + alpha,
        "Xi*I(Xi)": 0.5 - kappa + alpha,
    }[sym]


@dataclass
class Model:
    """Canonical model data on a grid: the noise field and Phi = P_+ * xi."""

    grid: Grid
    xi: np.ndarray          # (M, N)
    phi_field: np.ndarray   # (M, N), P_+ * xi
    kappa: float = 0.05

    def pi_field(self, sym: str, z_idx: tuple) -> np.ndarray:
        """Pi_z tau as a grid function; z_idx = (time index, space index)."""
        g = self.grid
        it, ix = z_idx
        tt, xx = self._mesh()
        x0 = g.xs[ix]
        if sym == "1":
            return np.ones_like(self.xi)
        if sym == "X":
            return xx - x0
        if sym == "Xi":
            return self.xi
        if sym == "I(Xi)":
            return self.phi_field - self.phi_field[it, ix]
        if sym == "X*Xi":
            return (xx - x0) * self.xi
        if sym == "Xi*I(Xi)":
            return self.xi * (self.phi_field - self.phi_field[it, ix])
        raise KeyError(sym)

    def gamma_shift(self, sym: str, z_idx: tuple, zp_idx: tuple):
        """Gamma_{z, z'} tau = tau + shift * lower, for the canonical model.

        Returns (lower_symbol, shift) or None for invariant symbols.
        """
        g = self.grid
        if sym == "X":
            return "1", g.xs[z_idx[1]] - g.xs[zp_idx[1]]
        if sym == "I(Xi)":
            return "1", self.phi_field[z_idx] - self.phi_field[zp_idx]
        if sym == "X*Xi":
            return "Xi", g.xs[z_idx[1]] - g.xs[zp_idx[1]]
        if sym == "Xi*I(Xi)":
            return "Xi", self.phi_field[z_idx] - self.phi_field[zp_idx]
        return None

    def _mesh(self):
        if getattr(self, "_mesh_cache", None) is None:
            self._mesh_cache = np.meshgrid(self.grid.ts, self.grid.xs, indexing="ij")
        return self._mesh_cache

    def pair(self, sym: str, z_idx: tuple, lam: float) -> float:
        """< Pi_z tau, eta^lam_z > for a fixed smooth bump eta (mass one),
        by Riemann quadrature on the grid."""
        g = self.grid
        it, ix = z_idx
        tt, xx = self._mesh()
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
                raise KeyError(f"unknown symbol {s!r}")
        shape = (self.grid.M, self.grid.N)
        for s, a in self.coeffs.items():
            if a.shape != shape:
                raise ValueError(f"coefficient {s} has shape {a.shape} != {shape}")

    def get(self, sym: str) -> np.ndarray:
        z = self.coeffs.get(sym)
        return z if z is not None else np.zeros((self.grid.M, self.grid.N))

    def scaled(self, factor: float) -> "ModelledDistribution":
        return ModelledDistribution(grid=self.grid,
                                    coeffs={s: factor * a for s, a in self.coeffs.items()},
                                    gamma=self.gamma, p=self.p)


def canonical_model(xi_eps: Field, dec, kappa: float = 0.05) -> Model:
    """Lift a mollified noise field to the canonical model.

    Phi = P_+ * xi is computed by FFT on the periodic box with the exact
    telescoped closed form of P_+ (heat kernel localized to the unit
    parabolic ball minus the moment correction).
    """
    if xi_eps.kind != "spacetime" or xi_eps.grid.d != 1:
        raise ValueError("canonical_model expects a d=1 space-time field")
    g = xi_eps.grid
    toffs = np.fft.fftfreq(g.M, d=1.0 / g.M) * g.dt
    xoffs = np.fft.fftfreq(g.N, d=1.0 / g.N) * g.dx
    tt, xx = np.meshgrid(toffs, xoffs, indexing="ij")
    kern = dec._gm(tt, xx[..., None]) * g.dt * g.dx
    phi_field = np.fft.irfftn(np.fft.rfftn(xi_eps.values) * np.fft.rfftn(kern),
                              s=xi_eps.values.shape, axes=(0, 1))
    return Model(grid=g, xi=xi_eps.values.copy(), phi_field=phi_field, kappa=kappa)


# -- reconstruction ------------------------------------------------------------


def time_shift_cells(basis: WaveletBasis, n: int, g: Grid) -> int:
    """The one-sided evaluation shift t_dn = t - (7 M^2 + 1) 2^{-2n} in grid
    steps (M = support diameter bound)."""
    C = 7 * basis.support_radius ** 2 + 1
    return int(round(C * 4.0 ** -n / g.dt))


def _level_A(f: ModelledDistribution, model: Model, basis: WaveletBasis,
             n: int) -> np.ndarray:
    g = model.grid
    eng = LevelTransform(basis, n, g.dx, g.dt)
    T, D = ("phi", "phi"), ("phi", "disp")  # phi^n and phi^n times (y - x)

    def transform(values, combos):
        return [c * g.dt * g.dx for c in eng.forward(values, combos).values()]

    T1, D1 = transform(np.ones_like(model.xi), (T, D))
    Txi, Dxi = transform(model.xi, (T, D))
    TPhi, = transform(model.phi_field, (T,))
    TxiPhi, = transform(model.xi * model.phi_field, (T,))

    half = max(1, int(round(2.0 ** -n / g.dx)))
    shift = time_shift_cells(basis, n, g)
    # the ball averages act along space only, so the lattice rows are picked first
    t_rows = (np.arange(g.M // eng.stride_t) * eng.stride_t - shift) % g.M
    offs = np.arange(-half, half + 1)

    def avg(arr, taps=np.full(offs.size, 1.0 / offs.size)):
        return correlate_axis(arr[t_rows], 1, taps, offs, eng.stride_x)

    def avg_disp(arr):
        # avg over y in the ball of arr(y) * (y - x_lattice) * dx-steps
        return avg(arr, offs / offs.size) * g.dx

    A = (T1 * (avg(f.get("1") - f.get("I(Xi)") * model.phi_field)
               - avg_disp(f.get("X")))
         + D1 * avg(f.get("X"))
         + TPhi * avg(f.get("I(Xi)"))
         + Txi * (avg(f.get("Xi") - f.get("Xi*I(Xi)") * model.phi_field)
                  - avg_disp(f.get("X*Xi")))
         + Dxi * avg(f.get("X*Xi"))
         + TxiPhi * avg(f.get("Xi*I(Xi)")))
    return A


def _refine_coeffs(basis: WaveletBasis):
    c = basis.refine_coeffs
    cc = np.zeros(3 * (c.size - 1) + 1)
    for k, ck in enumerate(c):
        cc[2 * k:2 * k + c.size] += ck * c
    return cc / 2.0, c / np.sqrt(2.0)  # time (double-refined), space


def _delta_A(A_n: np.ndarray, A_n1: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    """delta A^n_{t,x} = sum_k a_k A^{n+1}_{(t,x) + k 2^-(n+1)} - A^n_{t,x}."""
    a_t, a_x = _refine_coeffs(basis)
    rows = correlate_axis(A_n1, 0, a_t, np.arange(a_t.size), 4)
    return correlate_axis(rows, 1, a_x, np.arange(a_x.size), 2) - A_n


def reconstruct(f: ModelledDistribution, model: Model, basis: WaveletBasis,
                n_min: int = 2, n_max: int = 5) -> dict:
    """Dyadic reconstruction: R_{n_max} f on the grid plus per-level data.

    Returns {"field", "levels": {n: A^n}, "deltas": {n: delta A^n},
    "outputs": {n: R_n f}}.
    """
    g = model.grid
    levels, outputs = {}, {}
    for n in range(n_min, n_max + 1):
        A = _level_A(f, model, basis, n)
        levels[n] = A
        out = _adjoint_level(A, basis, n, g)
        outputs[n] = out
    deltas = {n: _delta_A(levels[n], levels[n + 1], basis)
              for n in range(n_min, n_max)}
    return {"field": outputs[n_max], "levels": levels, "deltas": deltas,
            "outputs": outputs}


def _adjoint_level(A: np.ndarray, basis: WaveletBasis, n: int, g: Grid) -> np.ndarray:
    return LevelTransform(basis, n, g.dx, g.dt).adjoint(A, ("phi", "phi"), (g.M, g.N))


def sewing_check(result: dict, alpha: float, gamma: float, p: float = 2.0) -> dict:
    """Level norms of the sewing criterion plus the convergence-rate fit.

    A-norm: sup_n sup_t (sum_x 2^{-nd} |A^n / 2^{-n|s|/2 - n alpha}|^p)^{1/p},
    delta-norm: the same with gamma in place of alpha for delta A^n; the rate
    is fitted from ||R_{n_max} f - R_n f||_p ~ 2^{-n rate} (the sup at p = inf).
    d and |s| = 2 + d are those of the level arrays (time first).
    """
    levels = result["levels"]
    deltas = result["deltas"]
    ns = sorted(levels)
    if len(ns) < 4:
        raise ValueError("need at least 4 levels for the sewing check")
    d = levels[ns[0]].ndim - 1

    def level_norm(arr, n, expo):
        # row sums round by memory layout: sum over C-ordered rows
        normaliser = np.full(arr.shape[1:], 2.0 ** (-n * (2 + d) / 2.0 - n * expo))
        return row_aggregate(np.ascontiguousarray(arr), normaliser, 2.0 ** (-n * d), p)

    a_norms = {n: level_norm(levels[n], n, alpha) for n in ns}
    d_norms = {n: level_norm(deltas[n], n, gamma) for n in sorted(deltas)}
    fine = result["outputs"][ns[-1]]
    # the mean over cells: the L^p norm up to a constant, which the fit ignores
    ens = ns[:-1]
    errs = [row_aggregate((result["outputs"][n] - fine).ravel(), np.ones(1),
                          1.0 / fine.size, p) for n in ens]
    rate = float(-np.polyfit(ens, np.log2(np.maximum(errs, 1e-300)), 1)[0])
    a_sup = max(a_norms.values())
    d_sup = max(d_norms.values())
    d_vals = [d_norms[n] for n in sorted(d_norms)]
    stable = all(b <= a * 2.0 ** (-0.5 * gamma) * 4.0 for a, b in zip(d_vals, d_vals[1:]))
    return {"A_norms": a_norms, "delta_norms": d_norms, "A_sup": a_sup,
            "delta_sup": d_sup, "rate": rate, "delta_stable": bool(stable)}


# -- D^{gamma,p} norm ----------------------------------------------------------


def _gamma_transport_space(f: ModelledDistribution, model: Model, dx_cells: int):
    """Coefficients of Gamma^t_{y,x} f(t,x) where y = x + dx_cells * dx,
    expressed in the basis at y (arrays indexed by (t, x))."""
    g = f.grid
    dxv = dx_cells * g.dx
    phi = model.phi_field
    phi_shift = np.roll(phi, -dx_cells, axis=1)  # Phi(t, y)
    dphi = phi_shift - phi
    out = {s: f.get(s).copy() for s in SYMBOLS}
    out["1"] = f.get("1") + f.get("X") * dxv + f.get("I(Xi)") * dphi
    out["Xi"] = f.get("Xi") + f.get("X*Xi") * dxv + f.get("Xi*I(Xi)") * dphi
    return out


def _gamma_transport_time(f: ModelledDistribution, model: Model, dt_cells: int):
    """Coefficients of Gamma^x_{t, t - dt_cells dt} f(t - dt_cells dt, x)."""
    g = f.grid
    phi = model.phi_field
    phi_past = np.roll(phi, dt_cells, axis=0)    # Phi(t - s, x)
    dphi = phi - phi_past
    fpast = {s: np.roll(f.get(s), dt_cells, axis=0) for s in SYMBOLS}
    out = dict(fpast)
    out["1"] = fpast["1"] + fpast["I(Xi)"] * dphi
    out["Xi"] = fpast["Xi"] + fpast["Xi*I(Xi)"] * dphi
    return out


def _zeta_groups(kappa: float):
    groups = {}
    for s in SYMBOLS:
        groups.setdefault(round(symbol_homogeneity(s, kappa), 9), []).append(s)
    return groups


def dgamma_norm(f: ModelledDistribution, model: Model, gamma: float = None,
                p: float = None, lambdas=(2, 3, 4, 5, 6),
                max_offsets: int = 9) -> float:
    """The three-term coherence norm by grid quadrature.

    Terms: pointwise L^p of |f|_zeta; the local-average space increment
    |f(t,y) - Gamma^t_{y,x} f(t,x)|_zeta / lambda^{gamma-zeta} over
    y in B(x, lambda); the time increment with lambda^2 steps.  lambdas are
    dyadic exponents (lambda = 2^-j); the ball average is subsampled to at
    most max_offsets displacements.
    """
    g = f.grid
    gamma = f.gamma if gamma is None else gamma
    p = f.p if p is None else p
    # the sup over t is estimated on a decimated time grid
    tstride = max(1, g.M // 1024)
    if tstride > 1:
        sub_grid = Grid(d=1, L=g.L, N=g.N, T=g.T, M=g.M // tstride)
        f = ModelledDistribution(
            grid=sub_grid, coeffs={s: a[::tstride] for s, a in f.coeffs.items()},
            gamma=gamma, p=p)
        model = Model(grid=sub_grid, xi=model.xi[::tstride],
                      phi_field=model.phi_field[::tstride], kappa=model.kappa)
        g = sub_grid
    groups = _zeta_groups(model.kappa)
    best = 0.0

    def lp_over_x(arr):
        return row_aggregate(arr, np.ones(g.N), g.dx, p)

    for zeta, syms in groups.items():
        point = sum(np.abs(f.get(s)) for s in syms)
        best = max(best, lp_over_x(point))

    for j in lambdas:
        lam = 2.0 ** -j
        cells = max(1, int(round(lam / g.dx)))
        steps = max(1, int(round(lam ** 2 / g.dt)))
        n_side = min(cells, max_offsets // 2)
        offsets = np.unique(np.round(np.linspace(-cells, cells, 2 * n_side + 1))
                            .astype(int))
        acc = {z: np.zeros((g.M, g.N)) for z in groups}
        for dc in offsets:
            tr = _gamma_transport_space(f, model, int(dc))
            for zeta, syms in groups.items():
                diff = sum(np.abs(np.roll(f.get(s), -int(dc), axis=1) - tr[s])
                           for s in syms)
                acc[zeta] += diff
        for zeta in groups:
            term = acc[zeta] / offsets.size / lam ** (gamma - zeta)
            best = max(best, lp_over_x(term))
        tr = _gamma_transport_time(f, model, steps)
        for zeta, syms in groups.items():
            diff = sum(np.abs(f.get(s) - tr[s]) for s in syms)
            best = max(best, lp_over_x(diff / lam ** (gamma - zeta)))
    return best


# -- storage -------------------------------------------------------------------


def write_modelled(path, f: ModelledDistribution) -> None:
    """Field-format container with a symbol-index channel dimension (stacked
    along time) plus a JSON sidecar naming the symbols."""
    from .noise import write_field

    syms = [s for s in SYMBOLS if s in f.coeffs]
    stacked = np.concatenate([f.coeffs[s] for s in syms], axis=0)
    g = f.grid
    carrier = Field(grid=Grid(d=1, L=g.L, N=g.N, T=g.T * len(syms), M=g.M * len(syms)),
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
    syms = sidecar["symbols"]
    M = sidecar["M"]
    grid = Grid(d=1, L=carrier.grid.L, N=carrier.grid.N, T=sidecar["T"], M=M)
    coeffs = {}
    for i, s in enumerate(syms):
        coeffs[s] = carrier.values[i * M:(i + 1) * M].copy()
    return ModelledDistribution(grid=grid, coeffs=coeffs,
                                gamma=sidecar["gamma"], p=sidecar["p"])
