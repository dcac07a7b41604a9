"""Solvers for the renormalised mollified equation and the classical reference.

The renormalised equation  du = Lap u dt + u (xi_eps - C_eps) dt  is stepped
by exponential splitting (Duhamel with the exact reaction sub-flow): the heat
semigroup is applied exactly in Fourier space and the multiplicative
potential step is the exact ODE flow,

    u_{k+1} = exp(dt Lap) [ u_k exp(dt (xi_eps - C_eps)) ],

so both the zero-potential dynamics (spectrally exact) and the
space-independent-potential dynamics (exact exponential growth) are
reproduced to round-off, and every observed epsilon-effect comes from the
noise's spatial structure.  All solvers share this split-step loop, each
with its own reaction step and Fourier multiplier.

For the 1-d space-time equation a classical Ito (Walsh) reference is provided:
semi-implicit Euler with the finite-difference Laplacian and discrete noise
increments u_k eta_k, Var(eta) = dt/dx, driven by the same underlying white
noise field as the mollified solver so that distances between the two are
low-variance.

Convergence studies fix one noise realization per seed at the finest grid,
Fourier-transform it once, mollify it at each epsilon of a dyadic list
(with the renormalisation constant computed per epsilon for the same
mollifier), and report pairwise distances in the exponentially weighted norm

    d(u, v) = max_snapshots || (u - v)(t, .) e^{-(t + ell)(1 + |x|)} ||_{L^2}.

Space-time noise is drawn with its time axis padded on both sides by more
than the mollifier's time support, and transformed at the next 5-smooth
length (zero rows appended at the tail), where the FFT is fast: the [0, T]
slab of every mollification is then the linear convolution of the drawn
noise, which the zero rows change only by round-off.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import Field, Grid, Mollifier, _generator, mollify, sample_white_noise

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "solve_renormalised",
    "solve_ito_reference",
    "solve_pam_transformed",
    "weighted_distance",
    "convergence_study",
    "weighted_norm_diag",
    "EQUATIONS",
]

#: equation -> (space dimension, equation of its renormalisation constants
#: or None where no constant is computed, kind of its driving noise)
EQUATIONS = {"pam2d": (2, None, "spatial"), "pam3d": (3, "pam3d", "spatial"),
             "she1d": (1, "she1d", "spacetime")}
_GUARD = 1e12


class BlowUpError(RuntimeError):
    def __init__(self, time):
        super().__init__(f"solution exceeded the overflow guard at t = {time:.6g}")
        self.time = time


@dataclass
class SolverConfig:
    equation: str
    grid: Grid
    eps: float
    C_eps: float = 0.0
    u0: object = "dirac"          # "dirac" | ("const", c) | ndarray (a Field is unwrapped)
    T: float = None               # defaults to grid.T
    dt: float = None              # defaults to dx^2 / 4
    seed: int = 0
    snapshots: int = 8
    snapshot_t0: float = None   # first snapshot time; defaults to T/snapshots

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        d = EQUATIONS[self.equation][0]
        if d != self.grid.d:
            raise ValueError(f"{self.equation} needs d={d}, grid has d={self.grid.d}")
        if self.T is None:
            self.T = self.grid.T
        if self.noise_kind == "spacetime" and self.T > self.grid.T * (1 + 1e-9):
            # the solver would step on past the last noise slice
            raise ValueError(f"T = {self.T} exceeds the noise's time horizon "
                             f"grid.T = {self.grid.T}")
        if self.dt is None:
            self.dt = self.grid.dx ** 2 / 4.0
        if self.eps < 2 * self.grid.dx - 1e-12:
            raise ValueError(
                f"mollification under-resolved: eps = {self.eps} < 2 dx = {2 * self.grid.dx}")
        if isinstance(self.u0, Field):
            self.u0 = self.u0.values
        if isinstance(self.u0, np.ndarray) and self.u0.shape != self.grid.space_shape():
            raise ValueError(f"initial field shape {self.u0.shape} != grid shape "
                             f"{self.grid.space_shape()}")

    @property
    def noise_kind(self) -> str:
        return EQUATIONS[self.equation][2]


@dataclass
class Trajectory:
    times: np.ndarray
    fields: list
    grid: Grid
    diagnostics: dict = field(default_factory=dict)
    dt: float = 0.0   # the step the snapshots were taken at

    def final(self) -> np.ndarray:
        return self.fields[-1]


def _heat_symbol(grid: Grid, dt: float) -> np.ndarray:
    """exp(dt Lap) multiplier on the rfftn grid (spectral Laplacian)."""
    k2 = sum(m ** 2 for m in _spectral_mesh(grid))
    return np.exp(-dt * k2)


def _spectral_mesh(grid: Grid) -> tuple:
    freqs = [2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.dx) for _ in range(grid.d - 1)]
    freqs.append(2.0 * np.pi * np.fft.rfftfreq(grid.N, d=grid.dx))
    return np.meshgrid(*freqs, indexing="ij")


def _initial_field(cfg: SolverConfig) -> np.ndarray:
    g = cfg.grid
    if isinstance(cfg.u0, np.ndarray):
        return cfg.u0.copy()
    if cfg.u0 == "dirac":
        u = np.zeros(g.space_shape())
        center = tuple(int(round(g.N / 2)) for _ in range(g.d))
        u[center] = g.dx ** -g.d
        return u
    if isinstance(cfg.u0, tuple) and cfg.u0[0] == "const":
        return np.full(g.space_shape(), float(cfg.u0[1]))
    raise ValueError(f"unsupported initial condition {cfg.u0!r}")


def _split_step(cfg: SolverConfig, u: np.ndarray, react, symbol: np.ndarray) -> Trajectory:
    """The time-stepping loop of every solver: for k < T/dt,

        u <- irfftn(rfftn(react(k, u)) * symbol),

    stopped by the overflow guard.  Snapshots are taken at the steps closest
    to the target times linspace(t0, T, snapshots), which every solver shares,
    so trajectories from solvers with different dt are comparable."""
    n_steps = int(round(cfg.T / cfg.dt))
    n = min(cfg.snapshots, n_steps)
    targets = np.linspace(cfg.T / n if cfg.snapshot_t0 is None else cfg.snapshot_t0, cfg.T, n)
    snaps = np.unique(np.clip(np.round(targets / cfg.dt).astype(int), 1, n_steps))
    axes = tuple(range(u.ndim))
    times, fields = [], []
    for k in range(n_steps):
        u = np.fft.irfftn(np.fft.rfftn(react(k, u)) * symbol, s=u.shape, axes=axes)
        if not np.all(np.abs(u) < _GUARD):
            raise BlowUpError((k + 1) * cfg.dt)
        if (k + 1) in snaps:
            times.append((k + 1) * cfg.dt)
            fields.append(u.copy())
    g = cfg.grid
    traj = Trajectory(times=np.asarray(times), fields=fields, grid=g, dt=cfg.dt)
    traj.diagnostics["mass"] = [float(f.mean()) * g.L ** g.d for f in fields]
    traj.diagnostics["max"] = [float(np.abs(f).max()) for f in fields]
    return traj


def _time_slices(cfg: SolverConfig, values: np.ndarray):
    """Step k -> the left-point time slice of space-time noise values."""
    ratio = cfg.dt / cfg.grid.dt
    return lambda k: values[min(int(k * ratio + 1e-9), cfg.grid.M - 1)]


def mollified_noise(cfg: SolverConfig, noise: Field = None) -> Field:
    """The potential's noise: sampled from cfg.seed unless supplied, then
    mollified at cfg.eps (spatial marginal mollifier for spatial noise)."""
    if noise is None:
        noise = sample_white_noise(cfg.grid, cfg.noise_kind, seed=cfg.seed)
    return mollify(noise, Mollifier(epsilon=cfg.eps))


def solve_renormalised(cfg: SolverConfig, noise: Field = None,
                       xi_eps: Field = None) -> Trajectory:
    """Exponential-splitting integration of the renormalised equation.

    Either supply the raw noise (mollified here) or a pre-mollified xi_eps.
    """
    xi = xi_eps if xi_eps is not None else mollified_noise(cfg, noise)
    if xi.kind == "spatial":
        factor = np.exp(cfg.dt * (xi.values - cfg.C_eps))
        react = lambda k, u: u * factor
    else:
        xi_k = _time_slices(cfg, xi.values)
        react = lambda k, u: u * np.exp(cfg.dt * (xi_k(k) - cfg.C_eps))
    return _split_step(cfg, _initial_field(cfg), react, _heat_symbol(cfg.grid, cfg.dt))


def solve_ito_reference(cfg: SolverConfig, noise: Field = None) -> Trajectory:
    """Semi-implicit Walsh discretisation of the 1-d Ito equation.

    u_{k+1} = (I - dt Lap_h)^{-1} (u_k + u_k eta_k), with eta_k = dt * xi
    built from the same underlying discrete white noise as the mollified
    solver (Var(eta) = dt/dx) and the second-difference Laplacian.
    """
    if cfg.equation != "she1d":
        raise ValueError("the Ito reference is defined for she1d only")
    g = cfg.grid
    if abs(cfg.dt - g.dt) > 1e-12 * g.dt:
        raise ValueError("the Ito reference consumes one fresh noise slice per "
                         f"step: set dt = grid.dt = {g.dt}")
    if noise is None:
        noise = sample_white_noise(g, "spacetime", seed=cfg.seed)
    # finite-difference symbol of the periodic second difference
    m = np.fft.rfftfreq(g.N, d=1.0 / g.N)
    lam = 4.0 * np.sin(np.pi * m / g.N) ** 2 / g.dx ** 2
    xi_k = _time_slices(cfg, noise.values)
    return _split_step(cfg, _initial_field(cfg), lambda k, u: u + u * (cfg.dt * xi_k(k)),
                       1.0 / (1.0 + cfg.dt * lam))


def solve_pam_transformed(cfg: SolverConfig, xi_eps: np.ndarray, C: float) -> Trajectory:
    """Change-of-unknown benchmark for the 2-d equation with fixed smooth
    noise: with Lap w = xi_eps - C (periodic, zero-mean right side), v =
    u e^{w} solves

        dv/dt = Lap v - 2 grad w . grad v + v |grad w|^2,

    which has no singular product; stepping it and mapping back u = v e^{-w}
    gives an independent benchmark for the direct renormalised solve."""
    g = cfg.grid
    rhs = xi_eps - C
    rhs = rhs - rhs.mean()
    mesh = _spectral_mesh(g)
    k2 = sum(mm ** 2 for mm in mesh)
    k2flat = k2.copy()
    k2flat[(0,) * g.d] = 1.0
    w_hat = -np.fft.rfftn(rhs) / k2flat
    w_hat[(0,) * g.d] = 0.0
    axes = tuple(range(g.d))
    w = np.fft.irfftn(w_hat, s=rhs.shape, axes=axes)
    grads = [np.fft.irfftn(1j * mesh[i] * w_hat, s=rhs.shape, axes=axes) for i in range(g.d)]
    grad2 = sum(gr ** 2 for gr in grads)

    def drift_step(k, v):
        v_hat = np.fft.rfftn(v)
        gv = [np.fft.irfftn(1j * mesh[i] * v_hat, s=v.shape, axes=axes) for i in range(g.d)]
        drift = -2.0 * sum(gw * gvi for gw, gvi in zip(grads, gv)) + v * grad2
        return v + cfg.dt * drift

    vt = _split_step(cfg, _initial_field(cfg) * np.exp(w), drift_step, _heat_symbol(g, cfg.dt))
    return Trajectory(times=vt.times, fields=[v * np.exp(-w) for v in vt.fields], grid=g,
                      dt=cfg.dt)


# -- distances and studies -----------------------------------------------------


def _weighted_l2(grid: Grid, times, fields, ell: float):
    """Per snapshot: the e^{-(t+ell)(1+|x|)}-weighted L^2 norm of the field."""
    r = np.sqrt(sum(m ** 2 for m in np.meshgrid(*([grid.xs] * grid.d), indexing="ij")))
    for t, f in zip(times, fields):
        a = np.abs(f) * np.exp(-(t + ell) * (1.0 + r))
        yield float((np.sum(a ** 2) * grid.dx ** grid.d) ** 0.5)


def weighted_distance(t1: Trajectory, t2: Trajectory, ell: float = 0.0) -> float:
    """sup over common snapshot times of the e^{-(t+ell)(1+|x|)}-weighted
    L^2 distance between the snapshot fields.

    The snapshot lists must line up: the same length, and times that differ
    by no more than the two solvers' rounding of shared target times to their
    own steps, (dt1 + dt2) / 2.
    """
    if len(t1.times) != len(t2.times):
        raise ValueError(f"snapshot lists differ in length: {len(t1.times)} != {len(t2.times)}")
    off = np.abs(np.asarray(t1.times) - np.asarray(t2.times))
    if off.size and off.max() > (t1.dt + t2.dt) * (0.5 + 1e-9):
        raise ValueError(f"snapshot times differ by {off.max():.6g}, more than half "
                         f"the sum of the steps {t1.dt:.6g} and {t2.dt:.6g}")
    diffs = (f1 - f2 for f1, f2 in zip(t1.fields, t2.fields))
    return max([0.0] + list(_weighted_l2(t1.grid, t1.times, diffs, ell)))


def convergence_study(equation: str, grid: Grid, eps_list, T: float,
                      seeds=(0,), ell: float = 0.0,
                      constants: dict = None, n_qmc: int = 1 << 14,
                      include_ito: bool = False, threads: int = 1,
                      snapshot_t0: float = None,
                      u0: object = ("const", 1.0), dt: float = None) -> dict:
    """Coupled-noise dyadic epsilon study.

    One noise realization per seed is mollified at every epsilon; the
    renormalisation constant is computed per epsilon (shared across seeds)
    unless supplied.  Reports pairwise weighted distances per seed and, for
    she1d with include_ito, the distance to the Ito reference.
    """
    from scipy.fft import next_fast_len

    from .renorm import compute_constants

    _, eq_renorm, kind = EQUATIONS[equation]
    # every config is checked before any constant is computed
    cfgs = {e: SolverConfig(equation=equation, grid=grid, eps=e, u0=u0, T=T, snapshots=6,
                            snapshot_t0=snapshot_t0, dt=dt) for e in eps_list}
    if constants is None:
        constants = {}
        R_G = 8.0 * max(eps_list)  # keep every eps inside the exact-Green region
        for e in eps_list:
            if eq_renorm is None:
                constants[e] = 0.0
            else:
                rc = compute_constants(eq_renorm, e, n_samples=n_qmc,
                                       seed=1000, threads=threads, R_G=R_G)
                constants[e] = rc.C_eps

    # pad the time axis so each mollification is a clean linear convolution
    # on [0, T]: all epsilons then share one noise realization with no
    # wrap-around pollution near the time endpoints
    pad, noise_dt = 0, None
    if kind == "spacetime":
        pad, noise_dt = int(np.ceil(2.0 * max(eps_list) ** 2 / grid.dt)) + 1, grid.dt

    def run_seed(seed):
        if kind == "spatial":
            noise = sample_white_noise(grid, kind, seed=seed).values
            shape = noise.shape
        else:
            noise = _generator(seed, 1).standard_normal(
                (grid.M + 2 * pad,) + grid.space_shape()) / np.sqrt(grid.dt * grid.dx ** grid.d)
            if include_ito:
                interior = Field(grid=grid, values=noise[pad:pad + grid.M].copy(),
                                 kind="spacetime")
            # transform at a 5-smooth time length (the FFT is over twice as
            # slow at lengths like M + 2 pad = 2*7*521); the zero rows added
            # at the tail change no exact value of the [0, T] slab, since the
            # kernel reaches eps^2/dt < pad rows on either side of a slab row
            shape = (next_fast_len(noise.shape[0], real=True),) + noise.shape[1:]
        F = np.fft.rfftn(noise, s=shape, axes=tuple(range(len(shape))))
        del noise  # only the spectrum is needed from here on
        trajs = {}
        for e in eps_list:
            cfg = replace(cfgs[e], C_eps=constants[e], seed=seed)
            xi = Mollifier(epsilon=e).convolve(F, shape, grid.dx, noise_dt)
            if kind == "spacetime":
                xi = xi[pad:pad + grid.M].copy()  # the [0, T] slab
            trajs[e] = solve_renormalised(cfg, xi_eps=Field(grid=grid, values=xi, kind=kind))
        dists = [weighted_distance(trajs[a], trajs[b], ell=ell)
                 for a, b in zip(eps_list, eps_list[1:])]
        out = {"pairwise": dists}
        if include_ito and equation == "she1d":
            # the finest epsilon's config, stepped at the noise's own dt
            ito = solve_ito_reference(replace(cfg, C_eps=0.0, dt=grid.dt), noise=interior)
            out["to_ito"] = [weighted_distance(trajs[e], ito, ell=ell)
                             for e in eps_list]
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            per_seed = list(ex.map(run_seed, seeds))
    else:
        per_seed = [run_seed(s) for s in seeds]
    return {"eps_list": list(eps_list), "constants": constants,
            "seeds": list(seeds), "results": per_seed}


def weighted_norm_diag(traj: Trajectory, ell: float = 0.0) -> list:
    """Per-snapshot diagnostics: the e^{-(t+ell)(1+|x|)}-weighted L^2 norm
    and the unweighted sup."""
    norms = _weighted_l2(traj.grid, traj.times, traj.fields, ell)
    return [{"t": float(t), "weighted_lp": val, "unweighted_sup": float(np.abs(f).max())}
            for t, f, val in zip(traj.times, traj.fields, norms)]
