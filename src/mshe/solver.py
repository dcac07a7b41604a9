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
Fourier-transform it once per grid, mollify it at each epsilon of a dyadic
list (each with renorm's constant for that epsilon and mollifier), and
report pairwise distances in the exponentially weighted norm

    d(u, v) = max_snapshots || (u - v)(t, .) e^{-(t + ell)(1 + |x|)} ||_{L^2}.

Space-time noise is one realisation per seed on the whole time line
(_realisation): solve, converge and the Ito reference see the same noise for
a seed whatever epsilons are listed, and it is mollified on [0, T) by the
linear, not the circular, convolution in time.  A space-time study runs each
epsilon on its own dyadic grid at one ratio eps/dx, from block means of the
finest grid's noise, and compares the snapshots on the finest grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import Field, Grid, Mollifier, _generator, sample_white_noise
from .structure import EQUATIONS

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
]

_GUARD = 1e12
# the largest N at which per-axis GEMMs apply the heat multiplier on a 2-d or
# 3-d grid no slower than an FFT pair (ms, FFT -> GEMM, on one BLAS thread of
# an x86_64 VM: 3-d 0.45 -> 0.12 at N = 32, 37 -> 29 at 128; 2-d 0.15 -> 0.14
# at 128, 0.56 -> 1.06 at 256)
_GEMM_MAX_N = 128


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
    snapshot_dt: float = None   # if set, snapshot targets snap to its multiples in (0, T]

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        d = EQUATIONS[self.equation][0]
        if d != self.grid.d:
            raise ValueError(f"{self.equation} needs d={d}, grid has d={self.grid.d}")
        if self.T is None:
            self.T = self.grid.T
        if self.dt is None:
            self.dt = self.grid.dx ** 2 / 4.0
        for name in ("T", "dt"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.noise_kind == "spacetime" and self.T > self.grid.T * (1 + 1e-9):
            # the solver would step on past the last noise slice
            raise ValueError(f"T = {self.T} exceeds the noise's time horizon "
                             f"grid.T = {self.grid.T}")
        if self.snapshots < 1:
            raise ValueError(f"snapshots must be at least 1, got {self.snapshots}")
        if self.snapshot_t0 is not None and not 0 < self.snapshot_t0 <= self.T:
            raise ValueError(f"snapshot_t0 = {self.snapshot_t0} is outside (0, T] = (0, {self.T}]")
        if self.snapshot_dt is not None and not 0 < self.snapshot_dt <= self.T:
            raise ValueError(f"snapshot_dt = {self.snapshot_dt} is outside (0, T] = (0, {self.T}]")
        distinct = min(self.n_steps, self.snapshot_steps.size)
        if distinct < self.snapshots:
            raise ValueError(f"T = {self.T} and dt = {self.dt:.6g} give {distinct} distinct "
                             f"snapshot steps, fewer than the {self.snapshots} snapshots")
        Mollifier(epsilon=self.eps)  # rejects an eps that is not finite and positive
        if self.eps < 2 * self.grid.dx - 1e-12:
            raise ValueError(
                f"mollification under-resolved: eps = {self.eps} < 2 dx = {2 * self.grid.dx}")
        fld, g = self.u0, self.grid
        if isinstance(fld, Field):
            self.u0 = fld.values
        if isinstance(self.u0, np.ndarray) and self.u0.shape != g.space_shape():
            raise ValueError(f"initial field shape {self.u0.shape} != grid shape "
                             f"{g.space_shape()}")
        if isinstance(fld, Field) and (fld.kind, fld.grid.d, fld.grid.N, fld.grid.L) != (
                "spatial", g.d, g.N, g.L):
            raise ValueError(f"initial field is {fld.kind} with d={fld.grid.d}, N={fld.grid.N}, "
                             f"L={fld.grid.L:g}; the solve needs a spatial field with "
                             f"d={g.d}, N={g.N}, L={g.L:g}")

    @property
    def noise_kind(self) -> str:
        return EQUATIONS[self.equation][1]

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def snapshot_steps(self) -> np.ndarray:
        """The distinct steps closest to the target times linspace(t0, T,
        snapshots), each first rounded to a multiple of snapshot_dt if that is
        set.  Every solver shares the targets, so trajectories from solvers
        with different dt are comparable, and read the same times when their
        steps divide snapshot_dt."""
        t0 = self.T / self.snapshots if self.snapshot_t0 is None else self.snapshot_t0
        targets = np.linspace(t0, self.T, self.snapshots)
        if self.snapshot_dt is not None:
            last = int(self.T / self.snapshot_dt + 1e-9)
            targets = np.clip(np.round(targets / self.snapshot_dt), 1, last) * self.snapshot_dt
        return np.unique(np.clip(np.round(targets / self.dt).astype(int), 1, self.n_steps))


@dataclass
class Trajectory:
    times: np.ndarray
    fields: list
    grid: Grid
    diagnostics: dict = field(default_factory=dict)
    dt: float = 0.0   # the step the snapshots were taken at


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
    """The time-stepping loop of every solver: for k < cfg.n_steps,

        u <- irfftn(rfftn(react(k, u)) * symbol),

    stopped by the overflow guard.  Snapshots are taken at
    cfg.snapshot_steps.  u is the loop's own buffer, which react may
    overwrite.

    Every symbol passed is separable, the product of one even factor per
    axis (the heat symbol is; the Ito symbol is 1-d), so the multiplier is
    one N x N real circulant H applied along each axis, H e_j = irfft(s
    rfft(e_j)) for the symbol's line s along the last axis at wavenumber 0 on
    the other axes.  On a grid of d >= 2 axes of N <= _GEMM_MAX_N points
    each step applies H by one matmul per axis, ping-ponging between u and
    one buffer; otherwise it transforms into one spectrum buffer and back
    into u, in the axis order of numpy's irfftn."""
    snaps = cfg.snapshot_steps
    n = u.shape[-1]
    if u.ndim >= 2 and n <= _GEMM_MAX_N:
        s = symbol[(0,) * (u.ndim - 1)]
        H = np.fft.irfft(s[:, None] * np.fft.rfft(np.eye(n), axis=0), n=n, axis=0)
        other = np.empty_like(u)
    else:
        H, spec = None, np.empty(symbol.shape, dtype=complex)
    times, fields = [], []
    for k in range(cfg.n_steps):
        v = react(k, u)
        if H is None:
            np.fft.rfftn(v, out=spec)
            np.multiply(spec, symbol, out=spec)
            for axis in range(u.ndim - 1):
                np.fft.ifft(spec, axis=axis, out=spec)
            np.fft.irfft(spec, n=n, out=u)
        else:
            # last axis, then axes d-2, ..., 0, each a (stacked) GEMM
            np.matmul(v.reshape(-1, n), H, out=other.reshape(-1, n))
            u, other = other, u
            for axis in range(u.ndim - 2, -1, -1):
                np.matmul(H, u.reshape(n ** axis, n, -1), out=other.reshape(n ** axis, n, -1))
                u, other = other, u
        # |u| < _GUARD everywhere, and False for a NaN, without an |u| array
        if not (u.max() < _GUARD and u.min() > -_GUARD):
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


def _fast_len(n: int) -> int:
    """The least 5-smooth integer (2^a 3^b 5^c) at or above n."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _coarsened(grid: Grid, f: int) -> Grid:
    """The box with N/f cells per axis and M/f^2 time rows."""
    return replace(grid, N=grid.N // f, M=grid.M // f ** 2)


def _block_mean(values: np.ndarray, blocks: tuple, out: np.ndarray) -> None:
    """Writes to out the means of values over blocks of blocks[i]
    consecutive entries along axis i (each divides the axis)."""
    shape = [n for size, b in zip(values.shape, blocks) for n in (size // b, b)]
    values.reshape(shape).mean(axis=tuple(range(1, len(shape), 2)), out=out)


def _mollifier_map(noise: np.ndarray, grid: Grid, kind: str):
    """eps -> rho_eps * noise on [0, T) of grid, from one transform of the
    (padded, for space-time noise) array."""
    F, shape = np.fft.rfftn(noise), noise.shape
    dt, box = (grid.dt, slice(grid.M)) if kind == "spacetime" else (None, slice(None))

    def mollified(eps: float) -> Field:
        xi = Mollifier(epsilon=eps).convolve(F, shape, grid.dx, dt)
        return Field(grid=grid, values=xi[box], kind=kind)

    return mollified


def _realisation(grid: Grid, kind: str, seed: int, eps_max: dict) -> dict:
    """One seed's white noise, per coarsening f of eps_max (f -> the largest
    eps to mollify on the box coarsened by f; f = 1 is the box itself, f > 1
    needs space-time noise): f -> (the noise on [0, T) of that box, the map
    eps -> rho_eps * noise there for eps <= eps_max[f], from one transform).
    The f = 1 noise is sample_white_noise(grid, kind, seed).

    Space-time rows continue stream (seed, 0) past T, and the row at time
    -(j + 1) dt is row j of stream (seed, 1); the fine line is drawn once,
    as far beyond each end as the widest box's pad reaches.  Each box's pad
    on each side exceeds eps_max[f]^2 / dt_f of its rows, beyond which the
    mollifier's time factor vanishes.  Its array is [forward rows | zero rows
    | past rows, latest last] at a 5-smooth length (the FFT is over twice as
    slow at lengths like 2*7*521): a rotation of the line, so no [0, T) row's
    kernel reaches a zero row.

    The value at node (t_i, x) is the mean of the noise over the cell
    [t_i, t_i + dt) x [x, x + dx)^d that starts there (the left-point
    convention of the steppers), so a coarse cell holds the mean of the
    f^2 x f^d fine cells from its node on, pad rows included: exactly white
    noise on the coarse cells, variance 1/(dx_f^d dt_f).  The half cell
    between a cell's centre and its node scales with the box, so at one
    ratio eps/dx every box mollifies by the same lattice scheme, rescaled.
    """
    if kind == "spatial":
        noise = sample_white_noise(grid, kind, seed=seed).values
        return {1: (Field(grid=grid, values=noise, kind=kind),
                    _mollifier_map(noise, grid, kind))}
    pads = {f: int(np.ceil(e ** 2 / (f * f * grid.dt))) + 1 for f, e in eps_max.items()}
    reach = max(f * f * pad for f, pad in pads.items())   # fine rows beyond each end
    space, M = grid.space_shape(), grid.M
    line = _generator(seed).standard_normal((M + reach,) + space)
    past = _generator(seed, 1).standard_normal((reach,) + space)
    scale = np.sqrt(grid.dx ** grid.d * grid.dt)
    out = {}
    for f, pad in sorted(pads.items()):
        g, blocks, rows = _coarsened(grid, f), (f * f,) + (f,) * grid.d, f * f * pad
        noise = np.zeros((_fast_len(g.M + 2 * pad),) + g.space_shape())
        _block_mean(line[:M + rows], blocks, noise[:g.M + pad])
        _block_mean(past[:rows], blocks, noise[-pad:][::-1])
        noise /= scale
        out[f] = (Field(grid=g, values=noise[:g.M], kind=kind), _mollifier_map(noise, g, kind))
    return out


def mollified_noise(cfg: SolverConfig) -> Field:
    """The potential's noise: cfg.seed's realisation mollified at cfg.eps
    (by the spatial marginal mollifier for spatial noise)."""
    _, mollified = _realisation(cfg.grid, cfg.noise_kind, cfg.seed, {1: cfg.eps})[1]
    return mollified(cfg.eps)


def _resample(u: np.ndarray, n: int) -> np.ndarray:
    """The trigonometric interpolant of periodic samples u, sampled at n
    points per axis (n and u's lengths m powers of two): along each axis the
    rfft, zero-padded to n with the bin at m/2 split in half between +-m/2
    (so that a real field stays real and u is reproduced at every (n/m)-th
    point), or cut to n's band with the bins +-n/2 joined in one (so that a
    field with no frequency above n/2 cells is subsampled, and the mean
    kept).  Cutting inverts padding."""
    for axis in range(u.ndim):
        m = u.shape[axis]
        if m != n:
            U = np.fft.rfft(u, axis=axis)
            U.swapaxes(0, axis)[min(m, n) // 2] *= 0.5 if n > m else 2.0
            u = np.fft.irfft(U, n, axis=axis) * (n / m)
    return u


def solve_renormalised(cfg: SolverConfig, xi_eps: Field = None) -> Trajectory:
    """Exponential-splitting integration of the renormalised equation, with
    the potential xi_eps if supplied, else mollified_noise(cfg)."""
    xi = xi_eps if xi_eps is not None else mollified_noise(cfg)
    if xi.kind == "spatial":
        factor = np.exp(cfg.dt * (xi.values - cfg.C_eps))
        react = lambda k, u: np.multiply(u, factor, out=u)
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


def solve_pam_transformed(cfg: SolverConfig, xi_eps: Field = None) -> Trajectory:
    """Change-of-unknown benchmark for the 2-d equation with fixed smooth
    noise (xi_eps if supplied, else mollified_noise(cfg)): with periodic
    Lap w = xi_eps - mean(xi_eps), v = u e^{w} solves

        dv/dt = Lap v - 2 grad w . grad v + v (|grad w|^2 + mean(xi_eps) - C_eps),

    which has no singular product; stepping it and mapping back u = v e^{-w}
    gives an independent benchmark for the direct renormalised solve."""
    g = cfg.grid
    xi = (xi_eps if xi_eps is not None else mollified_noise(cfg)).values
    rhs = xi - xi.mean()
    mesh = _spectral_mesh(g)
    k2 = sum(mm ** 2 for mm in mesh)
    k2flat = k2.copy()
    k2flat[(0,) * g.d] = 1.0
    w_hat = -np.fft.rfftn(rhs) / k2flat
    w_hat[(0,) * g.d] = 0.0
    axes = tuple(range(g.d))
    w = np.fft.irfftn(w_hat, s=rhs.shape, axes=axes)
    grads = [np.fft.irfftn(1j * mesh[i] * w_hat, s=rhs.shape, axes=axes) for i in range(g.d)]
    potential = sum(gr ** 2 for gr in grads) + (xi.mean() - cfg.C_eps)

    def drift_step(k, v):
        v_hat = np.fft.rfftn(v)
        gv = [np.fft.irfftn(1j * mesh[i] * v_hat, s=v.shape, axes=axes) for i in range(g.d)]
        drift = -2.0 * sum(gw * gvi for gw, gvi in zip(grads, gv)) + v * potential
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
    own steps, (dt1 + dt2) / 2.  The two must share their space grid.
    """
    g1, g2 = ((g.d, g.N, g.L) for g in (t1.grid, t2.grid))
    if g1 != g2:
        raise ValueError("the trajectories are on different space grids: (d, N, L) = "
                         f"{g1} and {g2}")
    if len(t1.times) != len(t2.times):
        raise ValueError(f"snapshot lists differ in length: {len(t1.times)} != {len(t2.times)}")
    off = np.abs(np.asarray(t1.times) - np.asarray(t2.times))
    if off.size and off.max() > (t1.dt + t2.dt) * (0.5 + 1e-9):
        raise ValueError(f"snapshot times differ by {off.max():.6g}, more than half "
                         f"the sum of the steps {t1.dt:.6g} and {t2.dt:.6g}")
    diffs = (f1 - f2 for f1, f2 in zip(t1.fields, t2.fields))
    return max([0.0] + list(_weighted_l2(t1.grid, t1.times, diffs, ell)))


def _coarsening(grid: Grid, eps: float, eps_min: float) -> int:
    """The largest power of two f with eps / (f dx) >= eps_min / dx, at least
    2 cells on the box coarsened by f, and f^2 <= M (so f^2 divides M)."""
    f = 1
    while eps / (2 * f) >= eps_min * (1 - 1e-12) and 4 * f <= grid.N and 4 * f * f <= grid.M:
        f *= 2
    return f


def _study_config(finest: SolverConfig, eps: float, f: int, coarsest: int) -> SolverConfig:
    """The finest epsilon's config for eps on the box coarsened by f, at the
    step f^2 dt, with an initial field cut to the coarse band (_resample:
    the node values of a field the coarse grid resolves, the mean of any);
    when the study coarsens, snapshot targets snap to the coarsest step
    coarsest^2 dt."""
    u0 = finest.u0
    if isinstance(u0, np.ndarray):
        u0 = _resample(u0, finest.grid.N // f)
    return replace(finest, grid=_coarsened(finest.grid, f), eps=eps, dt=f * f * finest.dt,
                   u0=u0, snapshot_dt=coarsest ** 2 * finest.dt if coarsest > 1 else None)


def convergence_study(equation: str, grid: Grid, eps_list, T: float | None,
                      seeds=(0,), ell: float = 0.0,
                      constants: dict = None, n_qmc: int = 1 << 14,
                      include_ito: bool = False, threads: int = 1,
                      snapshot_t0: float = None,
                      u0: object = ("const", 1.0), dt: float = None) -> dict:
    """Coupled-noise dyadic epsilon study.

    One noise realization per seed is mollified at every epsilon.  Unless
    supplied, each epsilon's renormalisation constant (shared across seeds)
    is the one renorm reports for it at seed 1000 and n_qmc samples, whatever
    else is listed.  Reports pairwise weighted distances per seed and, for
    she1d with include_ito, the distance to the Ito reference.  T = None runs
    to grid.T.

    With space-time noise each epsilon runs on its own dyadic grid: the
    finest keeps grid and dt, and a coarser one takes the largest
    power-of-two coarsening f (_coarsening) that keeps its ratio eps/dx at
    or above the finest one's, N/f cells and M/f^2 noise rows of block-mean
    noise (_realisation), stepped at f^2 dt.  f is capped until every config
    is valid, so the study accepts whatever the uncoarsened one does.  Its
    snapshots are upsampled spectrally to grid, and the snapshot targets sit
    on multiples of the coarsest step, so that every epsilon and the Ito
    reference (on grid, at the noise's own dt) read the same times.  Spatial
    noise runs every epsilon on grid.
    """
    from .renorm import compute_constants

    if not seeds:
        raise ValueError("a convergence study needs at least 1 seed")
    if include_ito and equation != "she1d":
        raise ValueError(f"the Ito reference is defined for she1d only, not {equation}")
    kind = EQUATIONS[equation][1]
    # every config is checked before any constant is computed
    finest = SolverConfig(equation=equation, grid=grid, eps=min(eps_list), u0=u0, T=T,
                          snapshots=6, snapshot_t0=snapshot_t0, dt=dt)
    wanted = {e: _coarsening(grid, e, finest.eps) if kind == "spacetime" else 1
              for e in eps_list}
    coarsest = max(wanted.values())
    # at coarsest = 1 these are the one-grid configs, whose errors are the study's
    while True:
        try:
            cfgs = {e: _study_config(finest, e, min(f, coarsest), coarsest)
                    for e, f in wanted.items()}
            ito_cfg = replace(cfgs[finest.eps], dt=grid.dt) if include_ito else None
            break
        except ValueError:
            if coarsest == 1:
                raise
            coarsest //= 2
    f_of = {e: grid.N // cfg.grid.N for e, cfg in cfgs.items()}
    eps_max = {f: max(e for e in eps_list if f_of[e] == f) for f in set(f_of.values())}
    if constants is None:
        constants = {e: rc.C_eps for e, rc in zip(
            eps_list, compute_constants(equation, eps_list, n_samples=n_qmc, seed=1000,
                                        threads=threads))}

    def run_seed(seed):
        noise = _realisation(grid, kind, seed, eps_max)
        trajs = {}
        for e in eps_list:
            cfg = replace(cfgs[e], C_eps=constants[e], seed=seed)
            _, mollified = noise[f_of[e]]
            traj = solve_renormalised(cfg, xi_eps=mollified(e))
            trajs[e] = replace(traj, grid=grid,
                               fields=[_resample(u, grid.N) for u in traj.fields])
        dists = [weighted_distance(trajs[a], trajs[b], ell=ell)
                 for a, b in zip(eps_list, eps_list[1:])]
        out = {"pairwise": dists}
        if include_ito:
            ito = solve_ito_reference(replace(ito_cfg, seed=seed), noise=noise[1][0])
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
    """Per snapshot, the e^{-(t+ell)(1+|x|)}-weighted L^2 norm (the
    unweighted sup is traj.diagnostics["max"])."""
    return list(_weighted_l2(traj.grid, traj.times, traj.fields, ell))
