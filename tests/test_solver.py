import numpy as np
import pytest
from scipy.fft import next_fast_len

from mshe.kernel import heat_kernel
from mshe.noise import Field, Grid, Mollifier, sample_white_noise
from mshe.solver import (
    BlowUpError,
    SolverConfig,
    convergence_study,
    solve_ito_reference,
    solve_pam_transformed,
    solve_renormalised,
    weighted_distance,
    weighted_norm_diag,
)


def _zero_noise(grid, kind):
    return Field(grid=grid, values=np.zeros(grid.shape(kind)), kind=kind)


def test_zero_noise_dirac_matches_periodized_heat_kernel():
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0="dirac",
                       T=0.25, snapshots=4, snapshot_t0=0.0625)
    traj = solve_renormalised(cfg, noise=_zero_noise(g, "spacetime"))
    x0 = g.xs[g.N // 2]
    for t, f in zip(traj.times, traj.fields):
        ref = sum(heat_kernel(t, (g.xs - x0 + j * g.L)[:, None], 1)
                  for j in range(-4, 5))
        assert np.abs(f - ref).max() < 1e-6


def test_constant_noise_exponential_growth():
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=256)
    m = 1.7
    noise = Field(grid=g, values=np.full(g.shape("spacetime"), m), kind="spacetime")
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1.0),
                       T=0.25, snapshots=4)
    traj = solve_renormalised(cfg, noise=noise)
    for t, f in zip(traj.times, traj.fields):
        assert np.abs(f - np.exp(m * t)).max() < 1e-8


def test_linearity_in_initial_data():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=512)
    noise = sample_white_noise(g, "spacetime", seed=3)
    u0a = np.exp(-4 * g.xs ** 2)
    u0b = np.cos(2 * np.pi * g.xs / g.L)
    a, b = 2.0, -0.5

    def solve(u0):
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, C_eps=1.0,
                           u0=u0, T=0.1, snapshots=2)
        return solve_renormalised(cfg, noise=noise).final()

    fa, fb = solve(u0a), solve(u0b)
    fab = solve(a * u0a + b * u0b)
    assert np.allclose(fab, a * fa + b * fb, atol=1e-10)


def test_renormalisation_covariance_bit_exact():
    # solving with (xi_eps, C) equals solving with (xi_eps - C, 0) bitwise
    from mshe.noise import Mollifier, mollify

    g = Grid(d=1, L=4.0, N=128, T=0.1, M=512)
    xi_eps = mollify(sample_white_noise(g, "spacetime", seed=5),
                     Mollifier(epsilon=4 * g.dx))
    C = 2.5
    cfg1 = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, C_eps=C,
                        u0=("const", 1.0), T=0.1, snapshots=3)
    t1 = solve_renormalised(cfg1, xi_eps=xi_eps)
    cfg2 = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, C_eps=0.0,
                        u0=("const", 1.0), T=0.1, snapshots=3)
    t2 = solve_renormalised(cfg2, xi_eps=xi_eps.copy_with(xi_eps.values - C))
    for f1, f2 in zip(t1.fields, t2.fields):
        assert np.array_equal(f1, f2)


def test_semigroup_restart_property():
    # solving to t1 and restarting equals solving straight through
    g = Grid(d=2, L=2.0, N=32)
    noise = sample_white_noise(g, "spatial", seed=7)
    dt = g.dx ** 2 / 4
    cfg_full = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.3,
                            u0=("const", 1.0), T=128 * dt, dt=dt, snapshots=2,
                            snapshot_t0=64 * dt)
    full = solve_renormalised(cfg_full, noise=noise)
    cfg_a = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.3,
                         u0=("const", 1.0), T=64 * dt, dt=dt, snapshots=1)
    half = solve_renormalised(cfg_a, noise=noise)
    cfg_b = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.3,
                         u0=half.final(), T=64 * dt, dt=dt, snapshots=1)
    rest = solve_renormalised(cfg_b, noise=noise)
    assert np.array_equal(full.final(), rest.final())


def test_pam_kernel_symmetry_2d():
    # u0 = dirac(y): (x, y) -> u(t, x) symmetric for fixed smooth noise
    g = Grid(d=2, L=2.0, N=32)
    noise = sample_white_noise(g, "spatial", seed=11)
    T = 0.05
    sources = [(8, 8), (16, 16), (8, 16), (20, 12)]
    fields = {}
    for src in sources:
        u0 = np.zeros(g.space_shape())
        u0[src] = g.dx ** -2
        cfg = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.0,
                           u0=u0, T=T, snapshots=1)
        fields[src] = solve_renormalised(cfg, noise=noise).final()
    worst = 0.0
    for a in sources:
        for b in sources:
            rel = abs(fields[a][b] - fields[b][a]) / max(abs(fields[a][b]), 1e-12)
            worst = max(worst, rel)
    assert worst < 5e-3


def test_pam2d_transformed_oracle():
    # direct renormalised solve vs change-of-unknown benchmark, fixed noise
    g = Grid(d=2, L=2.0, N=64)
    noise = sample_white_noise(g, "spatial", seed=13)
    from mshe.noise import Mollifier, mollify

    xi = mollify(noise, Mollifier(epsilon=8 * g.dx)).values
    C = float(xi.mean())  # zero-mean potential: periodic Poisson solvable
    T = 0.05
    cfg = SolverConfig(equation="pam2d", grid=g, eps=8 * g.dx, C_eps=C,
                       u0=("const", 1.0), T=T, snapshots=2)
    direct = solve_renormalised(cfg, xi_eps=Field(grid=g, values=xi, kind="spatial"))
    oracle = solve_pam_transformed(cfg, xi, C)
    for f1, f2 in zip(direct.fields, oracle.fields):
        rel = np.abs(f1 - f2).max() / np.abs(f2).max()
        assert rel < 5e-3


def test_blowup_detected():
    g = Grid(d=1, L=4.0, N=128, T=1.0, M=512)
    noise = Field(grid=g, values=np.full(g.shape("spacetime"), 80.0), kind="spacetime")
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1e9),
                       T=1.0, snapshots=2)
    with pytest.raises(BlowUpError) as exc:
        solve_renormalised(cfg, noise=noise)
    assert exc.value.time > 0


def test_blowup_detected_by_every_solver():
    # the overflow guard is part of the shared step loop
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1e13),
                       T=0.1, snapshots=2, dt=g.dt)
    with pytest.raises(BlowUpError):
        solve_ito_reference(cfg, noise=_zero_noise(g, "spacetime"))
    g2 = Grid(d=2, L=2.0, N=32)
    cfg2 = SolverConfig(equation="pam2d", grid=g2, eps=4 * g2.dx, u0=("const", 1e13),
                        T=0.01, snapshots=2)
    with pytest.raises(BlowUpError):
        solve_pam_transformed(cfg2, np.zeros(g2.space_shape()), 0.0)


def test_ito_mean_preservation():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=1024)
    means = []
    for s in range(200):
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx,
                           u0=("const", 1.0), T=0.1, seed=s, snapshots=2, dt=g.dt)
        means.append(solve_ito_reference(cfg).final().mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(means.size)
    assert abs(means.mean() - 1.0) < 3 * se


def test_ito_dirac_mean_matches_heat_kernel():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=1024)
    acc = np.zeros(g.N)
    n_seeds = 200
    for s in range(n_seeds):
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0="dirac",
                           T=0.1, seed=s, snapshots=2, dt=g.dt)
        acc += solve_ito_reference(cfg).final()
    mean = acc / n_seeds
    x0 = g.xs[g.N // 2]
    ref = sum(heat_kernel(0.1, (g.xs - x0 + j * g.L)[:, None], 1) for j in range(-3, 4))
    # implicit-Euler bias is O(dt); allow 3 SE + scheme bias
    err = np.abs(mean - ref).max()
    assert err < 0.12


def test_ito_zero_noise_reduces_to_heat():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=1024)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1.0),
                       T=0.1, snapshots=2, dt=g.dt)
    tr = solve_ito_reference(cfg, noise=_zero_noise(g, "spacetime"))
    assert np.abs(tr.final() - 1.0).max() < 1e-12


def test_ito_requires_grid_dt():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=1024)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, T=0.1)
    with pytest.raises(ValueError, match="one fresh noise slice"):
        solve_ito_reference(cfg)


def test_spacetime_noise_bounds_T():
    g = Grid(d=1, L=4.0, N=64, T=0.1, M=64)
    SolverConfig(equation="she1d", grid=g, eps=0.25, T=0.1)
    with pytest.raises(ValueError, match="time horizon"):
        SolverConfig(equation="she1d", grid=g, eps=0.25, T=0.5)
    # spatial noise is constant in time, so any T is fine
    g2 = Grid(d=2, L=2.0, N=32)
    SolverConfig(equation="pam2d", grid=g2, eps=4 * g2.dx, T=0.5)


def test_determinism_same_config():
    g = Grid(d=1, L=4.0, N=128, T=0.05, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, seed=21,
                       u0=("const", 1.0), T=0.05, snapshots=2)
    t1 = solve_renormalised(cfg)
    t2 = solve_renormalised(cfg)
    for f1, f2 in zip(t1.fields, t2.fields):
        assert np.array_equal(f1, f2)


def test_weighted_norm_diag():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0="dirac",
                       T=0.1, snapshots=3)
    traj = solve_renormalised(cfg, noise=_zero_noise(g, "spacetime"))
    rows = weighted_norm_diag(traj, ell=0.0)
    assert all(r["weighted_lp"] > 0 for r in rows)
    # zero trajectory -> all zeros
    zero = solve_renormalised(
        SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 0.0),
                     T=0.1, snapshots=3), noise=_zero_noise(g, "spacetime"))
    assert all(r["weighted_lp"] == 0 for r in weighted_norm_diag(zero))
    # monotone in ell
    rows2 = weighted_norm_diag(traj, ell=1.0)
    assert all(r2["weighted_lp"] <= r1["weighted_lp"]
               for r1, r2 in zip(rows, rows2))


def test_invalid_configs():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=256)
    with pytest.raises(ValueError, match="under-resolved"):
        SolverConfig(equation="she1d", grid=g, eps=g.dx, T=0.1)
    with pytest.raises(ValueError, match="unknown equation"):
        SolverConfig(equation="kpz", grid=g, eps=4 * g.dx, T=0.1)
    with pytest.raises(ValueError, match="needs d="):
        SolverConfig(equation="pam3d", grid=g, eps=4 * g.dx, T=0.1)


def test_convergence_study_small_she():
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=2048)
    res = convergence_study("she1d", g, [0.4, 0.2, 0.1], T=0.25, seeds=(0,),
                            constants={0.4: 0.498, 0.2: 0.996, 0.1: 1.992},
                            include_ito=True, snapshot_t0=0.125)
    r = res["results"][0]
    assert len(r["pairwise"]) == 2
    assert len(r["to_ito"]) == 3
    assert all(v > 0 for v in r["pairwise"])


def test_weighted_distance_rejects_misaligned_snapshots():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=256)

    def run(**kw):
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1.0),
                           **{"T": 0.1, **kw})
        return solve_renormalised(cfg, noise=_zero_noise(g, "spacetime"))

    base = run(snapshots=3)
    # the same targets at another step line up
    assert weighted_distance(base, run(snapshots=3, dt=g.dt)) < 1e-10
    # steps 1e-3 and 7e-4 round the target 0.00248 to 0.002 and 0.0028: more
    # than half the larger step apart, but within (dt1 + dt2) / 2
    a, b = (run(T=0.01, snapshots=2, snapshot_t0=0.00248, dt=dt) for dt in (1e-3, 7e-4))
    assert abs(a.times[0] - b.times[0]) > 0.5 * 1e-3
    assert weighted_distance(a, b) < 1e-10
    with pytest.raises(ValueError, match="length"):
        weighted_distance(base, run(snapshots=4))
    with pytest.raises(ValueError, match="times differ"):
        weighted_distance(base, run(snapshots=3, snapshot_t0=0.01))


def test_convergence_study_pam3d_equals_direct_solves():
    # transforming each seed's noise once gives, bit for bit, the distances
    # of solving every epsilon from the sampled noise
    g = Grid(d=3, L=2.0, N=16)
    eps = [1.0, 0.5, 0.25]
    constants = {1.0: 0.1, 0.5: 0.4, 0.25: 1.2}
    res = convergence_study("pam3d", g, eps, T=0.05, seeds=(0, 3),
                            constants=constants, snapshot_t0=0.01)
    for seed, r in zip(res["seeds"], res["results"]):
        noise = sample_white_noise(g, "spatial", seed)
        trajs = [solve_renormalised(
            SolverConfig(equation="pam3d", grid=g, eps=e, C_eps=constants[e],
                         u0=("const", 1.0), T=0.05, seed=seed, snapshots=6,
                         snapshot_t0=0.01), noise=noise) for e in eps]
        assert r["pairwise"] == [weighted_distance(a, b) for a, b in zip(trajs, trajs[1:])]


def test_convergence_study_she_zero_extension_does_not_wrap():
    # the study transforms the padded noise at a fast length; transforming at
    # the exact length M + 2 pad gives the same distances up to round-off, so
    # the zero rows at the tail never reach the [0, T] slab
    g = Grid(d=1, L=4.0, N=64, T=0.25, M=512)
    eps = [0.4, 0.2, 0.125]
    constants = {0.4: 0.498, 0.2: 0.996, 0.125: 1.59}
    pad = int(np.ceil(2.0 * max(eps) ** 2 / g.dt)) + 1
    rows = g.M + 2 * pad
    assert next_fast_len(rows, real=True) != rows   # 1826 = 2*11*83
    res = convergence_study("she1d", g, eps, T=0.25, seeds=(0, 3), constants=constants,
                            include_ito=True, snapshot_t0=0.125)
    for seed, r in zip(res["seeds"], res["results"]):
        rng = np.random.Generator(np.random.Philox(key=(seed, 1)))
        noise = rng.standard_normal((rows, g.N)) / np.sqrt(g.dt * g.dx)
        F = np.fft.rfftn(noise)
        trajs = []
        for e in eps:
            xi = Mollifier(epsilon=e).convolve(F, noise.shape, g.dx, g.dt)[pad:pad + g.M]
            cfg = SolverConfig(equation="she1d", grid=g, eps=e, C_eps=constants[e],
                               u0=("const", 1.0), T=0.25, seed=seed, snapshots=6,
                               snapshot_t0=0.125)
            trajs.append(solve_renormalised(cfg, xi_eps=Field(grid=g, values=xi,
                                                              kind="spacetime")))
        ito = solve_ito_reference(
            SolverConfig(equation="she1d", grid=g, eps=eps[-1], u0=("const", 1.0), T=0.25,
                         dt=g.dt, snapshots=6, snapshot_t0=0.125),
            noise=Field(grid=g, values=noise[pad:pad + g.M], kind="spacetime"))
        want = [weighted_distance(a, b) for a, b in zip(trajs, trajs[1:])]
        want_ito = [weighted_distance(t, ito) for t in trajs]
        assert r["pairwise"] == pytest.approx(want, rel=1e-12, abs=0)
        assert r["to_ito"] == pytest.approx(want_ito, rel=1e-12, abs=0)
