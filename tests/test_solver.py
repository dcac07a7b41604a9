from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from mshe import solver
from mshe.kernel import heat_kernel
from mshe.noise import Field, Grid, Mollifier, _generator, mollify, sample_white_noise
from mshe.solver import (
    BlowUpError,
    SolverConfig,
    convergence_study,
    mollified_noise,
    solve_ito_reference,
    solve_pam_transformed,
    solve_renormalised,
    weighted_distance,
    weighted_norm_diag,
)
from mshe.solver import _fast_len, _heat_symbol, _initial_field, _realisation, _resample
from mshe.solver import _study_config


def _zero_noise(grid, kind):
    return Field(grid=grid, values=np.zeros(grid.shape(kind)), kind=kind)


def test_zero_noise_dirac_matches_periodized_heat_kernel():
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0="dirac",
                       T=0.25, snapshots=4, snapshot_t0=0.0625)
    traj = solve_renormalised(cfg, xi_eps=mollify(_zero_noise(g, "spacetime"),
                                                  Mollifier(epsilon=cfg.eps)))
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
    traj = solve_renormalised(cfg, xi_eps=mollify(noise, Mollifier(epsilon=cfg.eps)))
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
        return solve_renormalised(cfg, xi_eps=mollify(noise, Mollifier(epsilon=cfg.eps))).fields[-1]

    fa, fb = solve(u0a), solve(u0b)
    fab = solve(a * u0a + b * u0b)
    assert np.allclose(fab, a * fa + b * fb, atol=1e-10)


@settings(max_examples=20)
@given(equation=st.sampled_from(["pam2d", "pam3d", "she1d"]),
       C=st.floats(-4.0, 4.0), eps_cells=st.integers(2, 6), seed=st.integers(0, 2 ** 16))
@example(equation="she1d", C=2.5, eps_cells=4, seed=5)
def test_renormalisation_covariance_bit_exact(equation, C, eps_cells, seed):
    # solving with (xi_eps, C) equals solving with (xi_eps - C, 0) bitwise
    g, kind = {"pam2d": (Grid(d=2, L=4.0, N=16), "spatial"),
               "pam3d": (Grid(d=3, L=2.0, N=8), "spatial"),
               "she1d": (Grid(d=1, L=4.0, N=128, T=0.1, M=512), "spacetime")}[equation]
    eps = eps_cells * g.dx
    xi_eps = mollify(sample_white_noise(g, kind, seed=seed), Mollifier(epsilon=eps))

    def solve(xi, C_eps):
        cfg = SolverConfig(equation=equation, grid=g, eps=eps, C_eps=C_eps,
                           u0=("const", 1.0), T=g.T or 0.05, snapshots=3)
        return solve_renormalised(cfg, xi_eps=xi).fields

    for f1, f2 in zip(solve(xi_eps, C), solve(xi_eps.copy_with(xi_eps.values - C), 0.0)):
        assert np.array_equal(f1, f2)


def test_semigroup_restart_property():
    # solving to t1 and restarting equals solving straight through
    g = Grid(d=2, L=2.0, N=32)
    noise = sample_white_noise(g, "spatial", seed=7)
    dt = g.dx ** 2 / 4
    cfg_full = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.3,
                            u0=("const", 1.0), T=128 * dt, dt=dt, snapshots=2,
                            snapshot_t0=64 * dt)
    full = solve_renormalised(cfg_full, xi_eps=mollify(noise, Mollifier(epsilon=cfg_full.eps)))
    cfg_a = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.3,
                         u0=("const", 1.0), T=64 * dt, dt=dt, snapshots=1)
    half = solve_renormalised(cfg_a, xi_eps=mollify(noise, Mollifier(epsilon=cfg_a.eps)))
    cfg_b = SolverConfig(equation="pam2d", grid=g, eps=4 * g.dx, C_eps=0.3,
                         u0=half.fields[-1], T=64 * dt, dt=dt, snapshots=1)
    rest = solve_renormalised(cfg_b, xi_eps=mollify(noise, Mollifier(epsilon=cfg_b.eps)))
    assert np.array_equal(full.fields[-1], rest.fields[-1])


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
        fields[src] = solve_renormalised(
            cfg, xi_eps=mollify(noise, Mollifier(epsilon=cfg.eps))).fields[-1]
    worst = 0.0
    for a in sources:
        for b in sources:
            rel = abs(fields[a][b] - fields[b][a]) / max(abs(fields[a][b]), 1e-12)
            worst = max(worst, rel)
    assert worst < 5e-3


@pytest.mark.parametrize("offset", [0.0, 5.0, -3.0])
def test_pam2d_transformed_oracle(offset):
    # direct renormalised solve vs change-of-unknown benchmark, fixed noise;
    # a constant away from mean(xi) scales u by e^{(mean - C) t}, which the
    # benchmark must carry in its potential
    g = Grid(d=2, L=2.0, N=64)
    noise = sample_white_noise(g, "spatial", seed=13)
    xi = mollify(noise, Mollifier(epsilon=8 * g.dx))
    T = 0.05
    cfg = SolverConfig(equation="pam2d", grid=g, eps=8 * g.dx,
                       C_eps=float(xi.values.mean()) + offset,
                       u0=("const", 1.0), T=T, snapshots=2)
    direct = solve_renormalised(cfg, xi_eps=xi)
    oracle = solve_pam_transformed(cfg, xi)
    for f1, f2 in zip(direct.fields, oracle.fields):
        rel = np.abs(f1 - f2).max() / np.abs(f2).max()
        assert rel < 5e-3


def test_blowup_detected():
    g = Grid(d=1, L=4.0, N=128, T=1.0, M=512)
    noise = Field(grid=g, values=np.full(g.shape("spacetime"), 80.0), kind="spacetime")
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1e9),
                       T=1.0, snapshots=2)
    with pytest.raises(BlowUpError) as exc:
        solve_renormalised(cfg, xi_eps=mollify(noise, Mollifier(epsilon=cfg.eps)))
    assert exc.value.time > 0


def test_blowup_detected_by_every_solver():
    # the overflow guard is part of the shared step loop
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1e13),
                       T=0.1, snapshots=2, dt=g.dt)
    with pytest.raises(BlowUpError):
        solve_ito_reference(cfg, noise=_zero_noise(g, "spacetime"))
    with pytest.raises(BlowUpError):  # the FFT step
        solve_renormalised(cfg, xi_eps=_zero_noise(g, "spacetime"))
    g3 = Grid(d=3, L=2.0, N=16)
    cfg3 = SolverConfig(equation="pam3d", grid=g3, eps=4 * g3.dx, u0=("const", 1e13),
                        T=0.01, snapshots=2)
    with pytest.raises(BlowUpError):  # the GEMM step
        solve_renormalised(cfg3, xi_eps=_zero_noise(g3, "spatial"))
    g2 = Grid(d=2, L=2.0, N=32)
    cfg2 = SolverConfig(equation="pam2d", grid=g2, eps=4 * g2.dx, u0=("const", 1e13),
                        T=0.01, snapshots=2)
    with pytest.raises(BlowUpError):
        solve_pam_transformed(cfg2, _zero_noise(g2, "spatial"))


def test_ito_mean_preservation():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=1024)
    means = []
    for s in range(200):
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx,
                           u0=("const", 1.0), T=0.1, seed=s, snapshots=2, dt=g.dt)
        means.append(solve_ito_reference(cfg).fields[-1].mean())
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
        acc += solve_ito_reference(cfg).fields[-1]
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
    assert np.abs(tr.fields[-1] - 1.0).max() < 1e-12


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
    xi = mollify(_zero_noise(g, "spacetime"), Mollifier(epsilon=cfg.eps))
    traj = solve_renormalised(cfg, xi_eps=xi)
    norms = weighted_norm_diag(traj, ell=0.0)
    assert len(norms) == 3 and all(v > 0 for v in norms)
    # zero trajectory -> all zeros
    cfg0 = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 0.0),
                        T=0.1, snapshots=3)
    zero = solve_renormalised(cfg0, xi_eps=mollify(_zero_noise(g, "spacetime"),
                                                   Mollifier(epsilon=cfg0.eps)))
    assert all(v == 0 for v in weighted_norm_diag(zero))
    # monotone in ell
    assert all(v1 <= v0 for v0, v1 in zip(norms, weighted_norm_diag(traj, ell=1.0)))


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


def test_convergence_study_ito_only_for_she1d():
    # the Ito reference exists for she1d only: asking for it elsewhere is an
    # input error, not a study without Ito rows
    g = Grid(d=3, L=2.0, N=16)
    with pytest.raises(ValueError, match="defined for she1d only, not pam3d"):
        convergence_study("pam3d", g, [1.0, 0.5], T=0.05, constants={1.0: 0.1, 0.5: 0.4},
                          include_ito=True)


def test_weighted_distance_rejects_misaligned_snapshots():
    g = Grid(d=1, L=4.0, N=128, T=0.1, M=256)

    def run(**kw):
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1.0),
                           **{"T": 0.1, **kw})
        return solve_renormalised(cfg, xi_eps=mollify(_zero_noise(g, "spacetime"),
                                                      Mollifier(epsilon=cfg.eps)))

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
    # of solving every epsilon on its own from the seed's noise
    g = Grid(d=3, L=2.0, N=16)
    eps = [1.0, 0.5, 0.25]
    constants = {1.0: 0.1, 0.5: 0.4, 0.25: 1.2}
    res = convergence_study("pam3d", g, eps, T=0.05, seeds=(0, 3),
                            constants=constants, snapshot_t0=0.01)
    for seed, r in zip(res["seeds"], res["results"]):
        trajs = [solve_renormalised(
            SolverConfig(equation="pam3d", grid=g, eps=e, C_eps=constants[e],
                         u0=("const", 1.0), T=0.05, seed=seed, snapshots=6,
                         snapshot_t0=0.01)) for e in eps]
        assert r["pairwise"] == [weighted_distance(a, b) for a, b in zip(trajs, trajs[1:])]


def test_convergence_study_she_equals_direct_solves():
    # each eps runs on its own dyadic grid: f = 4, 2, 1 give N/f cells, M/f^2
    # noise rows and the step f^2 dt, all at eps/dx = 2.  Its noise is the
    # block means of the seed's fine noise on the whole time line (stream
    # (seed, 0) from t = 0, (seed, 1) before it), mollified there by a linear
    # convolution in time, and the snapshot targets sit on multiples of the
    # coarsest step 16 dt.  Solving each eps so, upsampling its snapshots to
    # the fine grid, and the Ito reference from its default draw on the fine
    # grid give the study's distances up to round-off: the study pads each
    # grid for its own eps at a fast length
    g = Grid(d=1, L=4.0, N=64, T=0.25, M=512)
    eps, fs = [0.5, 0.25, 0.125], [4, 2, 1]
    constants = {0.5: 0.4, 0.25: 0.8, 0.125: 1.6}
    dt = g.dx ** 2 / 4
    # the study's padded lengths are 98, 194 and 578 rows, none 5-smooth, so
    # each grid's pad to _fast_len is exercised
    rows = [g.M // f ** 2 + 2 * (int(np.ceil(e ** 2 / (f * f * g.dt))) + 1)
            for e, f in zip(eps, fs)]
    assert [next_fast_len(n, real=True) != n for n in rows] == [True] * 3, rows
    res = convergence_study("she1d", g, eps, T=0.25, seeds=(0, 3), constants=constants,
                            include_ito=True, snapshot_t0=0.125)
    pad = 1024   # fine rows beyond each end: past every kernel's reach, 64 * 16
    for seed, r in zip(res["seeds"], res["results"]):
        line = np.concatenate([_generator(seed, 1).standard_normal((pad, g.N))[::-1],
                               _generator(seed).standard_normal((g.M + pad, g.N))])
        line /= np.sqrt(g.dx * g.dt)
        trajs = []
        for e, f in zip(eps, fs):
            gf = Grid(d=1, L=g.L, N=g.N // f, T=g.T, M=g.M // f ** 2)
            coarse = line.reshape(-1, f * f, gf.N, f).mean(axis=(1, 3))
            xi = Mollifier(epsilon=e).convolve(np.fft.rfftn(coarse), coarse.shape,
                                               gf.dx, gf.dt)
            rows = slice(pad // f ** 2, pad // f ** 2 + gf.M)
            cfg = SolverConfig(equation="she1d", grid=gf, eps=e, C_eps=constants[e],
                               u0=("const", 1.0), T=0.25, seed=seed, snapshots=6,
                               snapshot_t0=0.125, dt=f * f * dt, snapshot_dt=16 * dt)
            traj = solve_renormalised(cfg, xi_eps=Field(grid=gf, values=xi[rows],
                                                        kind="spacetime"))
            trajs.append(replace(traj, grid=g,
                                 fields=[_resample(u, g.N) for u in traj.fields]))
        ito = solve_ito_reference(replace(cfg, C_eps=0.0, dt=g.dt))
        assert np.array_equal(ito.times, trajs[0].times)
        want = [weighted_distance(a, b) for a, b in zip(trajs, trajs[1:])]
        want_ito = [weighted_distance(t, ito) for t in trajs]
        assert r["pairwise"] == pytest.approx(want, rel=1e-12, abs=0)
        assert r["to_ito"] == pytest.approx(want_ito, rel=1e-12, abs=0)


def test_convergence_study_she_independent_of_the_list():
    # an eps's grid depends only on it and the finest eps, its pad only on the
    # largest eps of that grid, and the snapshot times only on the coarsest
    # grid: lists that share their finest and coarsest eps give the same
    # distances for the eps they share.  0.3 joins the grid of 0.25 (f = 2)
    # and widens its pad
    g = Grid(d=1, L=4.0, N=64, T=0.25, M=512)
    constants = {0.5: 0.4, 0.3: 0.66, 0.25: 0.8, 0.125: 1.6}
    long, short = (convergence_study("she1d", g, eps, T=0.25, seeds=(0, 3),
                                     constants=constants, include_ito=True,
                                     snapshot_t0=0.125)["results"]
                   for eps in ([0.5, 0.3, 0.25, 0.125], [0.5, 0.25, 0.125]))
    for a, b in zip(long, short):
        assert a["pairwise"][2:] == pytest.approx(b["pairwise"][1:], rel=1e-12, abs=0)
        assert [a["to_ito"][i] for i in (0, 2, 3)] == pytest.approx(b["to_ito"],
                                                                     rel=1e-12, abs=0)


def test_coarse_noise_is_the_block_mean_of_the_fine_cells():
    # each coarse cell (f^2 fine rows by f fine cells) holds the mean of the
    # seed's fine cells it covers, so its variance is 1/(dx_f dt_f); over n
    # cells the sample variance has relative standard deviation sqrt(2/n)
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=1024)
    fine = sample_white_noise(g, "spacetime", seed=5).values
    noise = _realisation(g, "spacetime", 5, {1: 0.0625, 2: 0.125, 4: 0.25})
    assert np.array_equal(noise[1][0].values, fine)
    for f in (2, 4):
        coarse = noise[f][0]
        assert coarse.grid == Grid(d=1, L=4.0, N=256 // f, T=0.25, M=1024 // f ** 2)
        blocks = np.array([[fine[i * f * f:(i + 1) * f * f, j * f:(j + 1) * f].mean()
                            for j in range(coarse.grid.N)] for i in range(coarse.grid.M)])
        np.testing.assert_allclose(coarse.values, blocks, rtol=1e-12, atol=1e-12 * fine.std())
        n = coarse.values.size
        var = coarse.values.var() * coarse.grid.dx * coarse.grid.dt
        assert abs(var - 1.0) < 5.0 * np.sqrt(2.0 / n), (f, n, var)


def test_resample_is_the_trigonometric_interpolant():
    rng = np.random.default_rng(0)
    m, n = 16, 64
    u = rng.standard_normal(m)
    up = _resample(u, n)
    assert np.abs(up[::n // m] - u).max() < 1e-14 * np.abs(u).max()
    # cutting the interpolant back to m points gives u
    assert np.abs(_resample(up, m) - u).max() < 1e-14 * np.abs(u).max()
    # a band-limited field, with a cosine at the coarse Nyquist frequency, is
    # reproduced at every fine point
    x = lambda k: np.arange(k) / k

    def field(k):
        out = 0.7 * np.cos(np.pi * m * x(k))
        for q in range(m // 2):
            out = out + np.cos(2 * np.pi * q * x(k) + q) / (1 + q)
        return out

    assert np.abs(_resample(field(m), n) - field(n)).max() < 1e-13
    # and per axis on a 2-d product
    u2 = np.outer(field(m), field(m)[::-1])
    assert np.abs(_resample(u2, n) - np.outer(field(n), _resample(field(m)[::-1], n))).max() \
        < 1e-12
    # cutting keeps the mean: the fine Dirac mass, cut to a coarse grid, is
    # the coarse one but for its Nyquist mode, which the heat flow damps first
    def dirac(N):
        g = Grid(d=1, L=4.0, N=N, T=0.01, M=8)
        return _initial_field(SolverConfig(equation="she1d", grid=g, eps=1.0, u0="dirac",
                                           dt=1e-3, T=0.01, snapshots=1))

    diff = np.fft.rfft(_resample(dirac(n), m) - dirac(m))
    assert np.abs(diff[:-1]).max() < 1e-13 * dirac(m).max()


@pytest.mark.parametrize("T, coarsest", [(0.02, 4), (12 * (4.0 / 256) ** 2 / 4, 1)])
def test_convergence_study_near_the_cap(T, coarsest):
    # eps = 0.4 would run at f = 8, stepping 64 dt; a short run has fewer than
    # its 6 distinct snapshot steps there, so the coarsest f halves until every
    # config is valid: to 4 at T = 0.02, to the one grid for a run of 12 fine
    # steps (6 Ito steps).  Both runs are accepted, as on the one grid
    g = Grid(d=1, L=4.0, N=256, T=0.25, M=2048)
    dt = g.dx ** 2 / 4

    def coarsest_config(f):
        return SolverConfig(equation="she1d", eps=0.4, T=T, snapshots=6, dt=f * f * dt,
                            grid=Grid(d=1, L=4.0, N=256 // f, T=0.25, M=2048 // f ** 2),
                            snapshot_dt=f * f * dt)

    with pytest.raises(ValueError):
        coarsest_config(2 * coarsest)
    assert coarsest_config(coarsest).snapshot_steps.size == 6
    eps = [0.4, 0.2, 0.1, 0.05]
    r = convergence_study("she1d", g, eps, T=T, seeds=(1,), include_ito=True,
                          constants={e: 0.2 / e for e in eps})["results"][0]
    assert len(r["pairwise"]) == 3 and len(r["to_ito"]) == 4
    assert all(np.isfinite(v) and v > 0 for v in r["pairwise"] + r["to_ito"])


def test_convergence_study_cuts_an_array_u0_to_the_coarse_band(monkeypatch):
    # an array u0 reaches each coarse grid cut to that grid's band (_resample),
    # so a band-limited u0 keeps its values at the coarse nodes.  Under one
    # constant noise and one constant every eps then solves the same equation,
    # exactly on each grid, and the upsampled coarse snapshots equal the fine
    # ones to round-off; block means would shift u0 by (f - 1) dx / 2
    g = Grid(d=1, L=4.0, N=64, T=0.25, M=512)
    x = 2 * np.pi * g.xs / g.L
    u0 = 1.0 + 0.5 * np.cos(x) + 0.3 * np.sin(3 * x + 1.0) + 0.2 * np.cos(7 * x)
    finest = SolverConfig(equation="she1d", grid=g, eps=0.125, u0=u0, T=0.25, snapshots=6)
    for f in (2, 4):
        assert np.abs(_study_config(finest, 0.5, f, 4).u0 - u0[::f]).max() < 1e-14

    def constant_noise(grid, kind, seed, eps_max):
        out = {}
        for f in eps_max:
            xi = Field(grid=replace(grid, N=grid.N // f, M=grid.M // f ** 2), kind=kind,
                       values=np.full((grid.M // f ** 2, grid.N // f), 0.7))
            out[f] = (xi, lambda eps, xi=xi: xi)
        return out

    monkeypatch.setattr("mshe.solver._realisation", constant_noise)
    eps = [0.5, 0.25, 0.125]
    res = convergence_study("she1d", g, eps, T=0.25, u0=u0, constants=dict.fromkeys(eps, 1.2),
                            snapshot_t0=0.125, include_ito=True)
    r = res["results"][0]
    assert max(r["pairwise"]) < 1e-13, r["pairwise"]
    # the distances are those of solutions of size one
    assert min(r["to_ito"]) > 0.01, r["to_ito"]


def test_weighted_distance_needs_one_space_grid():
    # a different N failed with a numpy broadcast error, a different L gave a
    # silently wrong number: both are refused, naming both grids
    def run(N, L):
        g = Grid(d=1, L=L, N=N, T=0.1, M=256)
        cfg = SolverConfig(equation="she1d", grid=g, eps=4 * 4.0 / 128, u0=("const", 1.0),
                           T=0.1, snapshots=3, dt=1e-4)
        return solve_renormalised(cfg, xi_eps=mollify(_zero_noise(g, "spacetime"),
                                                      Mollifier(epsilon=cfg.eps)))

    base = run(128, 4.0)
    for other, want in ((run(256, 4.0), r"\(1, 256, 4.0\)"),
                        (run(128, 8.0), r"\(1, 128, 8.0\)")):
        with pytest.raises(ValueError, match=r"different space grids.*\(1, 128, 4.0\) and "
                           + want):
            weighted_distance(base, other)


def test_mollified_noise_reaches_past_the_time_edges():
    # on [0, T) the potential is the seed's noise mollified on the whole time
    # line: away from the edges it is the circular mollification of the
    # [0, T) noise; within eps^2/dt rows of t = 0 the kernel reads noise from
    # before 0, not from the end of the run
    g = Grid(d=1, L=4.0, N=64, T=0.25, M=512)
    cfg = SolverConfig(equation="she1d", grid=g, eps=0.2, seed=3, T=0.25)
    circular = mollify(sample_white_noise(g, "spacetime", seed=3),
                       Mollifier(epsilon=cfg.eps)).values
    rows = np.abs(mollified_noise(cfg).values - circular).max(axis=1) / np.abs(circular).max()
    w = int(np.ceil(cfg.eps ** 2 / g.dt))
    assert rows[w:g.M - w].max() < 1e-9
    assert np.all(rows[:w // 2] > 1e-3)


def test_fast_len_matches_scipy():
    for n in range(1, 5001):
        assert _fast_len(n) == next_fast_len(n, real=True), n


def _irfftn_step(u, symbol):
    return np.fft.irfftn(np.fft.rfftn(u) * symbol, s=u.shape, axes=tuple(range(u.ndim)))


def _gemm_step(u, symbol):
    # the axis circulant of the symbol's last-axis line, applied along the
    # last axis, then along axes d - 2, ..., 0
    n = u.shape[-1]
    s = symbol[(0,) * (u.ndim - 1)]
    H = np.fft.irfft(s[:, None] * np.fft.rfft(np.eye(n), axis=0), n=n, axis=0)
    v = u.reshape(-1, n) @ H
    if u.ndim == 3:
        v = H @ v.reshape(n, n, n)
    return (H @ v.reshape(n, -1)).reshape(u.shape)


@pytest.mark.parametrize("equation,grid", [
    ("pam3d", Grid(d=3, L=2.0, N=16)),
    ("she1d", Grid(d=1, L=4.0, N=128, T=0.05, M=256)),
    ("pam2d", Grid(d=2, L=4.0, N=256)),
])
def test_step_loop_matches_numpy_irfftn(equation, grid):
    # the step that reuses its buffers is, bit for bit, the one that
    # allocates: u <- irfftn(rfftn(u e^{dt (xi - C)}) * symbol) on the FFT
    # side of the selection, the same sequence of per-axis matmuls on the
    # GEMM side (N <= 128 on d >= 2 axes), which is irfftn's step to round-off
    gemm = grid.d >= 2 and grid.N <= 128
    cfg = SolverConfig(equation=equation, grid=grid, eps=4 * grid.dx, C_eps=0.3,
                       u0="dirac", T=0.002 if grid.d == 2 else 0.02, snapshots=1, seed=2)
    xi = mollified_noise(cfg)
    u = np.zeros(grid.space_shape())
    u[(grid.N // 2,) * grid.d] = grid.dx ** -grid.d
    ref = u
    symbol = _heat_symbol(grid, cfg.dt)
    for k in range(cfg.n_steps):
        row = xi.values if xi.kind == "spatial" else xi.values[int(k * (cfg.dt / grid.dt) + 1e-9)]
        factor = np.exp(cfg.dt * (row - cfg.C_eps))
        u = (_gemm_step if gemm else _irfftn_step)(u * factor, symbol)
        ref = _irfftn_step(ref * factor, symbol)
    out = solve_renormalised(cfg, xi_eps=xi).fields[-1]
    assert np.array_equal(out, u)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
def test_gemm_step_is_the_fft_step_to_round_off(monkeypatch, d, n):
    # on the GEMM side of the selection (even N, so the Nyquist bin is in
    # play) the direct and the change-of-unknown solves agree with the FFT
    # loop, forced by a GEMM limit below N, to Higham's dot-product bound:
    # one unit round-off per term of length-N sums, per axis and step
    g = Grid(d=d, L=2.0, N=n)
    u0 = np.random.default_rng(n).random(g.space_shape()) + 0.5
    cfg = SolverConfig(equation=f"pam{d}d", grid=g, eps=4 * g.dx, C_eps=0.3, u0=u0,
                       T=g.dx ** 2, snapshots=1, seed=1)
    xi = mollified_noise(cfg)

    def solves():
        return (solve_renormalised(cfg, xi_eps=xi).fields[-1],
                solve_pam_transformed(cfg, xi).fields[-1])

    gemm = solves()
    monkeypatch.setattr(solver, "_GEMM_MAX_N", n - 1)
    fft = solves()
    for a, b in zip(gemm, fft):
        assert not np.array_equal(a, b)
        assert np.abs(a - b).max() <= cfg.n_steps * d * n * 2.0 ** -52 * np.abs(b).max()


def test_one_axis_grids_keep_the_fft_step_at_any_limit(monkeypatch):
    # the FFT loop's bits on a 1-d grid whatever the GEMM limit (a 2-d grid
    # of N = 256 keeps them at the default limit: test_step_loop_matches_numpy_irfftn)
    g = Grid(d=1, L=4.0, N=128, T=0.05, M=256)
    cfg = SolverConfig(equation="she1d", grid=g, eps=4 * g.dx, u0=("const", 1.0),
                       T=0.002, snapshots=1, seed=4)
    xi = mollified_noise(cfg)
    default = solve_renormalised(cfg, xi_eps=xi).fields[-1]
    monkeypatch.setattr(solver, "_GEMM_MAX_N", 1 << 30)
    assert np.array_equal(solve_renormalised(cfg, xi_eps=xi).fields[-1], default)


def test_solve_leaves_u0_alone_and_snapshots_are_copies():
    g = Grid(d=3, L=2.0, N=16)
    u0 = np.random.default_rng(1).random(g.space_shape())
    kept = u0.copy()
    cfg = SolverConfig(equation="pam3d", grid=g, eps=4 * g.dx, C_eps=0.3, u0=u0,
                       T=0.02, snapshots=3)
    traj = solve_renormalised(cfg)
    assert np.array_equal(u0, kept) and cfg.u0 is u0
    assert len({id(f) for f in traj.fields}) == 3
    assert not any(np.shares_memory(a, b) for i, a in enumerate(traj.fields)
                   for b in traj.fields[i + 1:])
    assert not any(np.array_equal(a, b) for a, b in zip(traj.fields, traj.fields[1:]))
