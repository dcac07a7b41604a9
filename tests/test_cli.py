import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mshe
from mshe.cli import _build_parser, _subcommands, main
from mshe.noise import Grid, regularity_study
from mshe.solver import convergence_study
from mshe.wavelet import build_basis

#: the directory that holds the mshe package, for child processes
PACKAGE_PARENT = str(Path(mshe.__file__).resolve().parents[1])


def run_cli(args, tmp_path, name, env_threads=None):
    out = tmp_path / name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT,
                                                      env.get("PYTHONPATH")]))
    if env_threads is not None:
        env["SHE_THREADS"] = str(env_threads)
        proc = subprocess.run([sys.executable, "-m", "mshe.cli"] + args +
                              ["--out", str(out)], env=env, capture_output=True,
                              text=True)
        return proc.returncode, out
    code = main(args + ["--out", str(out)])
    return code, out


def test_structure_table(tmp_path):
    code, out = run_cli(["structure", "table", "--kappa", "0.01", "--d", "3"],
                        tmp_path, "a")
    assert code == 0
    lines = (out / "structure-table.csv").read_text().splitlines()
    assert lines[0] == "symbol,q,m,value"
    assert len(lines) == 21  # header + 10 U + 10 F
    assert (out / "resolved-config.txt").exists()


def test_renorm_csv_shape(tmp_path):
    code, out = run_cli(["renorm", "--equation", "she1d", "--eps", "0.1",
                         "--samples", "4096", "--seed", "7"], tmp_path, "b")
    assert code == 0
    lines = (out / "renorm.csv").read_text().splitlines()
    assert lines[0] == "eps,c,c11,c11_err,c12,c12_err,C"
    assert len(lines) == 2
    # floats round-trip through 17 significant digits
    vals = lines[1].split(",")
    assert float(vals[1]) == pytest.approx(1.9915138642426387, rel=1e-15)


def test_rerun_byte_identical(tmp_path):
    _, out1 = run_cli(["renorm", "--equation", "she1d", "--eps", "0.1",
                       "--samples", "4096", "--seed", "7"], tmp_path, "c1")
    _, out2 = run_cli(["renorm", "--equation", "she1d", "--eps", "0.1",
                       "--samples", "4096", "--seed", "7"], tmp_path, "c2")
    assert (out1 / "renorm.csv").read_bytes() == (out2 / "renorm.csv").read_bytes()


def test_thread_count_invariance(tmp_path):
    rc1, out1 = run_cli(["renorm", "--equation", "pam3d", "--eps", "0.1",
                         "--samples", "4096", "--seed", "3"], tmp_path, "t1",
                        env_threads=1)
    rc4, out4 = run_cli(["renorm", "--equation", "pam3d", "--eps", "0.1",
                         "--samples", "4096", "--seed", "3"], tmp_path, "t4",
                        env_threads=4)
    assert rc1 == 0 and rc4 == 0
    assert (out1 / "renorm.csv").read_bytes() == (out4 / "renorm.csv").read_bytes()


def test_validation_exit_code(tmp_path):
    # under-resolved mollifier: eps < 2 dx
    code, _ = run_cli(["solve", "--equation", "she1d", "--eps", "0.01",
                       "--ceps", "0", "--grid", "64,64,4,0.25"], tmp_path, "d")
    assert code == 1
    # T past the time horizon of the space-time noise (grid T = 0.1)
    code, _ = run_cli(["solve", "--equation", "she1d", "--eps", "0.25", "--ceps", "0",
                       "--grid", "64,64,4,0.1", "--T", "0.5"], tmp_path, "d2")
    assert code == 1


def test_unknown_flag_rejected(tmp_path):
    code = main(["structure", "table", "--kappa", "0.01", "--frobnicate"])
    assert code == 1


def test_noise_sample_mollify_pipeline(tmp_path):
    code, out = run_cli(["noise", "sample", "--d", "1", "--grid", "128,128,4,1",
                         "--kind", "spacetime", "--seed", "5"], tmp_path, "e")
    assert code == 0
    field_path = out / "noise.shef"
    assert field_path.exists()
    code2, out2 = run_cli(["noise", "mollify", "--input", str(field_path),
                           "--eps", "0.25"], tmp_path, "f")
    assert code2 == 0
    from mshe.noise import read_field

    moll = read_field(out2 / "mollified.shef")
    raw = read_field(field_path)
    assert np.abs(moll.values).max() < np.abs(raw.values).max()


def test_besov_norm_command(tmp_path):
    _, out = run_cli(["noise", "sample", "--d", "1", "--grid", "512,1024,4,1",
                      "--kind", "spacetime", "--seed", "2"], tmp_path, "g")
    code, out2 = run_cli(["besov", "norm", "--input", str(out / "noise.shef"),
                          "--alpha", "-1.7", "--p", "2", "--weight", "poly:0.5",
                          "--nmin", "1", "--nmax", "3"], tmp_path, "h")
    assert code == 0
    lines = (out2 / "besov-norm.csv").read_text().splitlines()
    assert float(lines[1].split(",")[-1]) > 0


def test_besov_checkw_command(tmp_path):
    code, out = run_cli(["besov", "check-w", "--kappa", "0.1"], tmp_path, "i")
    assert code == 0
    text = (out / "besov-checkw.csv").read_text()
    assert "overall,1" in text


@pytest.mark.parametrize("interpretation", ["extend", "strict"])
def test_besov_checkw_every_margin_written(tmp_path, interpretation):
    # each condition row carries the margin or constant its check computed
    code, out = run_cli(["besov", "check-w", "--kappa", "0.1", "--interpretation",
                         interpretation], tmp_path, interpretation)
    assert code == 0
    rows = [line.split(",") for line in
            (out / "besov-checkw.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows][-2:] == ["time-increasing", "overall"]
    for name, _, margin in rows[:-1]:
        assert math.isfinite(float(margin)), (name, margin)


def test_wavelet_selftest_command(tmp_path):
    code, out = run_cli(["wavelet", "selftest", "--r", "2"], tmp_path, "j")
    assert code == 0
    rows = dict(line.split(",")[:2] for line in
                (out / "wavelet-selftest.csv").read_text().splitlines()[1:])
    assert float(rows["orthonormality_residual"]) < 1e-9


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa=0.01\nd=3\n")
    code, out = run_cli(["structure", "table", "--config", str(cfg)], tmp_path, "k")
    assert code == 0
    assert (out / "structure-table.csv").exists()


def test_config_without_value(tmp_path, capsys):
    code = main(["structure", "table", "--kappa", "0.01", "--out", str(tmp_path),
                 "--config"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    code, _ = run_cli(["structure", "table", "--config", str(tmp_path / "absent.cfg")],
                      tmp_path, "k2")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_writes_snapshots(tmp_path):
    code, out = run_cli(["solve", "--equation", "she1d", "--eps", "0.25",
                         "--ceps", "1.0", "--grid", "128,256,4,0.25",
                         "--u0", "const:1", "--snapshots", "3"], tmp_path, "l")
    assert code == 0
    assert (out / "solve-diag.csv").exists()
    assert (out / "snapshot-000.shef").exists()
    lines = (out / "solve-diag.csv").read_text().splitlines()
    assert lines[0] == "t,sup,mass,weighted_l2"


def test_resolved_config_reruns(tmp_path):
    # a resolved config re-run into a new --out reproduces every CSV; list
    # values, a set switch and a path with a space survive the round trip
    code, noise = run_cli(["noise", "sample", "--grid", "64,64,4,1"], tmp_path, "a b")
    assert code == 0
    runs = [["renorm", "--equation", "she1d", "--eps", "0.2", "0.1",
             "--samples", "4096", "--seed", "7"],
            ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
             "--grid", "64,512,4,0.25", "--seeds", "1", "--first-seed", "2",
             "--samples", "4096", "--ito"],
            ["noise", "mollify", "--input", str(noise / "noise.shef"), "--eps", "0.25"]]
    for argv in runs:
        head = argv[:2] if argv[0] == "noise" else argv[:1]
        code, out = run_cli(argv, tmp_path, head[-1])
        assert code == 0
        config = out / "resolved-config.txt"
        code, again = run_cli(head + ["--config", str(config)], tmp_path, head[-1] + "-2")
        assert code == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in again.glob("*.csv"))
        for name in csvs:
            assert (out / name).read_bytes() == (again / name).read_bytes(), name
        assert (again / "resolved-config.txt").read_bytes() == config.read_bytes()


def test_first_seed(tmp_path):
    # --first-seed S draws the seeds S .. S + n - 1: its rows are those of the
    # same seeds in a run from seed 0
    common = ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
              "--grid", "64,512,4,0.25", "--samples", "4096", "--ito"]
    code, both = run_cli(common + ["--seeds", "2"], tmp_path, "both")
    assert code == 0
    code, one = run_cli(common + ["--seeds", "1", "--first-seed", "1"], tmp_path, "one")
    assert code == 0
    head, *rows = (both / "converge.csv").read_text().splitlines()
    got = (one / "converge.csv").read_text().splitlines()
    assert got[0] == head and got[1:] == [r for r in rows if r.startswith("1,")]
    assert len(got) == 4
    code, _ = run_cli(common + ["--first-seed", "-1"], tmp_path, "negative")
    assert code == 1
    # noise regularity averages alpha_hat over the seeds it draws
    code, out = run_cli(["noise", "regularity", "--grid", "64,2048,1,1", "--seeds", "2",
                         "--first-seed", "3", "--nmax", "4"], tmp_path, "reg")
    assert code == 0
    want = regularity_study(Grid(d=1, L=1.0, N=64, T=1.0, M=2048), "spacetime",
                            build_basis(2), seeds=(3, 4), n_max=4)["alpha_hat"]
    row = (out / "noise-regularity.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == want


@pytest.mark.parametrize("argv", [
    ["noise", "sample", "--grid", "64,64,4,1"],
    ["solve", "--equation", "she1d", "--eps", "0.25", "--ceps", "0",
     "--grid", "64,64,4,0.25"],
    ["reconstruct", "--input", "lift.shef"],
    ["renorm", "--equation", "she1d", "--eps", "0.1"],
    ["kernel", "check"],
], ids=lambda argv: argv[0])
def test_negative_seed_rejected(tmp_path, capsys, argv):
    # seeds key unsigned Philox streams and SeedSequences: a negative one is
    # refused while parsing, before any output is written
    code, out = run_cli(argv + ["--seed", "-1"], tmp_path, "negative")
    assert code == 1
    assert "--seed: must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_regularity_needs_two_seeds(tmp_path, capsys):
    # the confidence half-width takes a sample standard deviation
    code, out = run_cli(["noise", "regularity", "--grid", "64,2048,1,1", "--seeds", "1",
                         "--nmax", "4"], tmp_path, "one")
    assert code == 1
    assert "at least 2 seeds, got 1" in capsys.readouterr().err
    assert not (out / "noise-regularity.csv").exists()


def _field_file(path, d, N, L=4.0):
    from mshe.noise import Field, write_field

    write_field(path, Field(grid=Grid(d=d, L=L, N=N), values=np.ones((N,) * d)))
    return f"file:{path}"


def _short_file(path):
    path.write_bytes(b"SHEF\x01\x00")
    return f"file:{path}"


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("u0, match", [
    pytest.param(lambda tmp: "bogus", "bad initial condition 'bogus'", id="bogus"),
    pytest.param(lambda tmp: "const:abc", "could not convert", id="const-abc"),
    pytest.param(lambda tmp: "const:nan", "bad initial condition 'const:nan'", id="const-nan"),
    pytest.param(lambda tmp: _field_file(tmp / "2d.shef", 2, 64),
                 r"initial field shape \(64, 64\) != grid shape \(64,\)", id="file-d2"),
    pytest.param(lambda tmp: _field_file(tmp / "n1.shef", 1, 1),
                 r"initial field shape \(1,\) != grid shape \(64,\)", id="file-n1"),
    pytest.param(lambda tmp: _short_file(tmp / "short.shef"), "truncated header",
                 id="file-short"),
    pytest.param(lambda tmp: _field_file(tmp / "box.shef", 1, 64, L=8.0),
                 "initial field is spatial with d=1, N=64, L=8; the solve needs a "
                 "spatial field with d=1, N=64, L=4", id="file-box"),
])
def test_bad_u0_rejected_before_any_constant(tmp_path, capsys, monkeypatch, command, u0,
                                             match):
    # solve and converge share one --u0 parser, and a file's shape and box
    # are checked against the grid: every bad value exits 1 before a constant
    # is computed
    import mshe.renorm

    def no_constants(*args, **kwargs):
        raise AssertionError("a renormalisation constant was computed")

    monkeypatch.setattr(mshe.renorm, "compute_constants", no_constants)
    argv = {"solve": ["solve", "--equation", "she1d", "--eps", "0.25",
                      "--grid", "64,256,4,0.25"],
            "converge": ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
                         "--grid", "64,256,4,0.25", "--seeds", "1"]}[command]
    code, out = run_cli(argv + ["--u0", u0(tmp_path)], tmp_path, "bad")
    assert code == 1
    assert re.search(match, capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


def test_spacetime_u0_file_rejected(tmp_path, capsys):
    # a d = 1 space-time field of shape (16, 16) has the shape of a pam2d
    # initial condition on N = 16, but it is no spatial field
    from mshe.noise import Field, write_field

    path = tmp_path / "st.shef"
    write_field(path, Field(grid=Grid(d=1, L=4.0, N=16, T=0.25, M=16),
                            values=np.ones((16, 16)), kind="spacetime"))
    code, out = run_cli(["solve", "--equation", "pam2d", "--eps", "1", "--ceps", "0",
                         "--grid", "16,0,4,0.1", "--snapshots", "2", "--u0", f"file:{path}"],
                        tmp_path, "st")
    assert code == 1
    assert "initial field is spacetime with d=1, N=16, L=4" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["solve", "--equation", "pam2d", "--eps", "1", "--grid", "16,0,4,0.1", "--snapshots", "2"],
    ["converge", "--equation", "pam2d", "--eps-list", "1", "0.5", "--grid", "16,0,4,0.1",
     "--seeds", "1"],
], ids=lambda v: v[0])
def test_pam2d_needs_a_given_constant(tmp_path, capsys, monkeypatch, argv):
    # no renormalisation constant is computed for pam2d: --ceps auto and
    # converge exit 1 before any solve instead of running with C = 0
    import mshe.solver

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(mshe.solver, "_split_step", no_solve)
    code, out = run_cli(argv, tmp_path, "auto")
    assert code == 1
    assert "no renormalisation constant is computed for pam2d" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))
    monkeypatch.undo()
    if argv[0] == "solve":
        code, out = run_cli(argv + ["--ceps", "0.5"], tmp_path, "given")
        assert code == 0 and (out / "solve-diag.csv").exists()


def test_converge_reads_u0_file(tmp_path):
    # converge takes the file: form that solve takes; a file of ones is const:1
    common = ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
              "--grid", "64,512,4,0.25", "--seeds", "1", "--samples", "4096"]
    code, const = run_cli(common + ["--u0", "const:1"], tmp_path, "const")
    assert code == 0
    u0 = _field_file(tmp_path / "ones.shef", 1, 64)
    code, ones = run_cli(common + ["--u0", u0], tmp_path, "file")
    assert code == 0
    assert (ones / "converge.csv").read_bytes() == (const / "converge.csv").read_bytes()


def test_malformed_field_input_is_a_validation_error(tmp_path, capsys):
    # a damaged --input file exits 1 with a message, not a traceback
    _short_file(tmp_path / "short.shef")
    code, _ = run_cli(["noise", "mollify", "--input", str(tmp_path / "short.shef"),
                       "--eps", "0.25"], tmp_path, "m")
    assert code == 1
    assert "short.shef: truncated header: 6 bytes" in capsys.readouterr().err


def _renorm_C(tmp_path, name, argv, env_threads=None) -> dict:
    code, out = run_cli(["renorm", "--equation", "pam3d"] + argv, tmp_path, name, env_threads)
    assert code == 0
    rows = [r.split(",") for r in (out / "renorm.csv").read_text().splitlines()[1:]]
    return {float(r[0]): r[-1] for r in rows}


def test_solve_auto_constant_is_the_renorm_constant(tmp_path):
    # solve --ceps auto runs with the constant renorm reports for the same
    # eps, seed and samples: the Green truncation radius is renorm's R_G = 1,
    # so the constant keeps its log(1/eps) growth; eps = 0.5, where the
    # cutoff of G reaches into the mollifier's support, is no exception
    for eps, grid in (("0.1", "32,0,1,0.02"), ("0.5", "16,0,4,0.1")):
        seeded = ["--eps", eps, "--seed", "3", "--samples", "4096"]
        C = _renorm_C(tmp_path, f"renorm-{eps}", seeded)[float(eps)]
        solve = ["solve", "--equation", "pam3d", "--grid", grid, "--snapshots", "3"]
        code, auto = run_cli(solve + seeded, tmp_path, f"auto-{eps}")
        assert code == 0
        code, given = run_cli(solve + seeded + ["--ceps", C], tmp_path, f"given-{eps}")
        assert code == 0
        snaps = sorted(p.name for p in auto.glob("snapshot-*.shef"))
        assert len(snaps) == 3 and snaps == sorted(p.name for p in given.glob("snapshot-*.shef"))
        for name in snaps + ["solve-diag.csv"]:
            assert (auto / name).read_bytes() == (given / name).read_bytes(), name


def test_one_constant_per_eps(tmp_path):
    # renorm and converge (which draws its constants at seed 1000) give one C
    # per eps, samples and seed, whatever else converge lists; renorm runs in
    # a child process, so no constant is shared through a cache
    want = _renorm_C(tmp_path, "renorm", ["--eps", "1", "0.5", "0.25", "0.125",
                                          "--seed", "1000", "--samples", "4096"], 1)
    grid = Grid(d=3, L=2.0, N=32, T=0.02)
    for eps_list in ([1.0, 0.5, 0.25, 0.125], [0.25, 0.125]):
        got = convergence_study("pam3d", grid, eps_list, T=0.02, n_qmc=4096)["constants"]
        assert got == {e: float(want[e]) for e in eps_list}


_SHE_CONVERGE = ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
                 "--grid", "64,512,4,0.25", "--seeds", "1", "--samples", "1024"]
_EPS = "eps must be finite and positive, got "


@pytest.mark.parametrize("argv, match", [
    (["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
      "--grid", "64,256,4,0.25", "--seeds", "0"], "at least 1 seed"),
    (["solve", "--equation", "she1d", "--eps", "0.25", "--ceps", "0",
      "--grid", "64,64,4,0.25", "--snapshots", "0"], "snapshots must be at least 1, got 0"),
    (["renorm", "--equation", "she1d", "--eps", "0.1", "--samples", "0"],
     "power of two >= 1024, got 0"),
    (["solve", "--equation", "pam3d", "--eps", "0.5", "--grid", "16,0,4,0.02",
      "--snapshots", "3"], "give 1 distinct snapshot steps, fewer than the 3 snapshots"),
    (["renorm", "--equation", "pam3d", "--eps", "-0.1", "--samples", "1024"], _EPS + "-0.1"),
    (["renorm", "--equation", "she1d", "--eps", "nan", "--samples", "1024"],
     "argument --eps: must be finite, got nan"),
    (["renorm", "--equation", "she1d", "--eps", "inf", "--samples", "1024"],
     "argument --eps: must be finite, got inf"),
    (["renorm", "--equation", "she1d", "--eps", "0", "--samples", "1024"], _EPS + "0.0"),
    (["solve", "--equation", "pam3d", "--eps", "inf", "--ceps", "0",
      "--grid", "16,0,4,0.1", "--snapshots", "3"], "argument --eps: must be finite, got inf"),
    (_SHE_CONVERGE + ["--snapshot-t0", "-0.01"], "snapshot_t0 = -0.01 is outside (0, T]"),
    (_SHE_CONVERGE + ["--snapshot-t0", "0"], "snapshot_t0 = 0.0 is outside (0, T]"),
    (_SHE_CONVERGE + ["--snapshot-t0", "0.3"], "snapshot_t0 = 0.3 is outside (0, T]"),
], ids=["converge-seeds", "solve-snapshots", "renorm-samples", "solve-steps",
        "renorm-eps-negative", "renorm-eps-nan", "renorm-eps-inf", "renorm-eps-zero",
        "solve-eps-inf", "converge-t0-negative", "converge-t0-zero", "converge-t0-after-T"])
def test_empty_counts_rejected(tmp_path, capsys, argv, match):
    # no seeds, no snapshots or no QMC samples is an input error, not an
    # empty result, a traceback or a silently raised count; so is a schedule
    # with fewer distinct steps than snapshots (T = 0.02 is one step of
    # dt = dx^2/4 = 0.0156), not a silently lowered count; and so is an eps
    # that is not finite and positive (not a constant of nan, 0 or the wrong
    # sign, or a ZeroDivisionError) or a first snapshot outside (0, T] (not
    # one silently moved to t = dt)
    code, out = run_cli(argv, tmp_path, "empty")
    assert code == 1
    assert match in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not list(out.glob("snapshot-*.shef"))


def test_unreadable_input_is_a_validation_error(tmp_path, capsys):
    # an OSError other than a missing file (here: a directory) exits 1 with a
    # message, not a traceback
    code, _ = run_cli(["noise", "mollify", "--input", str(tmp_path), "--eps", "0.25"],
                      tmp_path, "m")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, accepted", [
    (["renorm", "--equation", "she1d", "--eps", "0.1", "--samples", "1024"], True),
    (["solve", "--equation", "she1d", "--eps", "0.25", "--ceps", "0",
      "--grid", "64,64,4,0.25", "--snapshots", "1"], True),
    (["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
      "--grid", "64,512,4,0.25", "--seeds", "1", "--samples", "1024"], True),
    (["structure", "table", "--kappa", "0.01"], False),
    (["noise", "sample", "--grid", "64,64,4,1"], False),
    (["wavelet", "selftest"], False),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_threads_only_where_read(tmp_path, argv, accepted):
    # --threads belongs to the three commands that run a thread pool
    code, _ = run_cli(argv + ["--threads", "2"], tmp_path, "t")
    assert code == (0 if accepted else 1)


def test_analysis_outputs_independent_of_blas_threads(tmp_path):
    # the dyadic correlations are matrix-vector products that may go through
    # BLAS: noise regularity and reconstruct write the same bytes with one
    # and with two BLAS threads; the lift carries all six symbols, so
    # reconstruct runs the forward transforms of Phi, xi and xi Phi
    from mshe.reconstruct import ModelledDistribution, write_modelled

    g = Grid(d=1, L=2.0, N=64, T=1.0, M=1024)
    xx = np.broadcast_to(g.xs, (g.M, g.N))
    write_modelled(tmp_path / "lift.shef", ModelledDistribution(
        grid=g, coeffs={"1": np.sin(np.pi * xx), "X": np.pi * np.cos(np.pi * xx),
                        "I(Xi)": 0.25 * np.cos(np.pi * xx), "Xi": 0.5 * np.cos(np.pi * xx),
                        "X*Xi": 0.5 * np.sin(np.pi * xx), "Xi*I(Xi)": np.cos(np.pi * xx)}))
    cmds = {"reg": ["noise", "regularity", "--d", "1", "--grid", "128,1024,2,1",
                    "--seeds", "2", "--nmax", "4"],
            "rec": ["reconstruct", "--input", str(tmp_path / "lift.shef"), "--nmin", "1",
                    "--nmax", "4", "--seed", "2"]}
    written = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT,
                                                          env.get("PYTHONPATH")]))
        for name, args in cmds.items():
            out = tmp_path / f"{name}{threads}"
            proc = subprocess.run([sys.executable, "-m", "mshe.cli"] + args +
                                  ["--out", str(out)], env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            for f in [*out.glob("*.csv"), *out.glob("*.shef")]:
                written.setdefault((name, f.name), []).append(f.read_bytes())
    assert sorted(written) == [("rec", "reconstruct.csv"), ("rec", "reconstructed.shef"),
                               ("reg", "noise-regularity.csv")]
    for key, (one, two) in written.items():
        assert one == two, key


def test_analysis_commands_leave_renorm_unimported(tmp_path):
    # noise regularity and reconstruct never load mshe.renorm: its QMC
    # constants are no part of an analysis run
    script = f"""
import sys
from mshe.cli import _build_parser, main
from mshe.noise import Grid
from mshe.reconstruct import ModelledDistribution, write_modelled
import numpy as np

_build_parser()
g = Grid(d=1, L=1.0, N=64, T=0.25, M=1024)
tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
write_modelled({str(tmp_path / 'f.shef')!r},
               ModelledDistribution(grid=g, coeffs={{"1": np.sin(2 * np.pi * xx)}}))
assert main(["noise", "regularity", "--grid", "64,2048,1,1", "--seeds", "2",
             "--nmax", "4", "--out", {str(tmp_path / 'reg')!r}]) == 0
assert main(["reconstruct", "--input", {str(tmp_path / 'f.shef')!r}, "--nmin", "1",
             "--nmax", "4", "--out", {str(tmp_path / 'rec')!r}]) == 0
print(sorted(m for m in ("mshe.renorm", "scipy.stats") if m in sys.modules))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_structure_table_d2_is_the_pam2d_table(tmp_path):
    # 2-d PAM is driven by spatial white noise, |Xi| = -1 - kappa; its
    # negative symbols are Xi, Xi*I(Xi) and Xi*X_i
    code, out = run_cli(["structure", "table", "--kappa", "0.05", "--d", "2"], tmp_path, "d2")
    assert code == 0
    rows = [line.split(",") for line in
            (out / "structure-table.csv").read_text().splitlines()[1:]]
    values = {sym: float(v) for sym, _, _, v in rows}
    assert values["Xi"] == -1.05
    assert sorted(s for s, v in values.items() if v < 0) == [
        "Xi", "Xi*I(Xi)", "Xi*X_1", "Xi*X_2"]
    assert sorted(s for s, v in values.items() if v >= 0) == ["1", "I(Xi)", "X_1", "X_2"]


@pytest.mark.parametrize("d", [1, 3])
def test_structure_table_is_canonical_past_one_twelfth(tmp_path, d):
    # from kappa = 1/12 on, 3/2 + 2 kappa passes 2 - 4 kappa, and the table
    # must be truncated at the cap: no U symbol (none starts with Xi) at or
    # above 2 - 4 kappa, as in the table besov check-w reads
    kappa = 0.1
    code, out = run_cli(["structure", "table", "--kappa", str(kappa), "--d", str(d)],
                        tmp_path, f"k{d}")
    assert code == 0
    rows = [line.split(",") for line in
            (out / "structure-table.csv").read_text().splitlines()[1:]]
    u_values = [float(v) for sym, _, _, v in rows if not sym.startswith("Xi")]
    assert u_values and max(u_values) < 2 - 4 * kappa


_BESOV_NORM = ["besov", "norm", "--input", "never-read.shef", "--alpha", "-1.7"]
_SOLVE = ["solve", "--equation", "she1d", "--eps", "0.25", "--ceps", "0",
          "--grid", "64,64,4,0.25"]
_RECONSTRUCT = ["reconstruct", "--input", "never-read.shef"]
_CONVERGE = ["converge", "--equation", "she1d", "--eps-list", "0.4", "0.2",
             "--grid", "64,512,4,0.25", "--seeds", "1", "--samples", "1024"]


@pytest.mark.parametrize("argv, match", [
    (["noise", "sample", "--d", "1", "--grid", "0,256,1,1"], "N must be a power of two, got 0"),
    (["noise", "sample", "--d", "1", "--grid", "64,256,1,0"],
     "positive when M > 0; got T = 0.0, M = 256"),
    (["noise", "sample", "--d", "1", "--grid", "64,0,1,-1"], "got T = -1.0, M = 0"),
    (["noise", "sample", "--d", "1", "--grid", "64,256,0,1"],
     "L must be finite and positive, got 0.0"),
    (["noise", "sample", "--d", "1", "--grid", "64,256,inf,1"],
     "L must be finite and positive, got inf"),
    (["besov", "check-w", "--kappa", "0.1", "--T", "-1"], "T must be finite and positive"),
    (["besov", "check-w", "--kappa", "0.1", "--T", "0"], "T must be finite and positive"),
    (["kernel", "check", "--points", "0"], "--points must be at least 1, got 0"),
    (["renorm", "--equation", "pam2d", "--eps", "0.1", "--samples", "1024"],
     "no renormalisation constant is computed for pam2d"),
    (_BESOV_NORM + ["--p", "0"], "argument --p: must be at least 1 or inf, got 0"),
    (_BESOV_NORM + ["--p", "0.5"], "argument --p: must be at least 1 or inf, got 0.5"),
    (_BESOV_NORM + ["--p=-inf"], "argument --p: must be at least 1 or inf, got -inf"),
    (_BESOV_NORM + ["--weight", "exp:nan"], "argument --weight: must be finite, got nan"),
    (_BESOV_NORM + ["--weight", "poly:inf"], "argument --weight: must be finite, got inf"),
    (_BESOV_NORM + ["--weight", "gauss:1"], "unknown weight 'gauss:1'"),
    (_SOLVE + ["--T", "0"], "T must be finite and positive, got 0.0"),
    (_SOLVE + ["--T", "-1"], "T must be finite and positive, got -1.0"),
    (_CONVERGE + ["--T", "0"], "T must be finite and positive, got 0.0"),
    (_CONVERGE + ["--dt", "0"], "dt must be finite and positive, got 0.0"),
    (_CONVERGE + ["--dt", "-0.001"], "dt must be finite and positive, got -0.001"),
    (["noise", "regularity", "--d", "1", "--grid", "512,1024,3.2,0.25", "--seeds", "2",
      "--nmax", "5"], "level-1 lattice does not tile the box L = 3.2, T = 0.25"),
    (["noise", "regularity", "--d", "1", "--grid", "64,256,1,1", "--seeds", "2",
      "--nmin", "5", "--nmax", "2"], "no levels from n_min = 5 to n_max = 2"),
    (["noise", "sample", "--d", "0", "--grid", "64,64,4,1"], "d must be 1, 2 or 3, got 0"),
    (["noise", "sample", "--d", "4", "--grid", "4,4,4,1"], "d must be 1, 2 or 3, got 4"),
    (["wavelet", "selftest", "--r", "5"], "need r in 1..4"),
    (_RECONSTRUCT + ["--family", "0"], "no Daubechies-0 family: need N in 2..14"),
    (_RECONSTRUCT + ["--family", "1"], "no Daubechies-1 family: need N in 2..14"),
    (_RECONSTRUCT + ["--family", "15"], "no Daubechies-15 family: need N in 2..14"),
    (_RECONSTRUCT + ["--nmin", "5", "--nmax", "3"], "no levels from n_min = 5 to n_max = 3"),
    (_RECONSTRUCT + ["--nmin", "3", "--nmax", "5"],
     "the sewing check needs at least 4 levels, got --nmin 3 and --nmax 5"),
    (_RECONSTRUCT + ["--eps", "0"], "eps must be finite and positive, got 0.0"),
    (_RECONSTRUCT + ["--eps", "-1"], "eps must be finite and positive, got -1.0"),
], ids=["grid-N-zero", "grid-T-zero", "grid-T-negative", "grid-L-zero", "grid-L-inf",
        "checkw-T-negative", "checkw-T-zero", "kernel-points-zero", "renorm-pam2d",
        "besov-p-zero", "besov-p-half", "besov-p-minus-inf", "besov-weight-exp-nan",
        "besov-weight-poly-inf", "besov-weight-unknown", "solve-T-zero", "solve-T-negative",
        "converge-T-zero", "converge-dt-zero", "converge-dt-negative",
        "regularity-box-not-tiled", "regularity-no-levels", "sample-d-zero", "sample-d-four",
        "selftest-r-five", "reconstruct-family-zero", "reconstruct-family-haar",
        "reconstruct-family-fifteen", "reconstruct-no-levels", "reconstruct-three-levels",
        "reconstruct-eps-zero", "reconstruct-eps-negative"])
def test_degenerate_inputs_rejected(tmp_path, capsys, argv, match):
    # a zero-sized or empty box, an empty time window and an empty sample
    # exit 1 with a message: not a traceback, a numpy warning or a report
    # of conditions checked on collapsed time pairs; so do a Besov exponent
    # p < 1 (it divided by zero at p = 0) and a weight parameter that is not
    # finite (it gave a nan norm), before the input is read; a run time or
    # step that is not finite and positive is refused by name, and so is a box
    # that the coarsest lattice does not tile (L 2^n_min = 6.4 cells), a grid
    # dimension outside 1..3, an empty level range, and a wavelet family that
    # cannot be built; reconstruct checks its levels, family and eps before it
    # reads the input or draws any noise
    code, out = run_cli(argv, tmp_path, "bad")
    assert code == 1
    assert match in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not list(out.glob("*.shef"))


def test_field_commands_refuse_a_bad_level_range_or_dimension(tmp_path, capsys):
    # besov norm reads its field first: an empty level range is refused by
    # analyze, and a field file of dimension 0 (which noise sample wrote
    # before Grid checked d) by read_field, before mollify or a norm runs
    code, out = run_cli(["noise", "sample", "--d", "1", "--grid", "64,64,4,1"], tmp_path, "f")
    assert code == 0
    good = out / "noise.shef"
    flat = tmp_path / "flat.shef"
    flat.write_bytes(good.read_bytes()[:9] + bytes([0]) + good.read_bytes()[10:])
    for i, (argv, match) in enumerate([
            (["besov", "norm", "--input", str(good), "--alpha", "-1.7", "--nmin", "3",
              "--nmax", "2"], "no levels from n_min = 3 to n_max = 2"),
            (["besov", "norm", "--input", str(flat), "--alpha", "-1.7", "--nmin", "0",
              "--nmax", "1"], "d must be 1, 2 or 3, got 0"),
            (["noise", "mollify", "--input", str(flat), "--eps", "0.5"],
             "d must be 1, 2 or 3, got 0")]):
        capsys.readouterr()
        code, bad = run_cli(argv, tmp_path, f"bad{i}")
        assert code == 1
        assert match in capsys.readouterr().err
        assert not list(bad.glob("*.csv")) and not list(bad.glob("*.shef"))


def _write_lift(path, syms, g=Grid(d=1, L=2.0, N=64, T=2.0, M=1024)):
    from mshe.reconstruct import ModelledDistribution, write_modelled

    xx = np.broadcast_to(g.xs, (g.M, g.N))
    write_modelled(path, ModelledDistribution(
        grid=g, coeffs={s: np.cos(np.pi * (i + 1) * xx) for i, s in enumerate(syms)}))
    return path


def _count_model_calls(monkeypatch):
    """Wrap the four steps that build a canonical model with call counters."""
    import mshe.noise
    import mshe.reconstruct

    calls = {}
    for module, name in ((mshe.noise, "sample_white_noise"), (mshe.noise, "mollify"),
                         (mshe.reconstruct, "decompose"),
                         (mshe.reconstruct, "canonical_model")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("syms, built", [
    (["1", "X"], False), (["1", "Xi"], True), (["I(Xi)"], True)], ids=["1-X", "Xi", "I(Xi)"])
def test_reconstruct_builds_the_model_only_for_a_lift_that_reads_it(tmp_path, monkeypatch,
                                                                      syms, built):
    # a lift of 1 and X reads neither xi nor Phi: no noise is drawn or
    # mollified and no model is built; a lift carrying Xi or I(Xi) builds each
    # once
    calls = _count_model_calls(monkeypatch)
    lift = _write_lift(tmp_path / "lift.shef", syms)
    code, out = run_cli(["reconstruct", "--input", str(lift), "--nmin", "1", "--nmax", "4"],
                        tmp_path, "rec")
    assert code == 0 and (out / "reconstructed.shef").exists()
    names = ("sample_white_noise", "mollify", "decompose", "canonical_model")
    assert calls == (dict.fromkeys(names, 1) if built else {})


@pytest.mark.parametrize("levels, match", [
    (["--nmin", "1", "--nmax", "5"], "the level-5 lattice is finer than the grid: its steps "
     "are 1 grid steps in space and 0.5 grid steps in time"),
    (["--nmin", "-1", "--nmax", "3"], "the level--1 lattice has no point on the box L = 2, T = 2"),
], ids=["nmax-finer-than-grid", "nmin-not-tiled"])
def test_reconstruct_refuses_a_bad_level_range_before_drawing_noise(tmp_path, capsys,
                                                                    monkeypatch, levels,
                                                                    match):
    # on a dyadic box (dx = 1/32, dt = 1/512) level 5 has half a grid step in
    # time and the level -1 lattice half a cell in time: both are refused by
    # name before any noise is drawn, though the lift reads the model
    calls = _count_model_calls(monkeypatch)
    lift = _write_lift(tmp_path / "lift.shef", ["1", "Xi"])
    code, out = run_cli(["reconstruct", "--input", str(lift)] + levels, tmp_path, "rec")
    assert code == 1
    assert match in capsys.readouterr().err
    assert calls == {}
    assert not list(out.glob("*.csv")) and not list(out.glob("*.shef"))


@pytest.mark.parametrize("edit, match", [
    (lambda side: side.pop("gamma"), "lacks the field(s) gamma"),
    (lambda side: side.update(symbols=["1", "Y"]), "unknown symbol 'Y'"),
], ids=["missing-field", "unknown-symbol"])
def test_reconstruct_names_a_bad_sidecar(tmp_path, capsys, edit, match):
    # a sidecar without a field, or naming a symbol the model lacks, exits 1
    # with the field or symbol named, not a bare KeyError message
    import json

    lift = _write_lift(tmp_path / "lift.shef", ["1", "X"])
    sidecar = Path(str(lift) + ".json")
    side = json.loads(sidecar.read_text())
    edit(side)
    sidecar.write_text(json.dumps(side))
    code, _ = run_cli(["reconstruct", "--input", str(lift), "--nmin", "1", "--nmax", "4"],
                      tmp_path, "rec")
    assert code == 1
    assert match in capsys.readouterr().err


def test_internal_key_error_is_not_a_validation_error(tmp_path, monkeypatch):
    # a KeyError from inside a command is a bug, not bad input: it surfaces
    # from main instead of exiting 1
    import mshe.wavelet

    def broken(r):
        raise KeyError("internal")

    monkeypatch.setattr(mshe.wavelet, "build_basis", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["wavelet", "selftest", "--out", str(tmp_path / "w")])


@pytest.mark.parametrize("argv, level", [
    (["besov", "norm", "--alpha", "-1.7", "--weight", "exp:-300"], 0),
    (["besov", "norm", "--alpha", "-1.7", "--weight", "poly:-400"], 0),
    (["besov", "norm", "--alpha", "400"], 3),
    (["besov", "norm", "--alpha", "-400"], 3),
    (["reconstruct", "--alpha", "400", "--nmin", "1", "--nmax", "4"], 3),
    (["reconstruct", "--alpha", "-400", "--nmin", "1", "--nmax", "4"], 3),
], ids=["besov-weight-exp", "besov-weight-poly", "besov-alpha-400",
        "besov-alpha-minus-400", "reconstruct-alpha-400", "reconstruct-alpha-minus-400"])
def test_level_norm_out_of_range_is_a_numerical_failure(tmp_path, capsys, argv, level):
    # a level norm outside the floating-point range exits 2 naming its level,
    # where it wrote inf (a weight that underflows on the L = 16 box,
    # reconstruct at alpha = 400) or raised a ZeroDivisionError or
    # OverflowError (alpha = -400, and besov norm at alpha = 400): the
    # normaliser 2^{-n|s|/2 - n alpha} leaves the range at level 3
    _, sample = run_cli(["noise", "sample", "--d", "1", "--grid", "512,256,16,1"],
                        tmp_path, "f")
    inputs = {"besov": str(sample / "noise.shef"),
              "reconstruct": str(_write_lift(tmp_path / "lift.shef", ["1", "X"]))}
    capsys.readouterr()
    code, out = run_cli(argv + ["--input", inputs[argv[0]]], tmp_path, "bad")
    alpha = argv[argv.index("--alpha") + 1]
    assert code == 2
    err = capsys.readouterr().err
    assert f"numerical failure: the level-{level} norm at alpha = {alpha}" in err
    assert not any(re.search(r"\b(inf|nan)\b", path.read_text())
                   for path in out.glob("*.csv"))


def test_besov_norm_at_large_p_is_the_rescaled_norm(tmp_path):
    # at p = 1000 the p-th powers of the level-0 coefficients on the L = 16
    # box overflow, yet the norm is finite: here each row's l^p sum is
    # recomputed relative to the row's largest coefficient
    from mshe.noise import read_field
    from mshe.wavelet import analyze

    _, sample = run_cli(["noise", "sample", "--d", "1", "--grid", "512,256,16,1"],
                        tmp_path, "f")
    code, out = run_cli(["besov", "norm", "--input", str(sample / "noise.shef"),
                         "--alpha", "-1.7", "--p", "1000"], tmp_path, "n")
    assert code == 0
    got = float((out / "besov-norm.csv").read_text().splitlines()[1].split(",")[-1])
    pyr = analyze(read_field(sample / "noise.shef"), build_basis(2), 0, 3)
    p, alpha = 1000.0, -1.7

    def norm(n, arr):
        a = np.abs(arr)
        top = a.max(axis=1)
        rows = top * (2.0 ** -n * np.sum((a / top[:, None]) ** p, axis=1)) ** (1.0 / p)
        return rows.max() / 2.0 ** (-n * 1.5 - n * alpha)

    terms = [(n, arr) for n in pyr.levels for arr in pyr.levels[n].values()]
    want = max(norm(n, arr) for n, arr in terms + [(pyr.n_min, pyr.phi_level)])
    assert got == pytest.approx(want, rel=1e-12)


def _float_options(parser, path=()):
    """(subcommand path, option) for every option of every subcommand whose
    type reads "1.5" as a float."""
    subs = _subcommands(parser)
    if subs:
        for name, sub in subs.items():
            yield from _float_options(sub, path + (name,))
        return
    for action in parser._actions:
        try:
            is_float = isinstance(action.type("1.5"), float)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            is_float = False
        if action.option_strings and is_float:
            yield path, action.option_strings[-1]


def test_every_float_flag_refuses_nan(tmp_path, capsys):
    # float() reads nan, so each float flag needs its own refusal; walking
    # the parser covers a float flag added later without further edits.  The
    # refusal must come from the flag's type, before anything runs
    options = list(_float_options(_build_parser()))
    assert (("converge",), "--ell") in options and (("solve",), "--ceps") in options
    failures = []
    for i, (path, option) in enumerate(options):
        code, out = run_cli([*path, option, "nan"], tmp_path, f"nan{i}")
        err = capsys.readouterr().err
        if code != 1 or f"argument {option}: must" not in err or list(out.glob("*.csv")):
            failures.append((" ".join(path), option, code, err.strip()[-120:]))
    assert not failures


def test_besov_norm_sup_exponent(tmp_path):
    # p = inf is the sup norm, and the resolved config of such a run reruns
    _, out = run_cli(["noise", "sample", "--d", "1", "--grid", "64,64,4,1"], tmp_path, "f")
    code, out2 = run_cli(["besov", "norm", "--input", str(out / "noise.shef"),
                          "--alpha", "-1.7", "--nmax", "1", "--p", "inf"], tmp_path, "n")
    assert code == 0
    csv_text = (out2 / "besov-norm.csv").read_text()
    assert np.isfinite(float(csv_text.splitlines()[1].split(",")[-1]))
    code, out3 = run_cli(["besov", "norm", "--config", str(out2 / "resolved-config.txt")],
                         tmp_path, "r")
    assert code == 0 and (out3 / "besov-norm.csv").read_text() == csv_text


def test_besov_norm_weight_past_the_float_range(tmp_path):
    # e^{300 (1 + r)} is inf past r ~ 1.37 on the L = 16 box; an infinite
    # weight only zeroes its terms, so the norm is the one computed with the
    # overflow ignored, and no RuntimeWarning (an error in this suite) escapes
    from mshe import besov
    from mshe.noise import read_field
    from mshe.wavelet import analyze

    _, sample = run_cli(["noise", "sample", "--d", "1", "--grid", "512,256,16,1"],
                        tmp_path, "f")
    code, out = run_cli(["besov", "norm", "--input", str(sample / "noise.shef"),
                         "--alpha", "-1.7", "--weight", "exp:300"], tmp_path, "n")
    assert code == 0
    got = float((out / "besov-norm.csv").read_text().splitlines()[1].split(",")[-1])
    pyr = analyze(read_field(sample / "noise.shef"), build_basis(2), 0, 3)
    with np.errstate(over="ignore"):
        want = besov.besov_norm(pyr, -1.7, p=2.0, weight=besov.exponential_weight(300.0))
    assert 0 < got == want


def test_equation_commands_import_no_scipy(tmp_path):
    # scipy is a test dependency only: importing it would put about 0.8 s of
    # set-up before every renorm, solve and converge run
    out = str(tmp_path)
    script = f"""
import sys
from mshe.cli import main

runs = [["renorm", "--equation", "pam3d", "--eps", "0.5", "--samples", "1024"],
        ["renorm", "--equation", "she1d", "--eps", "0.5", "--samples", "1024"],
        ["converge", "--equation", "she1d", "--ito", "--eps-list", "0.5", "0.25",
         "--grid", "64,512,4,0.125", "--seeds", "1", "--samples", "1024"],
        ["converge", "--equation", "pam3d", "--eps-list", "0.5", "0.25",
         "--grid", "16,0,2,0.1", "--seeds", "1", "--samples", "1024"]]
for i, argv in enumerate(runs):
    assert main(argv + ["--out", {out!r} + f"/{{i}}"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
