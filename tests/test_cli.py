import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mshe
from mshe.cli import main
from mshe.noise import Grid, regularity_study
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
             "--samples", "4096", "--seed", "7", "--green-radius", "2"],
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
