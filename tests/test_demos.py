"""The demos run to the end, with every warning an error.

Each demo runs as a script in its own process, as a reader would run it.
demos/07_solver_convergence.py is left out: it takes about ten seconds,
and the convergence it shows is checked by test_acceptance.py::test_09.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mshe

DEMOS = Path(__file__).resolve().parents[1] / "demos"
#: the directory that holds the mshe package, for child processes
PACKAGE_PARENT = str(Path(mshe.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", ["01_symbol_table", "02_kernel_decomposition",
                                  "03_wavelets_and_besov", "04_noise_regularity",
                                  "05_renorm_constants", "06_reconstruction"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / f"{name}.py")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
