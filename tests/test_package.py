import importlib

import pytest

import mshe


@pytest.mark.parametrize("module", mshe.__all__)
def test_all_names_resolve(module):
    # every public name a module lists is defined in it
    mod = importlib.import_module(f"mshe.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_no_module_calls_np_interp():
    # every table read (the mollifier's b, bb and CDF tables and the
    # wavelet phi) goes through noise._IndexedInterp, which gives np.interp's
    # bits without its binary search
    import ast
    from pathlib import Path

    calls = []
    for path in sorted(Path(mshe.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "interp" or \
                    isinstance(node, ast.ImportFrom) and \
                    any(a.name == "interp" for a in node.names):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_importing_builds_no_lookup_table():
    # the tables are built on first use, so the set-up of a command does
    # not pay for them
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(mshe.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    script = ("import mshe.cli, mshe.kernel, mshe.noise, mshe.renorm, mshe.solver\n"
              "from mshe import noise\n"
              "print([f.cache_info().currsize for f in (noise.bump_profile, noise._bb_cdf,"
              " noise._b_table, noise._bb_table, noise._cdf_table)])")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0]"
