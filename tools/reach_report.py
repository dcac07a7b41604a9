"""Print the lines of ``src/mshe`` that no ``mshe`` command reaches.

Runs a fixed list of small CLI invocations through ``mshe.cli.main`` under
the standard library's ``trace`` line counter: one or more per subcommand,
and the commands of each benchmark workload on a reduced grid.  Every
physical line of a module is then sorted into one of

    doc        blank lines, comments and docstrings;
    reached    the statement it belongs to ran;
    error      a ``raise`` statement, an ``except`` handler, or a block that
               ends in ``raise`` (an error branch, reached by its own failing
               input rather than by a run);
    unreached  any other statement that no command ran,

a line belonging to the innermost statement (or compound-statement header)
that spans it, and a ``def`` counting as reached only when its body ran.  For
each module the report prints the four counts and the unreached lines grouped
by the function or class that holds them.  Executable lines are the ones that
``python -m trace --missing`` marks.  The standard library only (``mshe``
itself needs numpy); about 25 seconds on one core:

    python3 tools/reach_report.py
"""

from __future__ import annotations

import ast
import importlib
import io
import os
import sys
import tempfile
import tokenize
import trace
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mshe"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def commands(work: Path) -> list:
    """The CLI invocations, in order; each writes under work/<index>."""
    she = ["--equation", "she1d", "--grid", "256,1024,8,0.25"]
    pam3 = ["--equation", "pam3d", "--grid", "16,0,2,0.1"]
    return [
        ["structure", "table", "--kappa", "0.01", "--d", "3"],
        ["structure", "table", "--kappa", "0.1", "--d", "1"],
        ["structure", "table", "--config", str(work / "structure.cfg")],
        ["kernel", "check", "--d", "1", "--points", "50"],
        ["kernel", "check", "--d", "3", "--r", "2", "--points", "50"],
        *[["wavelet", "selftest", "--r", str(r)] for r in (1, 2, 3, 4)],
        ["noise", "sample", "--grid", "128,1024,4,1", "--seed", "3",
         "--out-field", str(work / "st.shef")],
        ["noise", "sample", "--d", "2", "--grid", "64,0,2,0", "--kind", "spatial",
         "--out-field", str(work / "sp2.shef")],
        ["noise", "sample", "--d", "3", "--grid", "16,0,2,0", "--kind", "spatial",
         "--out-field", str(work / "sp3.shef")],
        ["noise", "mollify", "--input", str(work / "st.shef"), "--eps", "0.25"],
        ["noise", "mollify", "--input", str(work / "sp2.shef"), "--eps", "0.25"],
        # the wavelet workload's commands, reduced
        ["noise", "regularity", "--d", "1", "--grid", "256,1024,4,1", "--seeds", "2",
         "--nmax", "4"],
        ["noise", "regularity", "--d", "2", "--grid", "128,0,2,0", "--kind", "spatial",
         "--seeds", "2"],
        ["reconstruct", "--input", str(work / "lift.shef"), "--nmin", "0", "--nmax", "3"],
        ["reconstruct", "--input", str(work / "six.shef"), "--nmin", "0", "--nmax", "3",
         "--family", "3"],
        ["besov", "norm", "--input", str(work / "st.shef"), "--alpha", "-1"],
        ["besov", "norm", "--input", str(work / "st.shef"), "--alpha", "-1", "--p", "4",
         "--weight", "poly:1", "--r", "3"],
        ["besov", "norm", "--input", str(work / "sp2.shef"), "--alpha", "-1.5", "--p", "inf",
         "--weight", "exp:0.5"],
        ["besov", "norm", "--input", str(work / "st.shef"), "--alpha", "-1", "--p", "4000"],
        ["besov", "check-w", "--kappa", "0.05"],
        ["besov", "check-w", "--kappa", "0.05", "--c", "0.5", "--ell", "1", "--d", "1",
         "--interpretation", "strict"],
        # the pam3d workload's commands, reduced
        ["renorm", "--equation", "pam3d", "--eps", "0.1", "0.05", "--samples", "4096"],
        ["converge", *pam3, "--eps-list", "1", "0.5", "0.25", "--seeds", "2",
         "--samples", "4096", "--snapshot-t0", "0.05"],
        ["renorm", "--equation", "she1d", "--eps", "0.1", "--samples", "4096", "--threads", "2"],
        # the she1d workload's command, reduced
        ["converge", *she, "--u0", "dirac", "--eps-list", "0.4", "0.2", "0.1", "--seeds", "1",
         "--ito", "--snapshot-t0", "0.125", "--threads", "1"],
        ["converge", *she, "--eps-list", "0.4", "0.2", "--seeds", "2", "--first-seed", "1",
         "--dt", "0.0009765625", "--ell", "0.5", "--threads", "2"],
        ["converge", *pam3, "--eps-list", "1", "0.5", "--seeds", "1", "--samples", "4096",
         "--u0", f"file:{work / 'u0-3.shef'}"],
        ["solve", *she, "--eps", "0.2", "--samples", "4096", "--ell", "0.5"],
        # 256 points per axis: the 2-d step by FFT rather than per-axis products
        ["solve", "--equation", "pam2d", "--grid", "256,0,2,0.002", "--eps", "0.25",
         "--ceps", "0.5", "--u0", f"file:{work / 'u0.shef'}"],
        ["solve", *pam3, "--eps", "0.5", "--samples", "4096", "--u0", "const:2"],
    ]


def _make_inputs(work: Path) -> None:
    """Files the commands read, made without tracing: a config, two lifts
    (1 and X; all six symbols, which reads the model) and a 2-d and a 3-d
    initial condition."""
    import numpy as np

    from mshe.noise import Field, Grid, write_field
    from mshe.reconstruct import SYMBOLS, ModelledDistribution, write_modelled

    (work / "structure.cfg").write_text("# the d = 2 table\nkappa=0.05\nd=2\n")
    g = Grid(d=1, L=1.0, N=64, T=1.0, M=1024)
    tt, xx = np.meshgrid(g.ts, g.xs, indexing="ij")
    smooth = np.sin(2 * np.pi * xx) * (1 + 0.3 * np.cos(2 * np.pi * tt))
    write_modelled(work / "lift.shef", ModelledDistribution(
        grid=g, coeffs={"1": smooth, "X": 2 * np.pi * np.cos(2 * np.pi * xx)}))
    write_modelled(work / "six.shef", ModelledDistribution(
        grid=g, coeffs={s: smooth / (i + 1) for i, s in enumerate(SYMBOLS)}))
    for name, d, n in (("u0.shef", 2, 256), ("u0-3.shef", 3, 16)):
        grid = Grid(d=d, L=2.0, N=n)
        r2 = sum(x ** 2 for x in np.meshgrid(*[grid.xs] * d, indexing="ij"))
        write_field(work / name, Field(grid=grid, values=np.exp(-4 * r2)))


def run(work: Path) -> dict:
    """{(filename, line): hits} of the commands, with every module imported
    under the tracer so that its top level counts."""
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ.pop("SHE_THREADS", None)
    # no ignoredirs: trace caches that decision by bare module name, so an
    # ignored importlib/__init__.py would hide mshe/__init__.py as well
    tracer = trace.Trace(count=1, trace=0)
    for m in MODULES:
        tracer.runfunc(importlib.import_module, f"mshe.{m}" if m != "__init__" else "mshe")
    _make_inputs(work)
    from mshe.cli import main

    for i, argv in enumerate(commands(work)):
        code = tracer.runfunc(main, argv + ["--out", str(work / f"out{i:02d}")])
        if code:
            raise SystemExit(f"mshe {' '.join(argv)} exited {code}")
    return tracer.results().counts


def _doc_lines(source: str, tree: ast.Module) -> set:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            lines.add(tok.start[0])
    for i, text in enumerate(source.splitlines(), 1):
        if not text.strip():
            lines.add(i)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _blocks(node) -> list:
    out = [getattr(node, f) for f in ("body", "orelse", "finalbody") if getattr(node, f, None)]
    return out + [[h] for h in getattr(node, "handlers", [])]


class _Module:
    """The line classes of one module, from its source and its hit lines."""

    def __init__(self, path: Path, hits: set):
        self.source = path.read_text(encoding="utf-8")
        self.n = self.source.count("\n")
        tree = ast.parse(self.source)
        self.executable = set(trace._find_executable_linenos(str(path)))
        self.hits = hits
        self.kind = dict.fromkeys(_doc_lines(self.source, tree), "doc")
        self.owner = {}
        self._visit(tree.body, "<module>", error=False, body=True)
        # a line between two blocks (else:, finally:) goes with the block after it
        after = None
        for i in range(self.n, 0, -1):
            if i not in self.kind:
                self.kind[i], self.owner[i] = self.kind[after], self.owner[after]
            elif self.kind[i] != "doc":
                after = i

    @staticmethod
    def _own_lines(node) -> range:
        """A simple statement's lines, or a compound statement's header."""
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        blocks = _blocks(node)
        return range(first, blocks[0][0].lineno if blocks else node.end_lineno + 1)

    def _visit(self, stmts, owner: str, error: bool, body: bool = False) -> bool:
        """Class the lines of a block (a function or class body when body);
        True when any of them was reached."""
        error = error or (not body and isinstance(stmts[-1], ast.Raise))
        reached_any = False
        for node in stmts:
            own = self._own_lines(node)
            in_error = error or isinstance(node, (ast.Raise, ast.ExceptHandler))
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = owner
            if defines:
                inner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            children = any([self._visit(b, inner, in_error, defines) for b in _blocks(node)])
            run = self.executable.intersection(own)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reached = children
            else:
                reached = bool(run & self.hits) or (children and not run)
            for i in own:
                if i not in self.kind:
                    self.kind[i] = ("reached" if reached else
                                    "error" if in_error else "unreached")
                    self.owner[i] = inner
            reached_any |= reached
        return reached_any

    def counts(self) -> dict:
        out = dict.fromkeys(("doc", "reached", "error", "unreached"), 0)
        for i in range(1, self.n + 1):
            out[self.kind[i]] += 1
        return out

    def unreached(self) -> dict:
        """owner -> ranges of unreached lines, in line order."""
        groups = {}
        for i in sorted(i for i, k in self.kind.items() if k == "unreached"):
            runs = groups.setdefault(self.owner[i], [])
            if runs and runs[-1][1] == i - 1:
                runs[-1][1] = i
            else:
                runs.append([i, i])
        return groups


def report(counts: dict) -> str:
    hits = {}
    for (filename, line), n in counts.items():
        hits.setdefault(os.path.realpath(filename), set()).add(line)
    rows, total = [], dict.fromkeys(("lines", "doc", "reached", "error", "unreached"), 0)
    detail = []
    for m in MODULES:
        path = PACKAGE / f"{m}.py"
        mod = _Module(path, hits.get(os.path.realpath(path), set()))
        c = {"lines": mod.n, **mod.counts()}
        rows.append((m, c))
        for k in total:
            total[k] += c[k]
        for owner, runs in mod.unreached().items():
            spans = ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)
            size = sum(b - a + 1 for a, b in runs)
            detail.append(f"  {m}.{owner} ({size}): {spans}")
    head = f"{'module':12} {'lines':>6} {'doc':>6} {'reached':>8} {'error':>6} {'unreached':>10}"
    out = [head]
    for name, c in rows + [("total", total)]:
        out.append(f"{name:12} {c['lines']:6d} {c['doc']:6d} {c['reached']:8d} "
                   f"{c['error']:6d} {c['unreached']:10d}")
    return "\n".join(out + ["", "unreached lines (function: lines):"] + detail)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mshe-reach-") as tmp:
        print(report(run(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
