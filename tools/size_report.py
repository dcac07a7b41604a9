"""Print the size figures of the ``mshe`` package: its line count and its
defaulted-parameter count.

Lines are newline characters in ``src/mshe/**/*.py`` (what ``wc -l`` counts).
Defaulted parameters are the defaults of every ``def`` and ``lambda``,
positional and keyword-only; dataclass field defaults are not parameters and
are not counted.  Uses the standard library only:

    python3 tools/size_report.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def defaulted_parameters(tree: ast.AST) -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mshe"
    lines = defaults = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        defaults += defaulted_parameters(ast.parse(text, filename=str(path)))
    print(f"{root.name}: {lines:,} lines, {defaults} defaulted parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
