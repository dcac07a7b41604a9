"""One round of a benchmark run, in a fresh process.

Reads a plan (JSON) written by ``run.py``: the ``mshe`` modules the
workload's commands load, the CLI argument lists of one round, and the kind
of round.  It times the import of those modules (set-up), then runs the
commands through ``mshe.cli.main`` and records the wall time, the CPU time
and the peak RSS of this process, as a user running the same ``mshe``
commands one process each would see them.  After the round, outside the
timed part, it records a digest of every command's output files, so
``run.py`` can check one round's outputs and require the others to be
byte-identical.

Rounds are of three kinds: ``plain`` (untraced), ``spans`` (spans and
counts) and ``memory`` (spans with ``tracemalloc`` peaks).  The result goes
to the JSON file named by ``--result``.  Only the standard library is
imported before the set-up clock starts.
"""

import argparse
import hashlib
import importlib
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in Path(outdir).rglob("*") if p.is_file()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    for name in plan["modules"]:
        importlib.import_module(name)
    setup_s = time.perf_counter() - t0
    import mshe.cli

    if Path(mshe.cli.__file__).resolve().parent != SRC / "mshe":
        raise SystemExit(f"mshe imported from {mshe.cli.__file__}, not {SRC}")
    result = {"setup_s": setup_s}

    tracer = None
    if plan["kind"] != "plain":
        from spans import Tracer

        tracer = Tracer(memory=plan["kind"] == "memory")
        tracer.install()
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    records = []
    for cmd in plan["commands"]:
        c0 = time.perf_counter()
        try:
            rc = mshe.cli.main(cmd["argv"])
        except Exception:  # a crash is a failed command, not a harness error
            traceback.print_exc()
            rc = -1
        records.append({"name": cmd["name"], "rc": rc,
                        "wall_s": time.perf_counter() - c0})
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    result.update(wall_s=wall_s, cpu_s=cpu_s, commands=records,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.summary(wall_s, threading.main_thread().ident)
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    for cmd, rec in zip(plan["commands"], records):
        rec["digest"] = _digest(cmd["outdir"])
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
