"""Benchmark of the ``mshe`` command line: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run prepares the workload's inputs from the
seed, then runs whole rounds of the workload's CLI commands until about
``--seconds`` have passed.  Each round is a fresh process (``worker.py``)
that imports ``mshe.cli`` and the modules the commands load (the set-up) and
runs the commands through ``mshe.cli.main``, as a user running them would,
on one core (``SINGLE_CORE``).
The last round's outputs are checked (``workloads.py``), and every other
round's must be byte-identical to them.  With ``--trace 0`` it reports the
end-to-end metrics as medians over rounds.  With ``--trace 1`` rounds cycle
untraced, traced, and traced with memory peaks; it reports the per-layer
metrics (times and counts from the traced rounds, ``.peak_mb`` from the
memory rounds) and the tracing overhead: traced minus untraced wall time.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record of the
run, with the environment, goes to ``.perfbench/results/``; the spans of
traced rounds go to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: the cycle of round kinds in a traced run
TRACE_KINDS = ("plain", "spans", "memory")
#: a run, set-up and checks included, must end well within 180 s
RUN_DEADLINE_S = 165.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

#: rounds run on one core: numpy's BLAS pool is held to one thread (and the
#: she1d workload passes --threads 1).  On a 2-core machine shared with other
#: tenants, rounds that kept both cores busy varied by 12-28 % between runs,
#: single-threaded ones by about 5 %.
SINGLE_CORE = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


class Runner:
    """Starts the worker processes of one run, each with a JSON plan."""

    def __init__(self, workload, run_dir: Path, deadline: float):
        self.wl = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "SHE_THREADS"}
        self.env.update(SINGLE_CORE)
        self.n_proc = 0

    def worker(self, plan: dict, spans: Path = None) -> dict:
        self.n_proc += 1
        plan_path = self.run_dir / f"plan-{self.n_proc}.json"
        result_path = self.run_dir / f"result-{self.n_proc}.json"
        plan_path.write_text(json.dumps({"modules": list(self.wl.modules), **plan}))
        cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
               "--result", str(result_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time before a worker could start")
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=timeout, cwd=self.run_dir)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"worker exceeded the {RUN_DEADLINE_S:.0f} s run limit")
        if proc.returncode != 0:
            raise HarnessError(f"worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text())


def _judge(commands, outdirs, ref, rounds) -> None:
    """Check each command's outputs from the last round, and mark every
    round's record with its problems: a non-zero exit, a failed check, or
    output that differs byte for byte from the checked round's."""
    for i, (c, d) in enumerate(zip(commands, outdirs)):
        last = rounds[-1]["commands"][i]
        notes = {}
        if last["rc"] != 0:
            verdict = [f"last round exited with code {last['rc']}; outputs unchecked"]
        else:
            try:
                verdict = c.check(d, ref, notes)
            except Exception as exc:  # malformed output fails its command
                traceback.print_exc()
                verdict = [f"output unreadable: {exc!r}"]
        last["notes"] = notes
        for r in rounds:
            rec = r["commands"][i]
            if rec["rc"] != 0:
                rec["problems"] = [f"exit code {rec['rc']}"]
            elif rec["digest"] != last["digest"]:
                rec["problems"] = ["output differs from the checked round"]
            else:
                rec["problems"] = verdict
            rec["wrong_output"] = rec["rc"] == 0 and bool(rec["problems"])


def _median(values) -> float:
    return float(statistics.median(values))


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    runner = Runner(wl, run_dir, time.monotonic() + RUN_DEADLINE_S)
    try:
        ref = wl.prepare(args.seed, inputs) if wl.prepare else None
        commands = wl.commands(args.seed, inputs)
        outdirs = [run_dir / "out" / c.name for c in commands]
        plan = {"commands": [{"name": c.name, "outdir": str(d),
                              "argv": c.argv + ["--out", str(d)]}
                             for c, d in zip(commands, outdirs)]}
        kinds = TRACE_KINDS if args.trace else ("plain",)
        rounds = []
        start = time.monotonic()
        while True:
            kind = kinds[len(rounds) % len(kinds)]
            spans = None
            if kind != "plain":
                spans = OUT / "traces" / f"{tag}-round{len(rounds)}.json"
                spans.parent.mkdir(parents=True, exist_ok=True)
            t0 = time.monotonic()
            rec = runner.worker({**plan, "kind": kind}, spans)
            rec.update(kind=kind, duration_s=time.monotonic() - t0)
            rounds.append(rec)
            # start another round only if it should end within --seconds
            est = _median(r["duration_s"] for r in rounds)
            now = time.monotonic()
            if len(rounds) >= len(kinds) and now - start + est > args.seconds:
                break
            if now + est > runner.deadline:
                if len(rounds) < len(kinds):
                    raise HarnessError("no time left for every kind of round")
                break
        _judge(commands, outdirs, ref, rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    recs = [c for r in rounds for c in r["commands"]]
    attempted = len(recs)
    failed = sum(bool(c["problems"]) for c in recs)
    correct = not any(c["wrong_output"] for c in recs)
    plain = [r for r in rounds if r["kind"] == "plain"]
    if args.trace:
        units = metric_units()
        kinds = {name: "memory" if name.endswith(".peak_mb") else "spans"
                 for name in units}
        layers = {name: _median(r["layers"][name] for r in rounds if r["kind"] == kind)
                  for name, kind in kinds.items() if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - _median(
            r["wall_s"] for r in plain)
        metrics = {name: {"value": int(layers[name]) if unit == "count" else layers[name],
                          "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {"setup_s": _median(r["setup_s"] for r in rounds),
                  "wall_s": _median(r["wall_s"] for r in plain),
                  "cpu_s": _median(r["cpu_s"] for r in plain),
                  "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(),
              "missing": sorted({m for r in rounds for m in r.get("missing", [])}),
              "rounds": rounds, "attempted": attempted, "failed": failed,
              "correct": correct, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mshe" / "cli.py").is_file():
        print(f"error: no mshe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        rec = run(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {rec['workload']} (seed {rec['seed']}, "
          f"{len(rec['rounds'])} rounds)")
    if rec["missing"]:
        print(f"  not found in mshe, not traced: {', '.join(rec['missing'])}")
    for name, m in rec["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name} = {value} {m['unit']}")
    print(f"  commands attempted {rec['attempted']}, failed {rec['failed']}")
    problems = {(c["name"], p) for r in rec["rounds"] for c in r["commands"]
                for p in c["problems"]}
    for name, p in sorted(problems):
        print(f"  FAILED {name}: {p}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
