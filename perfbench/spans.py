"""Span tracing of ``mshe`` functions from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``mshe`` module namespace that binds it (the CLI imports lazily inside
each command; ``solver`` binds ``mollify`` and ``sample_white_noise`` by
name), so every call path is seen.  A wrapper records one span
(id, name, start, end, parent, thread) per call.  Each thread keeps its own
span stack, so a span's parent is the innermost open span of the same thread
and its self time is its duration minus its children in that thread.  Spans
stay in memory and are written out once, at the end of a round.

Work counts come from call arguments and return values.  ``.peak_mb`` is
the ``tracemalloc`` peak of the memory allocated during the call, taken only
by a tracer made with ``memory``: ``tracemalloc`` slows every allocation
(a she1d round about threefold), so those rounds give no times.  Tracing
starts at entry and stops at exit; functions with a ``.peak_mb`` metric never
nest inside one another in the benchmark's workloads, which that one tracing
session per call requires.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


def _steps(args, kwargs, out):
    cfg = args[0] if args else kwargs["cfg"]
    return int(round(cfg.T / cfg.dt))


def _cells(args, kwargs, out):
    return int(out.values.size)


def _coefficients(args, kwargs, out):
    n = 0 if out.phi_level is None else int(out.phi_level.size)
    return n + sum(int(a.size) for lev in out.levels.values() for a in lev.values())


@dataclass(frozen=True)
class Traced:
    """One traced function: ``module.function`` in ``mshe``.

    children: it has traced callees, so ``.total_s`` is reported;
    peak: report ``.peak_mb``; count: (counter name, fn(args, kwargs, result)).
    """

    module: str
    function: str
    children: bool = False
    peak: bool = False
    count: tuple = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


TRACED = (
    Traced("cli", "main", children=True),
    Traced("noise", "sample_white_noise", count=("noise.cells_sampled", _cells)),
    Traced("noise", "mollify"),
    Traced("noise", "regularity_study", children=True),
    Traced("noise", "estimate_regularity", children=True),
    Traced("noise", "write_field"),
    Traced("noise", "read_field"),
    Traced("solver", "convergence_study", children=True, peak=True),
    Traced("solver", "solve_renormalised", children=True, count=("solver.steps", _steps)),
    Traced("solver", "solve_ito_reference", count=("solver.steps", _steps)),
    Traced("solver", "mollified_noise", children=True),
    Traced("solver", "weighted_distance"),
    Traced("renorm", "compute_constants", children=True),
    Traced("renorm", "c_eps"),
    Traced("renorm", "c11_eps"),
    Traced("renorm", "c12_eps"),
    Traced("wavelet", "analyze", peak=True, count=("wavelet.coefficients", _coefficients)),
    Traced("wavelet", "build_basis", children=True),
    Traced("wavelet", "build_family"),
    Traced("besov", "level_aggregate"),
    Traced("kernel", "decompose"),
    Traced("reconstruct", "canonical_model", peak=True),
    Traced("reconstruct", "reconstruct", peak=True),
    Traced("reconstruct", "sewing_check"),
    Traced("reconstruct", "read_modelled", children=True),
)

#: work counters, in the order they are reported; ``renorm.qmc_points``
#: counts the rows of every uniform block ``renorm._qmc_mean`` evaluates
COUNTERS = ("noise.cells_sampled", "solver.steps", "renorm.qmc_points",
            "wavelet.coefficients")

#: whole-round figures of a traced run, reported under ``trace.``
ROUND_METRICS = ("trace.wall_s", "trace.overhead_s", "trace.untraced_s")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for t in TRACED:
        out[f"{t.name}.calls"] = "count"
        out[f"{t.name}.self_s"] = "s"
        if t.children:
            out[f"{t.name}.total_s"] = "s"
        if t.peak:
            out[f"{t.name}.peak_mb"] = "MB"
    for c in COUNTERS:
        out[c] = "count"
    for m in ROUND_METRICS:
        out[m] = "s"
    return out


class Tracer:
    """Records the spans and counts of one round; with ``memory`` it also
    takes ``.peak_mb``."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []                 # (id, name, start, end, parent, thread)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, counter: str, n: int) -> None:
        with self._lock:
            self.counts[counter] += n

    def _wrap(self, t: Traced, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            peak = t.peak and self.memory
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, t.name, start, end, parent,
                                   threading.get_ident()))
                if peak:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    with self._lock:
                        self.peaks[t.name] = max(self.peaks[t.name], peak_mb)
            if t.count is not None:
                self._add(t.count[0], t.count[1](args, kwargs, out))
            return out

        return wrapper

    def _wrap_qmc(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(U):
                self._add("renorm.qmc_points", int(U.shape[0]))
                return f(U)

            return fn(counted, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Import every traced module, then rebind each traced function in
        every ``mshe`` namespace that holds it."""
        replace = {}
        for t in TRACED:
            mod = importlib.import_module(f"mshe.{t.module}")
            fn = getattr(mod, t.function, None)
            if fn is None:
                self.missing.append(t.name)
                continue
            replace[id(fn)] = (fn, self._wrap(t, fn))
        renorm = importlib.import_module("mshe.renorm")
        qmc = getattr(renorm, "_qmc_mean", None)
        if qmc is None:
            self.missing.append("renorm._qmc_mean")
        else:
            replace[id(qmc)] = (qmc, self._wrap_qmc(qmc))
        for name, mod in list(sys.modules.items()):
            if name != "mshe" and not name.startswith("mshe."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def summary(self, wall_s: float, main_thread: int) -> dict:
        """Per-function calls, self and total time; counters; the part of
        the round's wall time no main-thread span covers."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        covered = 0.0
        for sid, name, start, end, parent, thread in self.spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_time[sid]
            if parent is None and thread == main_thread:
                covered += end - start
        out = {}
        for t in TRACED:
            out[f"{t.name}.calls"] = calls[t.name]
            out[f"{t.name}.self_s"] = self_s[t.name]
            if t.children:
                out[f"{t.name}.total_s"] = total_s[t.name]
            if t.peak:
                out[f"{t.name}.peak_mb"] = self.peaks[t.name]
        for c in COUNTERS:
            out[c] = self.counts[c]
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - covered
        out["trace.self_sum_s"] = sum(self_s.values())
        return out

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread")
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
