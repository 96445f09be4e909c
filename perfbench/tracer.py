"""Outside-in layer spans for thermalcast, recorded from the benchmark.

The tracer wraps each covered function and rebinds the wrapper under every
name that refers to the function inside the ``thermalcast`` modules (for
example ``thermalcast.sweep.gaussian_discord`` and
``thermalcast.info.homodyne_condition``), so calls made by the package to
itself are seen too. Nothing under ``src/`` changes.

Each thread keeps its own span stack. A span opened on a pool thread with
an empty stack is a child of the innermost open span of the thread that
installed the tracer (the load generator, which also runs ``run_sweep``).
Spans stay in memory; :meth:`Tracer.write` saves them when the run ends.

Per function the tracer reports ``calls``; ``self_s``, the span's
duration minus the part of it covered by child spans on any thread;
``cpu_s``, the thread CPU of the span minus that of its same-thread
children; and ``wait_s``, the span's time on its own thread (children on
that thread excluded) minus ``cpu_s``: time its code was runnable or
blocked but not on a CPU, such as GIL and scheduler waits in the pool.
For a span whose children all ran on the same thread, self_s = cpu_s +
wait_s, up to timer granularity (a few microseconds per call, either
sign). ``run_sweep`` is the exception: its children run on pool threads,
so its ``self_s`` is the time no point was being evaluated (pool start-up,
hand-off and tear-down), its ``cpu_s`` is the load generator's CPU and
its ``wait_s`` is how long the load generator waited for the pool.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

PACKAGE = "thermalcast"

TARGETS = (
    "cli.main",
    "sweep.parse_config", "sweep.run_sweep", "sweep.emit_csv",
    "scenarios.build_scenario", "scenarios.extract_information_blocks",
    "gaussian.apply_beamsplitter", "gaussian.validate_physicality",
    "gaussian.symplectic_eigenvalues",
    "info.conditional_mutual_information", "info.mutual_information",
    "info.gaussian_discord", "info.homodyne_condition", "info.von_neumann_entropy",
    "info.shannon_entropy",
    "hbt.thermality_check", "hbt.sample_quadratures", "hbt.g2_cross_estimate",
    "hbt.g2_analytic",
)

SPAN_FIELDS = ("calls", "self_s", "cpu_s", "wait_s")

# Counts and ratios on top of the spans, with their units. The g2
# estimator reads two quadratures of each of two modes: 4 useful columns.
COUNTERS = {
    "sweep.emit_csv.bytes": "bytes",
    "sweep.rows_failed": "count",
    "info.discord.angle_evals_per_call": "calls/call",
    "hbt.normals_drawn": "count",
    "hbt.sample_bytes_computed": "bytes",
    "hbt.useful_column_frac": "frac",
    "hbt.samples_per_cpu_s": "1/s",
}
USEFUL_COLUMNS = 4


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {f"{target}.{field}": ("count" if field == "calls" else "s")
             for target in TARGETS for field in SPAN_FIELDS}
    units.update(COUNTERS)
    units["trace.absent_targets"] = "count"
    return units


class Tracer:
    """Install with ``with Tracer() as tracer:``; read :meth:`metrics` after."""

    def __init__(self, targets: tuple[str, ...] = TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.request = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._tally: dict[str, float] = defaultdict(float)
        self._absent_counters: set[str] = set()
        self._origin = perf_counter()

    # -- installation --------------------------------------------------------

    def __enter__(self):
        self._local.stack = self._main_stack
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target in self.targets:
            module_name, _, attr = target.rpartition(".")
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, name, value))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._rebound):
            setattr(module, name, original)
        self._rebound.clear()
        return False

    def _wrap(self, name, fn):
        spans, local, ids, main = self.spans, self._local, self._ids, self._main_stack
        signature = inspect.signature(fn) if name in _HOOKS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = thread_time()
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.request, name, threading.get_ident(),
                               t0, t1, c1 - c0))
            if signature is not None:
                self._count(name, signature, args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _count(self, target, signature, args, kwargs, result):
        hook, names = _HOOKS[target]
        try:
            increments = hook(signature.bind(*args, **kwargs).arguments, result)
        except (KeyError, AttributeError, TypeError, OSError):
            # the program changed shape under the hook: report its counters absent
            with self._lock:
                self._absent_counters.update(names)
            return
        with self._lock:
            for key, value in increments.items():
                self._tally[key] += value

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s, cpu_s and wait_s per traced function."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        totals = {target: dict.fromkeys(SPAN_FIELDS, 0.0) for target in self.targets}
        for sid, _, _, name, tid, t0, t1, cpu in self.spans:
            kids = children.get(sid, ())
            local = [k for k in kids if k[4] == tid]
            covered = _union_length([(max(k[5], t0), min(k[6], t1)) for k in kids])
            self_cpu = cpu - sum(k[7] for k in local)
            row = totals[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - covered
            row["cpu_s"] += self_cpu
            row["wait_s"] += (t1 - t0) - sum(k[6] - k[5] for k in local) - self_cpu
        return totals

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of :func:`metric_units`, by name.

        An absent target or counter reads 0 and is listed by
        :attr:`absent_metrics`.
        """
        out: dict[str, float] = {}
        for target, row in self.layer_totals().items():
            for field, value in row.items():
                out[f"{target}.{field}"] = value
        tally = self._tally
        calls = lambda target: out.get(f"{target}.calls", 0.0)
        sample_cpu = out.get("hbt.sample_quadratures.cpu_s", 0.0)
        out["sweep.emit_csv.bytes"] = tally["bytes"]
        out["sweep.rows_failed"] = tally["rows_failed"]
        out["info.discord.angle_evals_per_call"] = (
            calls("info.homodyne_condition") / calls("info.gaussian_discord")
            if calls("info.gaussian_discord") else 0.0)
        out["hbt.normals_drawn"] = tally["normals"]
        out["hbt.sample_bytes_computed"] = 8.0 * tally["normals"]
        out["hbt.useful_column_frac"] = (
            tally["useful_normals"] / tally["normals"] if tally["normals"] else 0.0)
        out["hbt.samples_per_cpu_s"] = tally["samples"] / sample_cpu if sample_cpu > 0 else 0.0
        out["trace.absent_targets"] = float(len(self.absent_metrics))
        return out

    @property
    def absent_metrics(self) -> list[str]:
        """Targets that no longer exist, then counters whose hook no longer fits."""
        return self.absent + sorted(self._absent_counters)

    def write(self, path: str | os.PathLike):
        """Save every span as CSV; times in seconds from tracer creation."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,parent,request,name,thread,start_s,end_s,cpu_s\n")
            for sid, parent, request, name, tid, t0, t1, cpu in self.spans:
                handle.write(f"{sid},{parent},{request},{name},{tid},"
                             f"{t0 - self._origin:.9f},{t1 - self._origin:.9f},{cpu:.9f}\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= max(lo, end):
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _count_emit(arguments, result):
    return {"bytes": float(os.path.getsize(arguments["destination"]))}


def _count_rows(arguments, result):
    return {"rows_failed": float(sum(1 for row in result.rows if not row.ok))}


def _count_samples(arguments, result):
    n, columns = arguments["n_samples"], arguments["state"].data.shape[0]
    return {"samples": float(n), "normals": float(n * columns),
            "useful_normals": float(n * USEFUL_COLUMNS)}


# Wrapped function -> (hook computing tally increments, counters it feeds).
_HOOKS = {
    "sweep.emit_csv": (_count_emit, ("sweep.emit_csv.bytes",)),
    "sweep.run_sweep": (_count_rows, ("sweep.rows_failed",)),
    "hbt.sample_quadratures": (_count_samples, (
        "hbt.normals_drawn", "hbt.sample_bytes_computed", "hbt.useful_column_frac",
        "hbt.samples_per_cpu_s")),
}
