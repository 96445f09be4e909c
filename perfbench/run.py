"""thermalcast benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark measures the package in ``src/`` of the checkout that holds
this file, from outside: it changes nothing there and needs no install.
Workloads, metrics and their predicted movements are described in
``BENCHMARK.json`` and ``perfbench/predictions.json``. Each run is a fresh
process, so peak memory belongs to one workload alone; the load generator
is its single main thread. The program keeps its own thread pool and BLAS
threads; the run records both in its context.

Every command goes through ``thermalcast.cli.main([...])`` in-process,
with stdout captured. The first command runs once untimed as warm-up.

* ``--trace 0``: passes over the commands repeat until ``--seconds`` have
  elapsed (at least one whole pass; the last pass stops at the first
  command that starts after the deadline), and the end-to-end metrics are
  reported:

  * ``setup_s``: median of set-up probes, each a fresh interpreter that
    imports thermalcast and builds the CLI parser, which every command pays
    before it does any work. Probes are taken before the warm-up and after
    every pass: a shared host's speed drifts over seconds, and probes spread
    across the run average over more of that drift than a burst of probes
    at one moment. Each probe first waits ``SETUP_QUIET_S``: OpenBLAS
    threads spin for about 0.1 s after a call, and a probe started at once
    competes with them for the CPUs;
  * ``wall_s`` / ``cpu_s``: wall and process CPU seconds (all threads) of
    one untraced, warm pass, as the sum over commands of each command's
    median. A pass takes seconds, and a shared host's load changes within
    it; the median of each command over every pass is hit by fewer of
    those changes than the median of a few whole passes;
  * ``peak_rss_mb``: peak resident memory of this process, read before the
    oracles run;
  * ``ok_frac``: 1 - failed / attempted operations (sweep points and
    ``g2check`` commands), checked against independent numpy oracles.

* ``--trace 1``: one untraced pass, then one traced pass. The per-layer
  metrics of ``tracer.py`` come from the traced pass, and the wall-time
  difference between the two is the tracing overhead. On workloads with
  few spans (g2_gate, g2_sweep) that difference is within pass-to-pass
  noise and can read below zero.

Everything the run writes goes under ``.bench_build/perfbench/`` in the
checkout: a scratch directory removed at the end, and, for traced runs,
the spans of the last traced run of each workload as CSV.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import workloads
from tracer import Tracer, metric_units

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}
LAYER_UNITS = {**metric_units(), "trace.overhead_s": "s", "trace.overhead_frac": "frac"}


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


@dataclass
class Pass:
    walls: list[float]
    cpus: list[float]
    outcomes: list[workloads.Outcome]

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def run_pass(commands: list[workloads.Command], tracer: Tracer | None = None,
             deadline: float = math.inf) -> Pass:
    """Run the commands once, or until the first one that would start after
    deadline (a perf_counter value); only the cli.main calls are timed."""
    from thermalcast import cli
    done = Pass([], [], [])
    for request, command in enumerate(commands):
        if perf_counter() >= deadline:
            break
        for case in command.sweeps:
            case.csv.unlink(missing_ok=True)
        if tracer is not None:
            tracer.request = request
        buffer = io.StringIO()
        t0, c0 = perf_counter(), process_time()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(command.argv))
        done.walls.append(perf_counter() - t0)
        done.cpus.append(process_time() - c0)
        done.outcomes.append(workloads.collect(command, code, buffer.getvalue()))
    return done


SETUP_MIN_PROBES = 11
SETUP_QUIET_S = 0.3

# Runs in a fresh interpreter: import thermalcast and build the CLI parser
# (through --help), which every command pays before it does any work.
# Interpreter start-up itself is not counted.
SETUP_CODE = """
import contextlib, io, time
t0 = time.perf_counter()
import thermalcast.cli
try:
    with contextlib.redirect_stdout(io.StringIO()):
        thermalcast.cli.main(["--help"])
except SystemExit:
    pass
print(time.perf_counter() - t0)
"""


def setup_probe() -> float:
    time.sleep(SETUP_QUIET_S)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    child = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                           capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout.split()[-1])


def _blas_threads() -> int | None:
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    # read .git directly: the benchmark must not look outside its checkout
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(seed: int) -> dict:
    import numpy as np
    import thermalcast
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "pool_workers": getattr(thermalcast.sweep, "_WORKERS", None),
        "generator_id": getattr(thermalcast, "GENERATOR_ID", None),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(ROOT),
    }


def _tally(commands, passes, seed) -> tuple[int, int]:
    expect = workloads.expectations(commands, seed)
    attempted = failed = 0
    for done in passes:
        n = len(done.outcomes)
        a, f = workloads.check(commands[:n], done.outcomes, expect)
        attempted += a
        failed += f
    return attempted, failed


def _sum_of_medians(passes: list[Pass], field: str) -> float:
    """Sum over commands of each command's median; the first pass is whole,
    and a cut last pass adds a sample to the commands it ran."""
    columns = [[] for _ in passes[0].outcomes]
    for done in passes:
        for column, value in zip(columns, getattr(done, field)):
            column.append(value)
    return sum(statistics.median(c) for c in columns)


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    commands = workloads.build(workload, seed, workdir)
    setup = [setup_probe()]
    run_pass(commands[:1])
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(run_pass(commands, deadline=deadline if passes else math.inf))
        setup.append(setup_probe())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_MIN_PROBES:
        setup.append(setup_probe())
    attempted, failed = _tally(commands, passes, seed)
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": _sum_of_medians(passes, "walls"),
               "cpu_s": _sum_of_medians(passes, "cpus"),
               "peak_rss_mb": peak_kib / 1024.0,
               "ok_frac": 1.0 - failed / attempted}
    return {"attempted": attempted, "failed": failed, "passes": len(passes), "absent": [],
            "metrics": _with_units(metrics, END_TO_END_UNITS)}


def trace(workload: str, seed: int, workdir: Path, spans_path: Path) -> dict:
    commands = workloads.build(workload, seed, workdir)
    run_pass(commands[:1])
    plain = run_pass(commands)
    with Tracer() as tracer:
        traced = run_pass(commands, tracer)
    attempted, failed = _tally(commands, [plain, traced], seed)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    tracer.write(spans_path)
    return {"attempted": attempted, "failed": failed, "passes": 2,
            "absent": tracer.absent_metrics, "metrics": _with_units(metrics, LAYER_UNITS)}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "thermalcast" / "__init__.py").is_file():
        return _fail(f"no thermalcast package under {SRC}; run from a full checkout")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            result = trace(args.workload, args.seed, workdir,
                           OUT / f"spans-{args.workload}.csv")
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("context: " + json.dumps(run_context(args.seed), sort_keys=True))
    print(f"passes: {result['passes']}  absent: {', '.join(result['absent']) or 'none'}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
