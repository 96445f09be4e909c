"""The benchmark's four workloads, their inputs and their output checks.

BENCHMARK.json gates ``presets`` and ``g2_sweep``; ``g2_gate`` runs the
same way as a diagnostic (see predictions.json).

A workload is an ordered list of thermalcast CLI commands. Its inputs
(config files, seeds, parameter values) are generated from the workload
seed alone; the program sees only those generated inputs. Sizes never
depend on the seed, so the traced counts of a workload repeat exactly
across seeds.

An operation is one sweep point or one ``g2check`` command. It fails on a
``nan`` cell, a missing row, a non-zero exit code, or a mismatch with the
oracles in ``oracles.py``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

WORKLOAD_NAMES = ("presets", "g2_sweep", "g2_gate")

G2_SWEEP_POINTS = 40
G2_SWEEP_SAMPLES = 200_000
G2_GATE_COMMANDS = 10
G2_GATE_SAMPLES = 1_000_000


@dataclass(frozen=True)
class SweepCase:
    """One CSV a command writes: a swept parameter over an inclusive grid."""

    csv: Path
    scenario: str
    fixed: dict[str, float]
    swept: str
    start: float
    stop: float
    count: int
    outputs: tuple[str, ...]
    seed: int | None = None
    samples: int | None = None

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def params(self) -> dict[str, np.ndarray]:
        values = {**oracles.PARAM_DEFAULTS, **self.fixed}
        out = {k: np.full(self.count, float(v)) for k, v in values.items()}
        out[self.swept] = self.grid()
        return out

    def config_text(self) -> str:
        lines = [f"scenario={self.scenario}"]
        lines += [f"{k}={v!r}" for k, v in self.fixed.items()]
        lines.append(f"sweep={self.swept}:{self.start!r}:{self.stop!r}:{self.count}")
        lines.append(f"outputs={','.join(self.outputs)}")
        if self.seed is not None:
            lines.append(f"seed={self.seed}")
        if self.samples is not None:
            lines.append(f"samples={self.samples}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GateCase:
    """What one ``g2check`` command must print: the thermal verdict and an
    estimate within the g2 tolerance of the exact value."""

    scenario: str
    params: tuple[tuple[str, float], ...]
    samples: int


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    sweeps: tuple[SweepCase, ...] = ()
    gate: GateCase | None = None

    @property
    def ops(self) -> int:
        return sum(case.count for case in self.sweeps) + (self.gate is not None)


def _draw(rng: np.random.Generator, ranges: dict[str, tuple[float, float]]) -> dict[str, float]:
    return {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()}


def _sweep_command(case: SweepCase) -> Command:
    config = case.csv.with_suffix(".cfg")
    config.write_text(case.config_text(), encoding="ascii")
    return Command(("sweep", "--config", str(config), "--out", str(case.csv)), sweeps=(case,))


# The six figure presets as the README defines them. The benchmark keeps its
# own copy so that the oracle does not take the expected inputs from the
# program it is checking.
_ETA_AB = ("eta_ab", 0.01, 0.99, 99)
_ETA_TH = ("eta_th", 0.01, 1.0, 100)


def _preset_cases(workdir: Path) -> dict[str, list[SweepCase]]:
    def case(stem, scenario, fixed, swept, outputs):
        name, start, stop, count = swept
        return SweepCase(workdir / f"{stem}.csv", scenario, fixed, name, start, stop, count, outputs)

    pairs = ((1.0, 1.0), (2.0, 1.0), (1.0, 10.0), (2.0, 10.0))
    full = {fig: [case(f"{fig}_nu{nu:g}_v{v:g}", "full",
                       {"nu": nu, "eta_th_a": 0.3, "eta_th_b": 0.3, "v_alpha": v, "v_beta": v},
                       _ETA_AB, (out,)) for nu, v in pairs]
            for fig, out in (("fig7", "cmi"), ("fig8", "discord"))}
    return {
        "fig3": [case("fig3", "basic", {"nu": 1.0}, _ETA_AB, ("cmi", "mi", "discord"))],
        "fig4": [case("fig4", "basic", {"nu": 2.0}, _ETA_AB, ("cmi", "discord"))],
        "fig5": [case("fig5", "basic", {"nu": 1040.0}, _ETA_AB, ("cmi", "discord"))],
        "fig6": [case(f"fig6_vth{v:g}", "thermal_channel", {"nu": 2.0, "eta_ab": 0.5, "v_th": v},
                      _ETA_TH, ("cmi", "discord")) for v in (1.0, 2.0, 10.0, 100.0, 500.0)],
        **full,
    }


def _presets(rng: np.random.Generator, workdir: Path) -> list[Command]:
    return [Command(("figure", "--name", name, "--out-dir", str(workdir)), sweeps=tuple(cases))
            for name, cases in _preset_cases(workdir).items()]


def _g2_sweep(rng: np.random.Generator, workdir: Path) -> list[Command]:
    # ranges keep both receivers' mean photon number well above zero, where
    # the ratio estimator is close to normal and five standard errors hold
    fixed = _draw(rng, {"nu": (4.0, 12.0), "eta_th": (0.7, 1.0), "v_th": (1.0, 3.0),
                        "eta_th_a": (0.7, 1.0), "v_alpha": (1.0, 3.0),
                        "eta_th_b": (0.7, 1.0), "v_beta": (1.0, 3.0)})
    seed = int(rng.integers(0, 2 ** 63))
    return [_sweep_command(SweepCase(workdir / "g2_sweep.csv", "full", fixed, "eta_ab",
                                     0.2, 0.8, G2_SWEEP_POINTS, ("g2",),
                                     seed=seed, samples=G2_SWEEP_SAMPLES))]


def _g2_gate(rng: np.random.Generator, workdir: Path) -> list[Command]:
    # the criterion-9 state: basic topology, nu = 10, eta_ab = 0.5
    gate = GateCase("basic", (("nu", 10.0), ("eta_ab", 0.5)), G2_GATE_SAMPLES)
    seeds = rng.integers(0, 2 ** 32, size=G2_GATE_COMMANDS)
    return [Command(("g2check", "--nu", "10", "--eta-ab", "0.5",
                     "--samples", str(G2_GATE_SAMPLES), "--seed", str(int(k))), gate=gate)
            for k in seeds]


_BUILDERS = {"presets": _presets, "g2_sweep": _g2_sweep, "g2_gate": _g2_gate}


def build(name: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one workload, with their config files written to workdir."""
    return _BUILDERS[name](np.random.default_rng(seed), Path(workdir))


# ---------------------------------------------------------------------------
# Oracle expectations and checks.

@dataclass
class Expectations:
    """Expected value and tolerance per (CSV, output) and per gate case."""

    sweeps: dict[Path, dict[str, tuple[np.ndarray, np.ndarray]]] = field(default_factory=dict)
    gates: dict[GateCase, tuple[float, float]] = field(default_factory=dict)


_ORACLES = {"cmi": (oracles.cmi, oracles.CMI_TOL), "mi": (oracles.mi, oracles.CMI_TOL),
            "discord": (oracles.discord, oracles.DISCORD_TOL)}


def _g2_expectation(gamma: np.ndarray, samples: int, rng: np.random.Generator):
    return (oracles.g2_exact(gamma),
            oracles.G2_SIGMAS * oracles.g2_standard_error(gamma, samples, rng))


def expectations(commands: list[Command], seed: int) -> Expectations:
    """Run every oracle once for the inputs of these commands."""
    rng = np.random.default_rng((seed, 1))
    expect = Expectations()
    for command in commands:
        for case in command.sweeps:
            gamma = oracles.eab_covariances(case.scenario, case.params())
            per_output = {}
            for out in case.outputs:
                if out == "g2":
                    per_output[out] = _g2_expectation(gamma, case.samples, rng)
                else:
                    oracle, tol = _ORACLES[out]
                    value = oracle(gamma)
                    per_output[out] = (value, np.full_like(value, tol))
            expect.sweeps[case.csv] = per_output
        gate = command.gate
        if gate is not None and gate not in expect.gates:
            values = {**oracles.PARAM_DEFAULTS, **dict(gate.params)}
            gamma = oracles.eab_covariances(gate.scenario, {k: np.array([v]) for k, v in values.items()})
            exact, tol = _g2_expectation(gamma, gate.samples, rng)
            expect.gates[gate] = (float(exact[0]), float(tol[0]))
    return expect


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and data rows of a thermalcast CSV, metadata lines skipped."""
    lines = [line for line in path.read_text(encoding="ascii").splitlines()
             if not line.startswith("#")]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


@dataclass(frozen=True)
class Outcome:
    """What one command left behind: exit code, stdout and its CSV tables
    (None for a CSV that is missing or unreadable)."""

    code: int
    stdout: str
    tables: dict[Path, tuple[list[str], np.ndarray] | None]


def collect(command: Command, code: int, stdout: str) -> Outcome:
    tables = {}
    for case in command.sweeps:
        try:
            tables[case.csv] = read_table(case.csv)
        except (OSError, ValueError, IndexError):
            tables[case.csv] = None
    return Outcome(code, stdout, tables)


def check_sweep(case: SweepCase, table, expect: dict[str, tuple[np.ndarray, np.ndarray]]) -> int:
    """Number of failed points in one CSV; every point fails if it is unreadable."""
    if table is None:
        return case.count
    header, data = table
    if header != [case.swept, *case.outputs] or data.shape != (case.count, 1 + len(case.outputs)):
        return case.count
    grid = case.grid()
    bad = ~(np.abs(data[:, 0] - grid) <= 1e-9 * np.maximum(1.0, np.abs(grid)))
    for j, out in enumerate(case.outputs):
        value, tol = expect[out]
        bad |= ~(np.abs(data[:, 1 + j] - value) <= tol)
    return int(bad.sum())


_ESTIMATE = re.compile(r"^g2 estimate: (\S+) \+/- ", re.M)
_VERDICT = re.compile(r"^verdict: (\S+)$", re.M)


def check_gate(stdout: str, expect: tuple[float, float]) -> bool:
    exact, tol = expect
    estimate = _ESTIMATE.search(stdout)
    verdict = _VERDICT.search(stdout)
    return (estimate is not None and verdict is not None and verdict.group(1) == "thermal"
            and abs(float(estimate.group(1)) - exact) <= tol)


def check(commands: list[Command], outcomes: list[Outcome], expect: Expectations) -> tuple[int, int]:
    """(attempted, failed) operations of one pass over the commands."""
    attempted = failed = 0
    for command, outcome in zip(commands, outcomes):
        attempted += command.ops
        if outcome.code != 0:
            failed += command.ops
            continue
        failed += sum(check_sweep(case, outcome.tables[case.csv], expect.sweeps[case.csv])
                      for case in command.sweeps)
        if command.gate is not None and not check_gate(outcome.stdout, expect.gates[command.gate]):
            failed += 1
    return attempted, failed
