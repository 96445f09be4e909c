"""Parameter sweeps over the broadcast topologies, and their CSV output.

A sweep varies one scenario parameter over an inclusive linear range and
records the requested information measures at every point. Points are
independent, so they are evaluated on a thread pool; rows are sorted by the
swept value before anything is emitted, which makes the output independent
of scheduling.

A numeric failure at one point flags that row (its cells become nan) and
the sweep carries on. Only a sweep in which every point failed is treated
as a failed run.
"""
from __future__ import annotations

import datetime as _dt
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InvalidArgumentError, NumericFailureError,
                     UnphysicalStateError, UsageError)
from .hbt import MIN_G2_SAMPLES, thermality_check
from .info import (Partition, conditional_mutual_information, gaussian_discord,
                   mutual_information, shannon_entropy)
from .scenarios import (SCENARIO_NAMES, TRANSMITTANCE_PARAMS, VARIANCE_PARAMS,
                        ScenarioParams, build_scenario, extract_information_blocks)

PARAM_NAMES = VARIANCE_PARAMS + TRANSMITTANCE_PARAMS

OUTPUT_NAMES = ("cmi", "mi", "discord", "g2")

ENTROPY_TERM_LABELS = ("H(A,S)", "H(B,S)", "H(S)", "H(A,B,S)")

DEFAULT_G2_SAMPLES = 100_000

_WORKERS = 8


def _check_domain(name: str, value: float) -> str | None:
    """None when in domain, else the :class:`ScenarioParams` complaint for this field."""
    if name not in PARAM_NAMES:
        return f"unknown parameter {name!r}"
    try:
        ScenarioParams(**{name: value})
    except (InvalidArgumentError, UnphysicalStateError) as exc:
        return str(exc)
    return None


@dataclass(frozen=True)
class SweptRange:
    """One parameter varied over an inclusive linear grid."""

    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def describe(self) -> str:
        return f"{self.name}:{self.start:g}:{self.stop:g}:{self.count}"


@dataclass(frozen=True)
class SweepSpec:
    """A fully specified sweep; construction validates every field.

    ``seed`` is required exactly when ``g2`` is among the outputs (it is
    the only stochastic output) and rejected otherwise, so a config states
    its reproducibility contract explicitly. ``samples`` follows the same
    rule, with a default.
    """

    scenario: str
    swept: SweptRange
    fixed: dict[str, float] = field(default_factory=dict)
    outputs: tuple[str, ...] = ("cmi",)
    seed: int | None = None
    samples: int = DEFAULT_G2_SAMPLES

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise UsageError(f"scenario: unknown value {self.scenario!r}, choose from {SCENARIO_NAMES}")
        if self.swept.name not in PARAM_NAMES:
            raise UsageError(f"sweep: unknown parameter {self.swept.name!r}")
        if self.swept.count < 2:
            raise UsageError(f"sweep: step count must be >= 2, got {self.swept.count}")
        for endpoint in (self.swept.start, self.swept.stop):
            problem = _check_domain(self.swept.name, endpoint)
            if problem:
                raise UsageError(f"sweep: {problem}")
        for name, value in self.fixed.items():
            problem = _check_domain(name, float(value))
            if problem:
                raise UsageError(f"fixed: {problem}")
        if self.swept.name in self.fixed:
            raise UsageError(f"sweep: parameter {self.swept.name!r} is also fixed")
        if not self.outputs:
            raise UsageError("outputs: at least one output is required")
        for out in self.outputs:
            if out not in OUTPUT_NAMES:
                raise UsageError(f"outputs: unknown output {out!r}, choose from {OUTPUT_NAMES}")
        if len(set(self.outputs)) != len(self.outputs):
            raise UsageError("outputs: duplicate entries")
        wants_g2 = "g2" in self.outputs
        if wants_g2 and self.seed is None:
            raise UsageError("seed: required when outputs include g2")
        if not wants_g2 and self.seed is not None:
            raise UsageError("seed: only used when outputs include g2")
        if wants_g2 and self.samples < MIN_G2_SAMPLES:
            raise UsageError(f"samples: g2 needs >= {MIN_G2_SAMPLES}, got {self.samples}")


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point. ``status`` is "ok" or "failed: <why>"."""

    swept_value: float
    values: dict[str, float]
    entropy_terms: dict[str, float]
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for row in self.rows if not row.ok)

    @property
    def all_failed(self) -> bool:
        return self.n_failed == len(self.rows)


def _point_seed(base_seed: int, index: int) -> int:
    # one derived 64-bit stream per point; stable under reordering/parallelism
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def _evaluate_point(spec: SweepSpec, value: float, index: int) -> SweepRow:
    try:
        params = ScenarioParams(**{**spec.fixed, spec.swept.name: float(value)})
        scenario = build_scenario(spec.scenario, params)
        partition = scenario.information_partition()
        blocks = extract_information_blocks(scenario)
        terms = dict(zip(ENTROPY_TERM_LABELS, (
            shannon_entropy(blocks["as"]), shannon_entropy(blocks["bs"]),
            shannon_entropy(blocks["s"]), shannon_entropy(blocks["abs"]))))
        values: dict[str, float] = {}
        for out in spec.outputs:
            if out == "cmi":
                values[out] = conditional_mutual_information(scenario.state, partition)
            elif out == "mi":
                values[out] = mutual_information(
                    scenario.state, Partition(partition.subsystem_a, partition.subsystem_b))
            elif out == "discord":
                values[out] = gaussian_discord(
                    scenario.state, partition.subsystem_a[0], partition.subsystem_b[0]).value
            else:
                report = thermality_check(
                    scenario.state, partition.subsystem_a[0], partition.subsystem_b[0],
                    spec.samples, _point_seed(spec.seed, index))
                values[out] = report.g2_estimate
        return SweepRow(swept_value=float(value), values=values, entropy_terms=terms, status="ok")
    except (NumericFailureError, UnphysicalStateError) as exc:
        nan = float("nan")
        return SweepRow(swept_value=float(value),
                        values={out: nan for out in spec.outputs},
                        entropy_terms={label: nan for label in ENTROPY_TERM_LABELS},
                        status=f"failed: {exc}")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every point of a sweep; rows come back in ascending order.

    Point failures are contained: a row whose evaluation raised a numeric
    error carries nan cells and a status naming the reason.
    """
    values = spec.swept.values()
    order = np.argsort(values, kind="stable")
    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(values))) as pool:
        rows = list(pool.map(lambda i: _evaluate_point(spec, values[i], int(i)), order))
    return SweepResult(spec=spec, rows=tuple(rows))


def _format_value(value: float) -> str:
    return f"{value:.12g}"


def emit_csv(result: SweepResult, destination: str | Path):
    """Write a sweep result as CSV: '#' metadata block, header, data rows.

    Twelve significant digits, LF line endings. Re-running the same spec
    reproduces the file byte for byte except for the timestamp line.
    """
    if not result.rows:
        raise UsageError("refusing to emit an empty table")
    from . import __version__
    spec = result.spec
    fixed = " ".join(f"{k}={v:g}" for k, v in sorted(spec.fixed.items())) or "(defaults)"
    lines = [
        f"# thermalcast {__version__}",
        f"# generated: {_dt.datetime.now(_dt.timezone.utc).isoformat(timespec='seconds')}",
        f"# scenario: {spec.scenario}",
        f"# fixed: {fixed}",
        f"# sweep: {spec.swept.describe()}",
        f"# outputs: {','.join(spec.outputs)}",
        f"# seed: {'none' if spec.seed is None else spec.seed}",
    ]
    if "g2" in spec.outputs:
        lines.append(f"# samples: {spec.samples}")
    lines.append(f"# points: {len(result.rows)} failed: {result.n_failed}")
    lines.append(",".join((spec.swept.name,) + spec.outputs))
    for row in result.rows:
        cells = [_format_value(row.swept_value)]
        cells += [_format_value(row.values[out]) for out in spec.outputs]
        lines.append(",".join(cells))
    with open(destination, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config files: flat key=value lines, '#' comments, case-sensitive keys.

_SPECIAL_KEYS = ("scenario", "sweep", "outputs", "seed", "samples")


def _parse_float(key: str, raw: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}", line_no) from None


def _parse_int(key: str, raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}", line_no) from None


def _parse_swept(raw: str, line_no: int) -> SweptRange:
    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError(f"sweep: expected name:start:stop:count, got {raw!r}", line_no)
    name = parts[0].strip()
    if name not in PARAM_NAMES:
        raise ConfigError(f"sweep: unknown parameter {name!r}", line_no)
    start = _parse_float("sweep start", parts[1], line_no)
    stop = _parse_float("sweep stop", parts[2], line_no)
    count = _parse_int("sweep count", parts[3], line_no)
    if count < 2:
        raise ConfigError(f"sweep: step count must be >= 2, got {count}", line_no)
    for endpoint in (start, stop):
        problem = _check_domain(name, endpoint)
        if problem:
            raise ConfigError(f"sweep: {problem}", line_no)
    return SweptRange(name=name, start=start, stop=stop, count=count)


def parse_config(text: str) -> SweepSpec:
    """Parse and validate a sweep config; every complaint carries its line.

    Unknown keys and duplicate keys are hard errors: a silently ignored
    typo in a parameter name would change the physics of the run.
    """
    seen: dict[str, int] = {}
    scenario: str | None = None
    swept: SweptRange | None = None
    fixed: dict[str, float] = {}
    outputs: tuple[str, ...] | None = None
    seed: int | None = None
    samples: int | None = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first set on line {seen[key]})", line_no)
        seen[key] = line_no
        if key == "scenario":
            if value not in SCENARIO_NAMES:
                raise ConfigError(f"scenario: unknown value {value!r}, choose from {SCENARIO_NAMES}", line_no)
            scenario = value
        elif key == "sweep":
            swept = _parse_swept(value, line_no)
        elif key == "outputs":
            outputs = tuple(part.strip() for part in value.split(","))
            for out in outputs:
                if out not in OUTPUT_NAMES:
                    raise ConfigError(f"outputs: unknown output {out!r}, choose from {OUTPUT_NAMES}", line_no)
        elif key == "seed":
            seed = _parse_int("seed", value, line_no)
            if seed < 0:
                raise ConfigError(f"seed: must be non-negative, got {seed}", line_no)
        elif key == "samples":
            samples = _parse_int("samples", value, line_no)
        elif key in PARAM_NAMES:
            number = _parse_float(key, value, line_no)
            problem = _check_domain(key, number)
            if problem:
                raise ConfigError(problem, line_no)
            fixed[key] = number
        else:
            raise ConfigError(f"unknown key {key!r}", line_no)

    if scenario is None:
        raise ConfigError("missing required key 'scenario'")
    if swept is None:
        raise ConfigError("missing required key 'sweep'")
    if outputs is None:
        raise ConfigError("missing required key 'outputs'")
    if swept.name in fixed:
        raise ConfigError(f"sweep: parameter {swept.name!r} is also fixed", seen[swept.name])
    wants_g2 = "g2" in outputs
    if wants_g2 and seed is None:
        raise ConfigError("seed: required when outputs include g2", seen["outputs"])
    if not wants_g2 and seed is not None:
        raise ConfigError("seed: only used when outputs include g2", seen["seed"])
    if samples is not None and not wants_g2:
        raise ConfigError("samples: only used when outputs include g2", seen["samples"])

    kwargs = {"samples": samples} if samples is not None else {}
    try:
        return SweepSpec(scenario=scenario, swept=swept, fixed=fixed,
                         outputs=outputs, seed=seed, **kwargs)
    except UsageError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Figure presets: named sweep bundles reproducing the reference datasets.

@dataclass(frozen=True)
class FigurePreset:
    """A named bundle of sweeps; ``branches`` pairs a tag with a spec.

    The tag goes into output filenames (empty for single-sweep presets).
    """

    name: str
    branches: tuple[tuple[str, SweepSpec], ...]


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

# Splitter sweeps stop short of 0 and 1: a fully one-sided splitter leaves
# one receiver with vacuum and the information measures degenerate to the
# trivial values. The channel sweep in fig6 does include eta_th = 1 on
# purpose: convergence at that endpoint is the property of interest.
_ETA_AB_RANGE = SweptRange(name="eta_ab", start=0.01, stop=0.99, count=99)
_ETA_TH_RANGE = SweptRange(name="eta_th", start=0.01, stop=1.0, count=100)


def expand_preset(name: str) -> FigurePreset:
    """Deterministic expansion of a preset name into concrete sweeps.

    fig3/fig4/fig5: basic broadcast vs splitter ratio at source variance
    1, 2 and 1040. fig6: thermal channel vs channel transmittance, one
    branch per channel variance. fig7/fig8: receiver-side channel noise at
    transmittance 0.3, one branch per (source variance, channel variance)
    pair; the swept axis is the splitter ratio.
    """
    if name == "fig3":
        return FigurePreset(name, (("", SweepSpec(
            scenario="basic", swept=_ETA_AB_RANGE, fixed={"nu": 1.0},
            outputs=("cmi", "mi", "discord"))),))
    if name in ("fig4", "fig5"):
        nu = 2.0 if name == "fig4" else 1040.0
        return FigurePreset(name, (("", SweepSpec(
            scenario="basic", swept=_ETA_AB_RANGE, fixed={"nu": nu},
            outputs=("cmi", "discord"))),))
    if name == "fig6":
        branches = tuple(
            (f"vth{v_th:g}", SweepSpec(
                scenario="thermal_channel", swept=_ETA_TH_RANGE,
                fixed={"nu": 2.0, "eta_ab": 0.5, "v_th": float(v_th)},
                outputs=("cmi", "discord")))
            for v_th in (1, 2, 10, 100, 500))
        return FigurePreset(name, branches)
    if name in ("fig7", "fig8"):
        output = "cmi" if name == "fig7" else "discord"
        branches = tuple(
            (f"nu{nu:g}_v{v:g}", SweepSpec(
                scenario="full", swept=_ETA_AB_RANGE,
                fixed={"nu": float(nu), "eta_th_a": 0.3, "eta_th_b": 0.3,
                       "v_alpha": float(v), "v_beta": float(v)},
                outputs=(output,)))
            for nu, v in ((1, 1), (2, 1), (1, 10), (2, 10)))
        return FigurePreset(name, branches)
    raise UsageError(f"unknown preset {name!r}, choose from {PRESET_NAMES}")
