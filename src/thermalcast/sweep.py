"""Parameter sweeps over the broadcast topologies, and their CSV output.

A sweep varies one scenario parameter over an inclusive linear range and
records the requested information measures at every point. The points, in
ascending order of the swept value, are evaluated in closed form with those
of every sweep of the same scenario run with them: one pass, none per point.

A failure at one point flags that row and the sweep carries on: a failed
output blanks only its own cell. Only a sweep in which every point failed
is treated as a failed run.
"""
from __future__ import annotations

import datetime as _dt
import os
from dataclasses import dataclass, field
from itertools import accumulate, compress
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, InvalidArgumentError, UnphysicalStateError, UsageError
from .gaussian import _is_integer
from .hbt import GENERATOR_ID, MAX_SAMPLES, MIN_G2_SAMPLES, VERDICT_INCONCLUSIVE, g2_pairs
from .info import pair_measures
from .scenarios import SCENARIO_NAMES, TRANSMITTANCE_PARAMS, VARIANCE_PARAMS, ScenarioParams, pair_entries

PARAM_NAMES = VARIANCE_PARAMS + TRANSMITTANCE_PARAMS

OUTPUT_NAMES = ("cmi", "mi", "discord", "g2")

DEFAULT_G2_SAMPLES = 100_000

# Each point holds a row of results; past this a sweep is a mistake.
MAX_POINTS = 100_000


def _reject(field: str, message: str, key: str | None = None) -> UsageError:
    """A complaint about one spec field; ``key`` is its config key, default ``field``."""
    exc = UsageError(f"{field}: {message}")
    exc.key = key or field
    return exc


def _check_domain(field: str, name: str, value: float, key: str | None = None):
    """Raise the :class:`ScenarioParams` complaint about one parameter, if any."""
    if name not in PARAM_NAMES:
        raise _reject(field, f"unknown parameter {name!r}", key)
    try:
        ScenarioParams.check_field(name, value)
    except (InvalidArgumentError, UnphysicalStateError) as exc:
        raise _reject(field, str(exc), key) from None


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
        return f"{self.name}:{_format_value(self.start)}:{_format_value(self.stop)}:{self.count}"


@dataclass(frozen=True)
class SweepSpec:
    """A fully specified sweep; construction checks every run rule.

    ``seed`` is required exactly when ``g2`` is among the outputs (it is
    the only stochastic output) and rejected otherwise, so a config states
    its reproducibility contract explicitly. ``samples`` is likewise only
    for ``g2``, where it defaults to ``DEFAULT_G2_SAMPLES``.
    """

    scenario: str
    swept: SweptRange
    fixed: dict[str, float] = field(default_factory=dict)
    outputs: tuple[str, ...] = ("cmi",)
    seed: int | None = None
    samples: int | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise _reject("scenario", f"unknown value {self.scenario!r}, choose from {SCENARIO_NAMES}")
        for endpoint in (self.swept.start, self.swept.stop):
            _check_domain("sweep", self.swept.name, endpoint)
        if not _is_integer(self.swept.count) or not 2 <= self.swept.count <= MAX_POINTS:
            raise _reject("sweep", f"step count must be an integer in [2, {MAX_POINTS}], got {self.swept.count}")
        for name, value in self.fixed.items():
            _check_domain("fixed", name, value, key=name)
        if self.swept.name in self.fixed:
            raise _reject("sweep", f"parameter {self.swept.name!r} is also fixed", key=self.swept.name)
        if not self.outputs:
            raise _reject("outputs", "at least one output is required")
        for out in self.outputs:
            if out not in OUTPUT_NAMES:
                raise _reject("outputs", f"unknown output {out!r}, choose from {OUTPUT_NAMES}")
        if len(set(self.outputs)) != len(self.outputs):
            raise _reject("outputs", "duplicate entries")
        wants_g2 = "g2" in self.outputs
        if wants_g2 and self.seed is None:
            raise _reject("seed", "required when outputs include g2", key="outputs")
        if not wants_g2 and self.seed is not None:
            raise _reject("seed", "only used when outputs include g2")
        if self.seed is not None and not (_is_integer(self.seed) and self.seed >= 0):
            raise _reject("seed", f"must be a non-negative integer, got {self.seed!r}")
        if not wants_g2 and self.samples is not None:
            raise _reject("samples", "only used when outputs include g2")
        if wants_g2:
            if self.samples is None:
                object.__setattr__(self, "samples", DEFAULT_G2_SAMPLES)
            if not _is_integer(self.samples) or not MIN_G2_SAMPLES <= self.samples <= MAX_SAMPLES:
                raise _reject("samples", f"g2 needs an integer in [{MIN_G2_SAMPLES}, {MAX_SAMPLES}], "
                              f"got {self.samples}")


@dataclass(frozen=True)
class SweepResult:
    """A sweep by columns: swept values ascending, one float column per output, each row's failure reasons."""

    spec: SweepSpec
    swept: np.ndarray
    columns: dict[str, np.ndarray]
    reasons: tuple[tuple[str, ...], ...]

    @property
    def n_failed(self) -> int:
        return sum(map(bool, self.reasons))

    @property
    def all_failed(self) -> bool:
        return self.n_failed == len(self.reasons)


def _point_seed(base_seed: int, index: int) -> int:
    # one derived 64-bit stream per point, keyed by its index in the range
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every point of one sweep, in ascending order of the swept value: :func:`run_sweeps` of one."""
    return run_sweeps([spec])[0]


def run_sweeps(specs: list[SweepSpec]) -> list[SweepResult]:
    """Evaluate sweeps, each in ascending order of its swept value, in one pass per scenario and g2 sample count.

    A pass stacks its sweeps' points, so each output is one array call over their receiver pairs in closed form
    (:func:`pair_entries`). A failed output blanks only its own cell; a row's reasons name its own sweep's failures.
    """
    results = [None] * len(specs)
    for key in dict.fromkeys((spec.scenario, spec.samples) for spec in specs):
        group = [(i, spec) for i, spec in enumerate(specs) if (spec.scenario, spec.samples) == key]
        bounds = [0, *accumulate(spec.swept.count for _, spec in group)]
        params = {name: np.repeat([float(spec.fixed.get(name, getattr(ScenarioParams, name))) for _, spec in group],
                                  np.diff(bounds)) for name in PARAM_NAMES}
        for (_, spec), lo, hi in zip(group, bounds, bounds[1:]):
            params[spec.swept.name][lo:hi] = np.sort(spec.swept.values(), kind="stable")
        entries = pair_entries(key[0], SimpleNamespace(**params))
        errors = {out: [None] * bounds[-1] for _, spec in group for out in spec.outputs}
        cells = pair_measures(*entries, {out: errors[out] for out in errors if out != "g2"})
        if "g2" in errors:  # each point samples its pair [[a I, c I], [c I, b I]] from its own stream
            seeds = [_point_seed(spec.seed, int(k))
                     for _, spec in group for k in np.argsort(spec.swept.values(), kind="stable")]
            reports = g2_pairs(np.stack([entry[0] for entry in entries], axis=-1), key[1], seeds, errors["g2"])
            # no photons to correlate: the ratio is noise, not a g2 value
            cells["g2"] = np.array([r.g2_estimate if r and r.verdict != VERDICT_INCONCLUSIVE else np.nan
                                    for r in reports])
        for (i, spec), lo, hi in zip(group, bounds, bounds[1:]):
            reasons = [()] * (hi - lo)
            for out in spec.outputs:  # in output order; compress visits only the rows that hold a failure
                for k in compress(range(hi - lo), errors[out][lo:hi]):
                    reasons[k] += (str(errors[out][lo + k]),)
            columns = {out: cells[out][lo:hi] for out in spec.outputs}
            results[i] = SweepResult(spec, params[spec.swept.name][lo:hi], columns, tuple(reasons))
    return results


def _format_value(value: float) -> str:
    return f"{value:.12g}"


def emit_csv(result: SweepResult, destination: str | Path):
    """Write a sweep result as CSV: '#' metadata block, header, data rows.

    Each failed row adds one '# failed: <param>=<value>: <reason>' line
    after the point count. Twelve significant digits, LF line endings.
    Re-running the same spec reproduces the file byte for byte except for
    the timestamp line. The table is written to a sibling file that then
    replaces ``destination``, so an interrupted write leaves the old file.
    """
    if not result.reasons:
        raise UsageError("refusing to emit an empty table")
    from . import __version__
    spec = result.spec
    fixed = " ".join(f"{k}={_format_value(v)}" for k, v in sorted(spec.fixed.items())) or "(defaults)"
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
        lines += [f"# samples: {spec.samples}", f"# generator: {GENERATOR_ID}"]
    lines.append(f"# points: {len(result.reasons)} failed: {result.n_failed}")
    lines += [f"# failed: {spec.swept.name}={_format_value(result.swept[k])}: " + "; ".join(why).replace("\n", " ")
              for k, why in compress(enumerate(result.reasons), result.reasons)]  # the failed rows only
    lines.append(",".join((spec.swept.name,) + spec.outputs))
    # every cell in _format_value's text, by one format over the row-major table
    table = np.column_stack([result.swept] + [result.columns[out] for out in spec.outputs])
    data = (",".join(["%.12g"] * table.shape[1]) + "\n") * len(table) % tuple(table.ravel().tolist())
    partial = Path(f"{destination}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="ascii", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n" + data)
        os.replace(partial, destination)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Config files: flat key=value lines, '#' comments, case-sensitive keys.

def _parse_number(convert: type, key: str, raw: str, line_no: int):
    try:
        return convert(raw)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"{key}: not {kind}: {raw!r}", line_no) from None


def _parse_swept(raw: str, line_no: int) -> SweptRange:
    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError(f"sweep: expected name:start:stop:count, got {raw!r}", line_no)
    return SweptRange(name=parts[0].strip(),
                      start=_parse_number(float, "sweep start", parts[1], line_no),
                      stop=_parse_number(float, "sweep stop", parts[2], line_no),
                      count=_parse_number(int, "sweep count", parts[3], line_no))


def parse_config(text: str) -> SweepSpec:
    """Parse a sweep config into a :class:`SweepSpec`; complaints name their line.

    Only syntax is checked here; a :class:`SweepSpec` rule is reported on
    the line of the key it names. Unknown and duplicate keys are errors: a
    silently ignored typo in a parameter name would change the physics.
    """
    seen: dict[str, int] = {}
    fields: dict[str, object] = {}
    fixed: dict[str, float] = {}

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
            fields["scenario"] = value
        elif key == "sweep":
            fields["swept"] = _parse_swept(value, line_no)
        elif key == "outputs":
            fields["outputs"] = tuple(part.strip() for part in value.split(","))
        elif key in ("seed", "samples"):
            fields[key] = _parse_number(int, key, value, line_no)
        elif key in PARAM_NAMES:
            fixed[key] = _parse_number(float, key, value, line_no)
        else:
            raise ConfigError(f"unknown key {key!r}", line_no)

    for required in ("scenario", "sweep", "outputs"):
        if required not in seen:
            raise ConfigError(f"missing required key {required!r}")
    try:
        return SweepSpec(fixed=fixed, **fields)
    except UsageError as exc:
        raise ConfigError(str(exc), seen.get(exc.key, 0)) from exc


# ---------------------------------------------------------------------------
# Figure presets: named sweep bundles reproducing the reference datasets.

PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

# Splitter sweeps stop short of 0 and 1: a fully one-sided splitter leaves
# one receiver with vacuum and the information measures degenerate to the
# trivial values. The channel sweep in fig6 does include eta_th = 1 on
# purpose: convergence at that endpoint is the property of interest.
_ETA_AB_RANGE = SweptRange(name="eta_ab", start=0.01, stop=0.99, count=99)
_ETA_TH_RANGE = SweptRange(name="eta_th", start=0.01, stop=1.0, count=100)


def expand_preset(name: str) -> tuple[tuple[str, SweepSpec], ...]:
    """Deterministic expansion of a preset name into its branches: (tag, sweep) pairs.

    The tag goes into output filenames (empty for single-sweep presets).

    fig3/fig4/fig5: basic broadcast vs splitter ratio at source variance
    1, 2 and 1040. fig6: thermal channel vs channel transmittance, one
    branch per channel variance. fig7/fig8: receiver-side channel noise at
    transmittance 0.3, one branch per (source variance, channel variance)
    pair; the swept axis is the splitter ratio.
    """
    if name in ("fig3", "fig4", "fig5"):
        nu = {"fig3": 1.0, "fig4": 2.0, "fig5": 1040.0}[name]
        outputs = ("cmi", "mi", "discord") if name == "fig3" else ("cmi", "discord")
        return (("", SweepSpec(scenario="basic", swept=_ETA_AB_RANGE, fixed={"nu": nu}, outputs=outputs)),)
    if name == "fig6":
        return tuple(
            (f"vth{v_th:g}", SweepSpec(
                scenario="thermal_channel", swept=_ETA_TH_RANGE,
                fixed={"nu": 2.0, "eta_ab": 0.5, "v_th": float(v_th)},
                outputs=("cmi", "discord")))
            for v_th in (1, 2, 10, 100, 500))
    if name in ("fig7", "fig8"):
        output = "cmi" if name == "fig7" else "discord"
        return tuple(
            (f"nu{nu:g}_v{v:g}", SweepSpec(
                scenario="full", swept=_ETA_AB_RANGE,
                fixed={"nu": float(nu), "eta_th_a": 0.3, "eta_th_b": 0.3,
                       "v_alpha": float(v), "v_beta": float(v)},
                outputs=(output,)))
            for nu, v in ((1, 1), (2, 1), (1, 10), (2, 10)))
    raise UsageError(f"unknown preset {name!r}, choose from {PRESET_NAMES}")
