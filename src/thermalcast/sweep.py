"""Parameter sweeps over the broadcast topologies, and their CSV output.

A sweep varies one parameter of its scenario over an inclusive linear range and records the requested
information measures at every point; a parameter the scenario does not read is refused. The points, in
ascending order of the swept value, are evaluated in closed form with those of every sweep run with them,
whatever its scenario: one pass, none per point.

A failure at one point flags that row and the sweep carries on: a failed
output blanks only its own cell. Only a sweep in which every point failed
is treated as a failed run.
"""
from __future__ import annotations

import datetime as _dt
import os
from dataclasses import dataclass, field
from itertools import accumulate, compress, takewhile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, InvalidArgumentError, UnphysicalStateError, UsageError
from .gaussian import _is_integer
from .hbt import GENERATOR_ID, MIN_G2_SAMPLES, VERDICT_INCONCLUSIVE, _check_draw, g2_pairs
from .info import pair_measures
from .scenarios import PARAM_NAMES, SCENARIO_PARAMS, ScenarioParams, _check_scenario, pair_entries

OUTPUT_NAMES = ("cmi", "mi", "discord", "g2")

DEFAULT_G2_SAMPLES = 100_000

# Each point holds a row of results; past this a sweep is a mistake.
MAX_POINTS = 100_000


def _reject(field: str, message: str, key: str | None = None) -> UsageError:
    """A complaint about one spec field; ``key`` is its config key, default ``field``."""
    exc = UsageError(f"{field}: {message}")
    exc.key = key or field
    return exc


def _checked(field: str, check, *args, key: str | None = None) -> None:
    """Run ``check(*args)``; a complaint it raises is raised again as one about ``field``, as :func:`_reject`."""
    try:
        check(*args)
    except (InvalidArgumentError, UnphysicalStateError) as exc:
        raise _reject(field, str(exc), key) from None


def _check_domain(field: str, scenario: str, name: str, value: float, key: str | None = None):
    """Raise the complaint about one parameter of ``scenario``, if any: foreign, or outside :class:`ScenarioParams`."""
    if not isinstance(name, str) or name not in PARAM_NAMES:
        raise _reject(field, f"unknown parameter {name!r}", key)
    if name not in SCENARIO_PARAMS[scenario]:  # it would be ignored silently
        raise _reject(field, f"scenario {scenario!r} does not read parameter {name!r}", key)
    _checked(field, ScenarioParams.check_field, name, value, key=key)


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

    A fixed or swept parameter must be one its scenario reads (``SCENARIO_PARAMS``).
    ``seed`` is required exactly when ``g2`` is among the outputs (it is
    the only stochastic output) and rejected otherwise, so a config states
    its reproducibility contract explicitly; it follows the draw's one seed
    rule, an integer in [0, 2^64). ``samples`` is likewise only for ``g2``,
    where it defaults to ``DEFAULT_G2_SAMPLES`` and follows the g2 draw's count rule.
    """

    scenario: str
    swept: SweptRange
    fixed: dict[str, float] = field(default_factory=dict)
    outputs: tuple[str, ...] = ("cmi",)
    seed: int | None = None
    samples: int | None = None

    def __post_init__(self):
        _checked("scenario", _check_scenario, self.scenario)
        for name, kind in (("swept", SweptRange), ("fixed", dict), ("outputs", tuple)):
            if not isinstance(getattr(self, name), kind):  # a look-alike fails far from here, or not at all
                raise _reject(name, f"must be a {kind.__name__}, got {type(getattr(self, name)).__name__}")
        for endpoint in (self.swept.start, self.swept.stop):
            _check_domain("sweep", self.scenario, self.swept.name, endpoint)
        count, degenerate = self.swept.count, self.swept.start == self.swept.stop  # linspace(a, b, 1) drops b
        if not (_is_integer(count) and (2 <= count <= MAX_POINTS or count == 1 and degenerate)):
            raise _reject("sweep", f"step count must be an integer in [2, {MAX_POINTS}], or 1 where start == stop, "
                                   f"got {count}")
        for name, value in self.fixed.items():
            _check_domain("fixed", self.scenario, name, value, key=name)
        if self.swept.name in self.fixed:
            raise _reject("sweep", f"parameter {self.swept.name!r} is also fixed", key=self.swept.name)
        if not self.outputs:
            raise _reject("outputs", "at least one output is required")
        for out in self.outputs:
            if not isinstance(out, str) or out not in OUTPUT_NAMES:
                raise _reject("outputs", f"unknown output {out!r}, choose from {OUTPUT_NAMES}")
        if len(set(self.outputs)) != len(self.outputs):
            raise _reject("outputs", "duplicate entries")
        wants_g2 = "g2" in self.outputs
        if wants_g2 and self.seed is None:
            raise _reject("seed", "required when outputs include g2", key="outputs")
        for name in ("seed", "samples"):
            if not wants_g2 and getattr(self, name) is not None:
                raise _reject(name, "only used when outputs include g2")
        if wants_g2:
            if self.samples is None:
                object.__setattr__(self, "samples", DEFAULT_G2_SAMPLES)
            for name, keys in (("samples", []), ("seed", [(self.seed, 0)])):  # each complaint on its own line
                _checked(name, _check_draw, self.samples, keys, MIN_G2_SAMPLES)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep by columns: swept values ascending, one float column per output, each row's failure reasons.
    Compares and hashes by identity: ``==`` on its arrays has no single truth value."""

    spec: SweepSpec
    swept: np.ndarray
    columns: dict[str, np.ndarray]
    reasons: tuple[tuple[str, ...], ...]
    reports: tuple = ()  # with g2, each row's G2Report, None where its draw failed; () without g2

    @property
    def n_failed(self) -> int:
        return sum(map(bool, self.reasons))

    @property
    def all_failed(self) -> bool:
        return self.n_failed == len(self.reasons)


def run_sweeps(specs: list[SweepSpec]) -> list[SweepResult]:
    """Evaluate sweeps, each in ascending order of its swept value, in one pass per g2 sample count.

    A pass stacks its sweeps' points, of any scenario, so each output is one array call over their receiver pairs
    in closed form (:func:`pair_entries`). A failed output blanks only its own cell; a row's reasons name its own.
    """
    if not (isinstance(specs, (list, tuple)) and all(isinstance(spec, SweepSpec) for spec in specs)):
        held = " of " + ", ".join(type(spec).__name__ for spec in specs) if isinstance(specs, (list, tuple)) else ""
        raise UsageError(f"specs must be a list of SweepSpec, got {type(specs).__name__}{held}")
    results = [None] * len(specs)
    for samples in dict.fromkeys(spec.samples for spec in specs):
        group = [(i, spec) for i, spec in enumerate(specs) if spec.samples == samples]
        bounds = [0, *accumulate(spec.swept.count for _, spec in group)]
        params = {name: np.repeat([float(spec.fixed.get(name, getattr(ScenarioParams, name))) for _, spec in group],
                                  np.diff(bounds)) for name in PARAM_NAMES}
        for (_, spec), lo, hi in zip(group, bounds, bounds[1:]):
            params[spec.swept.name][lo:hi] = np.sort(spec.swept.values(), kind="stable")
        entries = pair_entries(SimpleNamespace(**params))
        errors = {out: [None] * bounds[-1] for _, spec in group for out in spec.outputs}
        measures = {out: errors[out] for out in errors if out != "g2"}  # none on a g2-only pass
        cells, reports = pair_measures(*entries, measures) if measures else {}, ()
        if "g2" in errors:  # point k of a range samples its pair [[a I, c I], [c I, b I]] on the streams (seed, k)
            keys = [(spec.seed, int(k)) for _, spec in group for k in np.argsort(spec.swept.values(), kind="stable")]
            reports = tuple(g2_pairs(np.stack([entry[0] for entry in entries], axis=-1), samples, keys, errors["g2"]))
            cells["g2"] = np.array([report.g2_estimate if report and report.verdict != VERDICT_INCONCLUSIVE else np.nan
                                    for report in reports])  # nan where failed or inconclusive: that ratio is noise
        for (i, spec), lo, hi in zip(group, bounds, bounds[1:]):
            reasons = [()] * (hi - lo)
            for out in spec.outputs:  # in output order; compress visits only the rows that hold a failure
                for k in compress(range(hi - lo), errors[out][lo:hi]):
                    reasons[k] += (str(errors[out][lo + k]),)
            columns = {out: cells[out][lo:hi] for out in spec.outputs}
            results[i] = SweepResult(spec, params[spec.swept.name][lo:hi], columns, tuple(reasons), reports[lo:hi])
    return results


def _format_value(value: float) -> str:
    return repr(float(value)).removesuffix(".0")  # the shortest text that reads back exactly


def emit_csv(result: SweepResult, destination: str | Path):
    """Write a sweep result as CSV: '#' metadata block, header, data rows.

    Past the version and timestamp lines the metadata is the run's config behind '# ', in digits that read back
    exactly, so :func:`parse_config` reads the file as its spec. Each failed row adds one '# failed: <param>=<value>:
    <reason>' line after the point count. Table values at twelve significant digits, LF line endings. Re-running the
    spec reproduces the file byte for byte except for the timestamp line. The table is written to a sibling file
    that then replaces ``destination``, so an interrupted write leaves the old file.
    """
    if not isinstance(result, SweepResult):
        raise UsageError(f"result must be a SweepResult, got {type(result).__name__}")
    if not isinstance(destination, (str, os.PathLike)):  # before a partial file is named after it
        raise UsageError(f"destination must be a str or path, got {type(destination).__name__}")
    if not result.reasons:
        raise UsageError("refusing to emit an empty table")
    from . import __version__
    spec = result.spec
    config = [f"scenario={spec.scenario}", *(f"{k}={_format_value(v)}" for k, v in sorted(spec.fixed.items())),
              f"sweep={spec.swept.describe()}", f"outputs={','.join(spec.outputs)}"]
    if "g2" in spec.outputs:
        config += [f"seed={spec.seed}", f"samples={spec.samples}", f"generator={GENERATOR_ID}"]
    lines = [f"# thermalcast {__version__}",
             f"# generated: {_dt.datetime.now(_dt.timezone.utc).isoformat(timespec='seconds')}",
             *(f"# {line}" for line in config), f"# points: {len(result.reasons)} failed: {result.n_failed}"]
    lines += [f"# failed: {spec.swept.name}={result.swept[k]:.12g}: " + "; ".join(why).replace("\n", " ")
              for k, why in compress(enumerate(result.reasons), result.reasons)]  # the failed rows only
    lines.append(",".join((spec.swept.name,) + spec.outputs))
    # every cell at twelve significant digits, by one format over the row-major table
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
# Config files: flat key=value lines, '#' comments, case-sensitive keys; a CSV's header is one.

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
    """Parse a sweep config, or the CSV :func:`emit_csv` wrote, into a :class:`SweepSpec`; complaints name their line.

    A text that opens with a CSV's version and timestamp lines is read from line 3 up to '# points:', each line
    without its '# '. Only syntax is checked here; a :class:`SweepSpec` rule is reported on the line of its key.
    Unknown or duplicate keys, foreign parameters and a generator not ``GENERATOR_ID`` are errors: each changes the run.
    """
    if not isinstance(text, str):
        raise ConfigError(f"config text must be a str, got {type(text).__name__}")
    seen: dict[str, int] = {}
    fields: dict[str, object] = {}
    fixed: dict[str, float] = {}
    lines = text.splitlines()
    if lines[1:] and lines[0].startswith("# thermalcast ") and lines[1].startswith("# generated: "):  # a CSV
        lines[2:] = [line.removeprefix("# ") for line in takewhile(lambda s: not s.startswith("# points:"), lines[2:])]

    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first set on line {seen[key]})", line_no)
        seen[key] = line_no
        if key == "scenario":
            fields["scenario"] = value
        elif key == "sweep":
            fields["swept"] = _parse_swept(value, line_no)
        elif key == "outputs":
            fields["outputs"] = tuple(part.strip() for part in value.split(","))
        elif key == "generator":  # another generator would draw other bytes at the same seed
            if value != GENERATOR_ID:
                raise ConfigError(f"generator: this build draws with {GENERATOR_ID}, got {value!r}", line_no)
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

# Splitter sweeps stop short of 0 and 1: a fully one-sided splitter leaves
# one receiver with vacuum and the information measures degenerate to the
# trivial values. The channel sweep in fig6 does include eta_th = 1 on
# purpose: convergence at that endpoint is the property of interest.
_ETA_AB_RANGE = SweptRange(name="eta_ab", start=0.01, stop=0.99, count=99)
_ETA_TH_RANGE = SweptRange(name="eta_th", start=0.01, stop=1.0, count=100)

# name -> (scenario, swept range, outputs, {tag: fixed}), one branch per tag.
# fig3/fig4/fig5: basic broadcast vs splitter ratio at source variance 1, 2 and 1040. fig6: thermal channel vs
# channel transmittance, one branch per channel variance. fig7/fig8: receiver-side channel noise at transmittance
# 0.3 vs splitter ratio, one branch per (source variance, channel variance) pair.
_PRESETS = {
    "fig3": ("basic", _ETA_AB_RANGE, ("cmi", "mi", "discord"), {"": {"nu": 1.0}}),
    "fig4": ("basic", _ETA_AB_RANGE, ("cmi", "discord"), {"": {"nu": 2.0}}),
    "fig5": ("basic", _ETA_AB_RANGE, ("cmi", "discord"), {"": {"nu": 1040.0}}),
    "fig6": ("thermal_channel", _ETA_TH_RANGE, ("cmi", "discord"),
             {f"vth{v_th:g}": {"nu": 2.0, "eta_ab": 0.5, "v_th": float(v_th)} for v_th in (1, 2, 10, 100, 500)}),
    **{name: ("full", _ETA_AB_RANGE, (output,),
              {f"nu{nu:g}_v{v:g}": {"nu": float(nu), "eta_th_a": 0.3, "eta_th_b": 0.3, "v_alpha": float(v),
                                    "v_beta": float(v)} for nu, v in ((1, 1), (2, 1), (1, 10), (2, 10))})
       for name, output in (("fig7", "cmi"), ("fig8", "discord"))},
}
PRESET_NAMES = tuple(_PRESETS)


def expand_preset(name: str) -> tuple[tuple[str, SweepSpec], ...]:
    """Deterministic expansion of a preset name into its branches: (tag, sweep) pairs, fresh on every call.

    The tag goes into output filenames (empty for single-sweep presets).
    """
    if not isinstance(name, str) or name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}, choose from {PRESET_NAMES}")
    scenario, swept, outputs, branches = _PRESETS[name]
    return tuple((tag, SweepSpec(scenario, swept, dict(fixed), outputs)) for tag, fixed in branches.items())
