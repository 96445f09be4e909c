"""Command-line front end: sweeps, figure presets and the g2 gate.

Exit codes: 0 on success, 1 for usage or config errors, 2 when every point
of the run (a sweep, or every preset a figure run names) failed numerically.
Partial failures exit 0; the flagged rows show as nan cells and '# failed:' lines.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ThermalcastError, UsageError
from .hbt import GENERATOR_ID, VERDICT_INCONCLUSIVE, g2_pairs, run_one
from .scenarios import SCENARIO_NAMES, ScenarioParams, pair_entries
from .sweep import (DEFAULT_G2_SAMPLES, PARAM_NAMES, PRESET_NAMES, SweepSpec, emit_csv,
                    expand_preset, parse_config, run_sweeps)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through our own codes
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="thermalcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run one sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="key=value config file")
    p_sweep.add_argument("--out", required=True, help="destination CSV path")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="run named figure presets in one process")
    p_fig.add_argument("--name", required=True, nargs="+", choices=PRESET_NAMES + ("all",))
    p_fig.add_argument("--out-dir", required=True, help="directory for the CSV files")
    p_fig.set_defaults(handler=_cmd_figure)

    p_g2 = sub.add_parser("g2check", help="sample a scenario and test thermality via g2(0)")
    p_g2.add_argument("--scenario", choices=SCENARIO_NAMES, default="basic")
    p_g2.add_argument("--samples", type=int, default=DEFAULT_G2_SAMPLES)
    p_g2.add_argument("--seed", type=int, required=True)
    for name in PARAM_NAMES:
        p_g2.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name,
                          default=getattr(ScenarioParams, name),
                          help=f"scenario parameter {name}")
    p_g2.set_defaults(handler=_cmd_g2check)
    return parser


def _write_sweeps(files: list[tuple[Path, SweepSpec]]) -> int:
    results = run_sweeps([spec for _, spec in files])
    for (destination, _), result in zip(files, results):
        emit_csv(result, destination)
        print(f"wrote {destination} ({len(result.reasons)} points, {result.n_failed} failed)")
    return 2 if all(result.all_failed for result in results) else 0


def _cmd_sweep(args) -> int:
    return _write_sweeps([(Path(args.out), parse_config(Path(args.config).read_text(encoding="utf-8")))])


def _cmd_figure(args) -> int:
    names = dict.fromkeys(PRESET_NAMES if "all" in args.name else args.name)  # each preset once
    files = [(Path(args.out_dir, f"{name}_{tag}.csv" if tag else f"{name}.csv"), spec)
             for name in names for tag, spec in expand_preset(name)]
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)  # only after every name has expanded
    return _write_sweeps(files)


def _cmd_g2check(args) -> int:
    params = ScenarioParams(**{name: getattr(args, name) for name in PARAM_NAMES})
    entries = np.array([entry[0] for entry in pair_entries(args.scenario, params)])  # the receivers' (a, b, c, d)
    report = run_one(g2_pairs, entries, args.samples, [args.seed])
    estimate = np.nan if report.verdict == VERDICT_INCONCLUSIVE else report.g2_estimate  # as a sweep writes it
    print(f"scenario: {args.scenario}")
    print("params: " + " ".join(f"{name}={getattr(args, name):g}" for name in PARAM_NAMES))
    print(f"g2 estimate: {estimate:.6g} +/- {report.std_error:.3g} ({report.n_samples} samples, jackknife)")
    print("g2 analytic: " + ("undefined" if report.g2_analytic is None else f"{report.g2_analytic:.6g}"))
    print(f"verdict: {report.verdict}")
    print(f"seed: {args.seed}  generator: {GENERATOR_ID}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ThermalcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
