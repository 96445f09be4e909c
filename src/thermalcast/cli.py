"""Command-line front end: sweeps, figure presets and the g2 gate.

Exit codes: 0 on success, 1 for usage or config errors, 2 when every point of the run (a sweep, every preset
a figure run names, or g2check's one point) failed numerically.
Partial failures exit 0; the flagged rows show as nan cells and '# failed:' lines.
The parser is built once per process, at import: parsing leaves no state in it, so every main call shares it.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, ThermalcastError, UsageError
from .hbt import GENERATOR_ID
from .scenarios import ScenarioParams
from .sweep import (DEFAULT_G2_SAMPLES, PARAM_NAMES, PRESET_NAMES, SweepSpec, SweptRange, _format_value, emit_csv,
                    expand_preset, parse_config, run_sweeps)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through our own codes
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="thermalcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run one sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="key=value config file, or a CSV that a run wrote")
    p_sweep.add_argument("--out", required=True, help="destination CSV path")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="run named figure presets in one process")
    p_fig.add_argument("--name", required=True, nargs="+", choices=PRESET_NAMES + ("all",))
    p_fig.add_argument("--out-dir", required=True, help="directory for the CSV files")
    p_fig.set_defaults(handler=_cmd_figure)

    p_g2 = sub.add_parser("g2check", help="sample the broadcast's receiver pair and test thermality via g2(0)")
    p_g2.add_argument("--samples", type=int, default=DEFAULT_G2_SAMPLES)
    p_g2.add_argument("--seed", type=int, required=True)
    for name in PARAM_NAMES:
        p_g2.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name,
                          default=getattr(ScenarioParams, name),
                          help=f"broadcast parameter {name}")
    p_g2.set_defaults(handler=_cmd_g2check)
    return parser


def _write_sweeps(files: list[tuple[Path, SweepSpec]]) -> int:
    results = run_sweeps([spec for _, spec in files])
    for (destination, _), result in zip(files, results):
        emit_csv(result, destination)
        print(f"wrote {destination} ({len(result.reasons)} points, {result.n_failed} failed)")
    return 2 if all(result.all_failed for result in results) else 0


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, which main does not catch
        raise ConfigError(f"config {args.config!r} is not UTF-8 at byte {exc.start}") from None
    return _write_sweeps([(Path(args.out), parse_config(text))])


def _cmd_figure(args) -> int:
    names = dict.fromkeys(PRESET_NAMES if "all" in args.name else args.name)  # each preset once
    files = [(Path(args.out_dir, f"{name}_{tag}.csv" if tag else f"{name}.csv"), spec)
             for name in names for tag, spec in expand_preset(name)]
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)  # only after every name has expanded
    return _write_sweeps(files)


def _cmd_g2check(args) -> int:
    params = ScenarioParams(**{name: getattr(args, name) for name in PARAM_NAMES})  # first: a flag's refusal unprefixed
    fixed = {name: getattr(params, name) for name in PARAM_NAMES if name != "nu"}
    [result] = run_sweeps([SweepSpec("full", SweptRange("nu", params.nu, params.nu, 1), fixed, ("g2",), args.seed,
                                     args.samples)])  # a one-point sweep: point 0 on the streams (seed, 0)
    if result.all_failed:
        print(f"error: {result.reasons[0][0]}", file=sys.stderr)
        return 2
    [cell], [report] = result.columns["g2"], result.reports
    print("params: " + " ".join(f"{name}={_format_value(getattr(params, name))}" for name in PARAM_NAMES))
    print(f"g2 estimate: {cell:.6g} +/- {report.std_error:.3g} ({report.n_samples} samples, jackknife)")
    print("g2 analytic: " + ("undefined" if report.g2_analytic is None else f"{report.g2_analytic:.6g}"))
    print(f"verdict: {report.verdict}")
    print(f"seed: {args.seed}  generator: {GENERATOR_ID}")
    return 0


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        for flag in ("config", "out", "out_dir"):  # the path flags, which open() would refuse with a ValueError
            try:
                if b"\0" in os.fsencode(getattr(args, flag, "")):
                    raise UsageError(f"argument --{flag.replace('_', '-')}: a path cannot hold a NUL byte")
            except UnicodeEncodeError:  # a lone surrogate, which the file system's encoding cannot carry
                raise UsageError(f"argument --{flag.replace('_', '-')}: a path cannot hold a lone surrogate") from None
        return args.handler(args)
    except (ThermalcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
