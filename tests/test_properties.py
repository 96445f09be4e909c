"""Property tests.

Config text becomes a runnable sweep or a clean error, a sweep's closed
forms match the general route, every in-domain build is physical (and pure
when its noise is vacuum), any symmetric matrix gets finite measures or
a named error, and every command line exits 0, 1 or 2 with at most one error line.
"""
import argparse
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermalcast import (SCENARIO_NAMES, ConfigError, CovarianceMatrix, Partition,
                         ScenarioParams, SweepSpec, SweptRange, ThermalcastError, build_scenario,
                         conditional_mutual_information, emit_csv, gaussian_discord,
                         mutual_information, parse_config, run_sweeps, shannon_entropy,
                         symplectic_eigenvalues, validate_physicality, von_neumann_entropy)
from thermalcast.cli import _PARSER, main
from thermalcast.info import CLAMP_TOL
from thermalcast.scenarios import SCENARIO_PARAMS, VARIANCE_PARAMS
from thermalcast.sweep import OUTPUT_NAMES, PARAM_NAMES

REQUIRED = ("scenario", "sweep", "outputs")
KEYS = REQUIRED + ("seed", "samples") + PARAM_NAMES
MISSPELLED = ("scenaro", "Sweep", "output", "sead", "nu_", "eta-ab", "vth", "")

# letters, digits and config punctuation; no line breaks and no '#'
JUNK = st.text(alphabet="abcxyz019.:,+-=_eE ", max_size=12)

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "0.5", "2", "1e308", "1e200",
                     "10", "1040", "4e150"]),
    st.integers(min_value=-10**30, max_value=10**400).map(str),
)

VALUES = st.one_of(NUMBERS, JUNK, st.sampled_from(SCENARIO_NAMES + OUTPUT_NAMES + PARAM_NAMES))


@st.composite
def sweep_values(draw):
    name = draw(st.sampled_from(PARAM_NAMES) | JUNK)
    count = draw(st.integers(min_value=-2, max_value=10**14).map(str) | NUMBERS)
    return f"{name}:{draw(NUMBERS)}:{draw(NUMBERS)}:{count}"


def value_for(key):
    if key == "scenario":
        return st.sampled_from(SCENARIO_NAMES) | VALUES
    if key == "sweep":
        return sweep_values()
    if key == "outputs":
        return st.lists(st.sampled_from(OUTPUT_NAMES) | JUNK, min_size=1, max_size=4).map(",".join)
    if key in ("seed", "samples"):
        return st.integers(min_value=-10, max_value=10**14).map(str) | VALUES
    return VALUES


@st.composite
def config_lines(draw):
    # the required keys often all appear, so that most texts reach SweepSpec
    keys = draw(st.lists(st.sampled_from(REQUIRED), unique=True))
    keys += draw(st.lists(st.sampled_from(KEYS), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        keys.append(draw(st.sampled_from(MISSPELLED)))
    lines = [(key, f"{key}={draw(value_for(key))}") for key in draw(st.permutations(keys))]
    extra = st.sampled_from(["", "# comment", "just words", "=2", "   "])
    for _ in range(draw(st.integers(0, 1))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, (None, draw(extra)))
    return lines


@settings(max_examples=300)
@given(config_lines())
def test_config_text_parses_or_names_its_line(lines):
    text = "\n".join(line for _, line in lines)
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        if set(REQUIRED) <= {key for key, _ in lines}:
            assert exc.line >= 1, str(exc)
    else:
        assert isinstance(spec, SweepSpec)


def in_domain(name):
    # any value ScenarioParams accepts, up to its variance ceiling
    if name in VARIANCE_PARAMS:
        return st.floats(min_value=1.0, max_value=ScenarioParams.MAX_VARIANCE).map(repr)
    return st.floats(min_value=0.0, max_value=1.0).map(repr)


@st.composite
def small_configs(draw):
    # the scenario's own parameters only: a config that sets any other is refused
    outputs = draw(st.lists(st.sampled_from(OUTPUT_NAMES), min_size=1, max_size=4, unique=True))
    scenario = draw(st.sampled_from(SCENARIO_NAMES))
    swept = draw(st.sampled_from(SCENARIO_PARAMS[scenario]))
    others = [name for name in SCENARIO_PARAMS[scenario] if name != swept]
    fixed = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    lines = [f"scenario={scenario}",
             f"sweep={swept}:{draw(in_domain(swept))}:{draw(in_domain(swept))}:"
             f"{draw(st.integers(2, 4))}",
             f"outputs={','.join(outputs)}"]
    lines += [f"{name}={draw(in_domain(name))}" for name in fixed]
    if "g2" in outputs:
        lines.append(f"seed={draw(st.integers(0, 2**70))}")
        lines.append(f"samples={draw(st.integers(1000, 2000))}")
    return "\n".join(lines)


@settings(max_examples=60)
@given(small_configs())
def test_parsed_small_sweep_runs_and_emits(text):
    spec = parse_config(text)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        try:
            result = run_sweeps([spec])[0]
            emit_csv(result, out)
        except ThermalcastError:
            assert not out.exists()
            return
        assert parse_config(out.read_text()) == spec  # the header is the spec, in digits that read back
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(data) == 1 + spec.swept.count
    for i, why in enumerate(result.reasons):
        # a row flagged failed has a nan cell; every other nan is an inconclusive g2
        values = {out: float(column[i]) for out, column in result.columns.items()}
        assert not why or any(map(math.isnan, values.values())), (why, values)
        cells = [value for out, value in values.items() if out != "g2"]
        assert why or all(map(math.isfinite, cells)), values


@st.composite
def scenario_and_fixed(draw):
    # a topology and its own parameters but nu, variances up to 1e3
    name = draw(st.sampled_from(SCENARIO_NAMES))
    return name, draw(st.fixed_dictionaries({
        param: st.sampled_from([1.0]) | st.floats(0.0, 3.0).map(lambda e: 10.0 ** e)
        if param in VARIANCE_PARAMS else st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        for param in SCENARIO_PARAMS[name] if param != "nu"}))


@settings(max_examples=100)
@given(scenario_and_fixed(), st.lists(st.floats(0.0, 3.0).map(lambda e: 10.0 ** e), min_size=2, max_size=2))
def test_sweep_closed_form_matches_the_general_route(case, nus):
    # run_sweeps' closed forms against the full build and the general one-state measures, nu and every variance
    # up to 1e3. Above that one-state discord is the less accurate route; CMI and MI are held up to 1e6 by
    # test_info.py::test_one_state_information_of_every_build_meets_its_contract
    name, fixed = case
    result = run_sweeps([SweepSpec(scenario=name, swept=SweptRange("nu", *nus, 2), fixed=fixed,
                                   outputs=("cmi", "mi", "discord"))])[0]
    assert result.n_failed == 0
    for i, nu in enumerate(result.swept.tolist()):
        scenario = build_scenario(name, ScenarioParams(**dict(fixed, nu=nu)))
        p = scenario.information_partition()
        for out, measure, args in (("cmi", conditional_mutual_information, (p,)),
                                   ("mi", mutual_information, (Partition(p.subsystem_a, p.subsystem_b),)),
                                   ("discord", gaussian_discord, (p.subsystem_a[0], p.subsystem_b[0]))):
            value = measure(scenario.state, *args)
            gap = abs(result.columns[out][i] - getattr(value, "value", value))
            assert gap <= CLAMP_TOL, (out, gap)


def edge_or_between(name):
    # the domain's edges drawn as often as its inside; variances log-uniform
    if name in VARIANCE_PARAMS:
        top = ScenarioParams.MAX_VARIANCE
        return st.sampled_from([1.0, top]) | st.floats(0.0, math.log10(top)).map(lambda e: 10.0 ** e)
    return st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=200)
@given(st.sampled_from(SCENARIO_NAMES),
       st.lists(st.fixed_dictionaries({name: edge_or_between(name) for name in PARAM_NAMES}),
                min_size=1, max_size=6))
def test_every_in_domain_build_is_physical(name, rows):
    # nothing re-checks a built state, so this is where physicality is held
    for row in rows:
        state = build_scenario(name, ScenarioParams(**row)).state
        report = validate_physicality(state)
        assert report.ok, (name, row, report.issues)
        assert np.all(symplectic_eigenvalues(state) >= 1.0), (name, row)
        if all(row[k] == 1.0 for k in ("v_th", "v_alpha", "v_beta")):
            # EPR, vacua and beamsplitters only: a pure state, entropy exactly 0
            assert von_neumann_entropy(state) == 0.0, (name, row)


@st.composite
def symmetric_matrices(draw):
    # Q diag(lambda) Q^T for 1 to 3 modes, eigenvalues kept clear of 0 so that
    # rounding cannot blur definite into indefinite; about half are indefinite
    dim = 2 * draw(st.integers(1, 3))
    eigs = np.array(draw(st.lists(st.floats(0.05, 1e3), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        eigs *= draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim))
        if eigs.min() > 0.0:
            eigs[draw(st.integers(0, dim - 1))] *= -1.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(eigs) @ q.T, bool(eigs.min() > 0.0)


def _measures(n_modes):
    calls = [symplectic_eigenvalues, shannon_entropy, von_neumann_entropy]
    if n_modes >= 2:
        calls += [lambda s: mutual_information(s, Partition((0,), (1,))),
                  lambda s: list(vars(gaussian_discord(s, 0, 1)).values())]
    if n_modes == 3:
        calls.append(lambda s: conditional_mutual_information(s, Partition((0,), (1,), (2,))))
    return calls


@settings(max_examples=150)
@given(symmetric_matrices())
def test_any_symmetric_matrix_gets_finite_measures_or_a_named_error(case):
    gamma, positive_definite = case
    state = CovarianceMatrix(gamma)
    for measure in _measures(state.n_modes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = measure(state)
            except ThermalcastError:
                continue
        assert positive_definite, (measure, gamma)
        assert np.all(np.isfinite(value)), (measure, gamma)


# argv from the CLI's own grammar: each subcommand's flags, with values from valid tokens, from valid tokens holding a
# NUL byte and from the public walk's hostile strings. Every hostile string is refused as a --samples or --seed
# before any draw.
COMMANDS = next(action for action in _PARSER._actions if isinstance(action, argparse._SubParsersAction)).choices
HOSTILE = ["x", "", "None", "b'x'", "[1]", "{'a': 1}", "True", "nan", "inf", "-inf", "1e300", str(2 ** 64), "-1", "1.5",
           "()", "('x',)", "\0", "x\0y"]
# relative paths only, so every call stays in its own directory
PATHS = {"config": ["sweep.cfg"], "out": ["out.csv", "missing/out.csv", "."], "out_dir": ["figs", "sweep.cfg"]}
HOSTILE_LINES = ["samples=5", "samples=10000000000000", "seed=-1", f"seed={2 ** 64}", "sweep=eta_ab:0:1:1000000",
                 "nu=nan", "nu=1e300", "outputs=", "outputs=g2,g2", "x", "=", "scenario=[1]", "nu=\0"]


def flag_values(action):
    if action.choices:
        valid = st.sampled_from(list(action.choices))
    elif action.dest == "samples":
        valid = st.integers(1000, 2000).map(str)
    elif action.type is int:
        valid = st.integers(0, 2 ** 64).map(str)
    elif action.type is float:
        valid = st.sampled_from(["0", "0.5", "1", "2", "10", "1e6"])
    else:
        valid = st.sampled_from(PATHS[action.dest])
    nul = valid.map(lambda token: token[:1] + "\0" + token[1:])  # a valid token that no path can hold
    return st.integers(0, 3).flatmap(lambda pick: [valid, valid, nul, st.sampled_from(HOSTILE)][pick])


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for action in COMMANDS[command]._actions:
        if "--help" in action.option_strings:
            continue
        # a required flag is mostly there, so that most calls get past the parser; g2check's default --samples
        # would draw 100,000 rows
        if action.dest == "samples" or draw(st.integers(0, 7)) < (7 if action.required else 2):
            many = action.nargs == "+"
            argv += [action.option_strings[-1], *draw(st.lists(flag_values(action), min_size=1, max_size=1 + many))]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(["--bogus", "--help", "sweep", *HOSTILE])))
    lines = [line.encode() for line in draw(small_configs()).splitlines()]
    for extra in draw(st.lists(st.sampled_from(HOSTILE_LINES).map(str.encode) | st.binary(min_size=1, max_size=8),
                               max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return argv, b"\n".join(lines)


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=cli_calls())
def test_every_cli_call_exits_by_the_contract(call, tmp_path, monkeypatch, capsys):
    argv, config = call
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    (work / "sweep.cfg").write_bytes(config)
    try:
        code = main(argv)
    except SystemExit as stop:  # --help: argparse prints the usage and exits 0, as the process would
        code = stop.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert code != 1 or (err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")), (argv, err)
    assert not list(work.rglob("*.partial")), argv
