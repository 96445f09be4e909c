"""Every public callable refuses a wrong argument as a ThermalcastError, never as another exception or a warning."""
import inspect
import math
from collections.abc import Hashable

import numpy as np
import pytest

import thermalcast
from thermalcast import (SCENARIO_NAMES, Partition, ScenarioParams, ScenarioState, SweepSpec, SweptRange,
                         ThermalcastError, apply_beamsplitter, build_scenario, g2_analytic, g2_cross_estimate,
                         intensity, make_epr, make_thermal, make_vacuum, mutual_information, parse_config, reduce,
                         run_sweeps, thermality_check)
from thermalcast.cli import main

# exception classes, constants and the types that are only returned
EXEMPT = {
    "ThermalcastError", "InvalidArgumentError", "UnphysicalStateError", "NumericFailureError",
    "UndefinedResultError", "ConfigError", "UsageError",
    "__version__", "SCENARIO_NAMES", "GENERATOR_ID", "VERDICT_THERMAL", "VERDICT_NOT_THERMAL", "VERDICT_INCONCLUSIVE",
    "PhysicalityReport", "DiscordResult", "G2Report", "SweepResult",
}

# the wrong values, each put in place of one argument in turn; 2**64 is the only huge count, which numpy
# refuses without allocating
WRONG = [None, "x", b"x", [1], {"a": 1}, True, math.nan, math.inf, -math.inf, 1e300, 2 ** 64, -1, 1.5, (), ("x",),
         np.zeros((3, 5)), np.eye(3)]


def valid_rows():
    """A row of valid positional arguments for every public callable that takes input."""
    vac1, vac2, epr = make_vacuum(1), make_vacuum(2), make_epr(2.0)
    params = ScenarioParams(nu=2.0)
    basic = build_scenario("basic", params)
    samples = np.random.default_rng(0).standard_normal((1000, 4))
    swept = SweptRange("eta_ab", 0.2, 0.8, 3)
    spec = SweepSpec("basic", swept, {"nu": 2.0}, ("cmi", "g2"), 0, 1000)
    cmi_spec = SweepSpec("basic", swept, {"nu": 2.0}, ("cmi",))
    return {
        "CovarianceMatrix": (np.eye(2),),
        "make_vacuum": (1,),
        "make_thermal": (2.0,),
        "make_epr": (2.0,),
        "tensor": (vac1, vac1),
        "apply_beamsplitter": (vac2, 0, 1, 0.5),
        "reduce": (vac2, [0]),
        "symplectic_eigenvalues": (epr,),
        "validate_physicality": (epr,),
        "Partition": ((0,), (1,), (2,)),
        "shannon_entropy": (epr,),
        "von_neumann_entropy": (epr,),
        "conditional_mutual_information": (basic.state, Partition((2,), (1,), (0,))),
        "mutual_information": (epr, Partition((0,), (1,))),
        "homodyne_condition": (epr, 0, 0.3),
        "gaussian_discord": (epr, 0, 1),
        "ScenarioParams": (2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        "ScenarioState": (make_vacuum(3), ("E", "B", "A")),
        "build_scenario": ("basic", params),
        "block_of": (basic, "A", "B"),
        "basic_closed_form": (params,),
        "thermal_channel_closed_form": (params,),
        "full_closed_form_blocks": (params,),
        "sample_quadratures": (epr, 2, 0),
        "intensity": (samples, 0),
        "g2_cross_estimate": (samples, 0, 1),
        "g2_analytic": (epr, 0, 1),
        "thermality_check": (epr, 0, 1, 1000, 0),
        "SweptRange": ("eta_ab", 0.2, 0.8, 3),
        "SweepSpec": ("basic", swept, {"nu": 2.0}, ("cmi", "g2"), 0, 1000),
        "run_sweeps": ([cmi_spec],),
        "emit_csv": (run_sweeps([spec])[0], "out.csv"),
        "parse_config": ("scenario=basic\nsweep=eta_ab:0.2:0.8:3\noutputs=cmi\n",),
        "expand_preset": ("fig3",),
    }


def test_every_public_callable_returns_or_raises_a_thermalcast_error(tmp_path, monkeypatch):
    # warnings are errors in this suite, so a call that warns fails here too
    monkeypatch.chdir(tmp_path)  # emit_csv writes "x" and "out.csv" here
    rows = valid_rows()
    assert sorted(set(thermalcast.__all__) - EXEMPT) == sorted(rows), "every public name needs a row or an exemption"
    leaks = []
    for name, args in rows.items():
        func = getattr(thermalcast, name)
        assert len(inspect.signature(func).parameters) == len(args), f"{name}: the row must fill every parameter"
        func(*args)  # the row itself is valid
        for i in range(len(args)):
            for wrong in WRONG:
                try:
                    func(*args[:i], wrong, *args[i + 1:])
                except ThermalcastError:
                    pass
                except Exception as exc:  # noqa: BLE001 - any other exception is the leak this test looks for
                    leaks.append(f"{name} argument {i} = {wrong!r}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks)


def nested_rows():
    """The walk one level down: per row, a call that puts its argument inside a container, and a valid argument."""
    vac2, vac3, epr = make_vacuum(2), make_vacuum(3), make_epr(2.0)
    fields, fixed = ("eta_ab", 0.2, 0.8, 3), {"nu": 2.0}
    swept = SweptRange(*fields)
    spec = SweepSpec("basic", swept, fixed)
    rows = {f"SweptRange.{field} in a SweepSpec": (
        lambda wrong, i=i: SweepSpec("basic", SweptRange(*fields[:i], wrong, *fields[i + 1:]), fixed), fields[i])
        for i, field in enumerate(("name", "start", "stop", "count"))}
    rows.update({
        "fixed key": (lambda wrong: SweepSpec("basic", swept, {wrong: 2.0}), "nu"),
        "fixed value": (lambda wrong: SweepSpec("basic", swept, {"nu": wrong}), 2.0),
        "reduce keep item": (lambda wrong: reduce(vac2, [wrong]), 0),
        "Partition item": (lambda wrong: mutual_information(epr, Partition((wrong,), (1,))), 0),
        "mode label": (lambda wrong: ScenarioState(vac3, (wrong, "B", "A")), "E"),
        "run_sweeps item": (lambda wrong: run_sweeps([spec, wrong]), spec),
    })
    return rows


def test_every_nested_argument_returns_or_raises_a_thermalcast_error():
    leaks = []
    for name, (call, valid) in nested_rows().items():
        call(valid)  # the row itself is valid
        for wrong in WRONG:
            if name == "fixed key" and not isinstance(wrong, Hashable):
                continue  # no dict can hold it as a key
            try:
                call(wrong)
            except ThermalcastError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception is the leak this test looks for
                leaks.append(f"{name} = {wrong!r}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks)


def test_each_rule_gives_one_sentence_at_every_entry_point(capsys):
    """A rule with one home words its refusal the same through every public door; a door may only prefix it."""
    epr, samples = make_epr(2.0), np.random.default_rng(0).standard_normal((1000, 4))

    def g2check(*argv):  # the CLI door: its error line
        assert main(["g2check", "--seed", "1", *argv]) == 1
        return capsys.readouterr().err.rstrip("\n")

    table = {
        "mode index 0.5 is not an integer in [0, 2)": [
            ("", lambda: intensity(samples, 0.5)),
            ("", lambda: g2_cross_estimate(samples, 0.5, 1)),
            ("", lambda: reduce(epr, [0.5, 1])),
            ("", lambda: g2_analytic(epr, 0.5, 1)),
            ("", lambda: thermality_check(epr, 0.5, 1, 1000, 0)),
        ],
        "duplicate mode index in [1, 1]": [
            ("", lambda: g2_cross_estimate(samples, 1, 1)),
            ("", lambda: reduce(epr, [1, 1])),
            ("", lambda: g2_analytic(epr, 1, 1)),
            ("", lambda: thermality_check(epr, 1, 1, 1000, 0)),
        ],
        "must lie in [0, 1], got 1.5": [
            ("transmittance ", lambda: apply_beamsplitter(epr, 0, 1, 1.5)),
            ("eta_ab is a transmittance and ", lambda: ScenarioParams(eta_ab=1.5)),
            ("line 2: fixed: eta_ab is a transmittance and ",
             lambda: parse_config("scenario=basic\neta_ab=1.5\nsweep=nu:1:2:3\noutputs=cmi\n")),
            ("error: eta_ab is a transmittance and ", lambda: g2check("--eta-ab", "1.5")),
        ],
        # one format for both variance bounds, so a numpy scalar reads as its repr in either; the CLI hands plain floats
        "must be >= 1 SNU, got 0.5": [
            ("nu is a variance and ", lambda: ScenarioParams(nu=0.5)),
            ("line 2: fixed: nu is a variance and ",
             lambda: parse_config("scenario=basic\nnu=0.5\nsweep=eta_ab:0.1:0.9:3\noutputs=cmi\n")),
            ("error: nu is a variance and ", lambda: g2check("--nu", "0.5")),
        ],
        f"must be >= 1 SNU, got {np.float64(0.5)!r}": [
            ("nu is a variance and ", lambda: ScenarioParams(nu=np.float64(0.5))),
            ("thermal variance ", lambda: make_thermal(np.float64(0.5))),
        ],
        f"must be <= 1e+06 SNU, got {np.float64(2e6)!r}": [
            ("nu is a variance and ", lambda: ScenarioParams(nu=np.float64(2e6))),
            ("EPR variance ", lambda: make_epr(np.float64(2e6))),
        ],
        f"unknown scenario 'bogus'; choose from {SCENARIO_NAMES}": [
            ("", lambda: build_scenario("bogus", ScenarioParams())),
            ("scenario: ", lambda: SweepSpec("bogus", SweptRange("eta_ab", 0.2, 0.8, 3))),
            ("line 1: scenario: ", lambda: parse_config("scenario=bogus\nsweep=eta_ab:0.2:0.8:3\noutputs=cmi\n")),
        ],
    }
    wrong = []
    for sentence, doors in table.items():
        for prefix, door in doors:
            try:
                said = door()
            except ThermalcastError as exc:
                said = str(exc)
            if not (isinstance(said, str) and said == prefix + sentence):
                wrong.append(f"said {said!r}, not {prefix + sentence!r}")
    assert not wrong, "\n".join(wrong)


def test_array_holding_records_compare_and_hash_by_identity():
    # CovarianceMatrix, ScenarioState and SweepResult hold arrays, whose == has no single truth value, so each
    # compares and hashes by identity: == no longer raises ValueError, nor hash() TypeError
    spec = SweepSpec("basic", SweptRange("eta_ab", 0.2, 0.8, 3), {"nu": 2.0}, ("cmi",))
    for make in (lambda: make_vacuum(1), lambda: build_scenario("basic", ScenarioParams(nu=2.0)),
                 lambda: build_scenario("basic", ScenarioParams(nu=2.0)).state, lambda: run_sweeps([spec])[0]):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert [b, a].index(a) == 1
        with pytest.raises(ValueError, match="not in list"):
            [b].index(a)
