"""The benchmark's own tests: oracles, the correctness gate, traced counts.

Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import workloads
from thermalcast import (ScenarioParams, basic_closed_form, cli,
                         full_closed_form_blocks, thermal_channel_closed_form)
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[2]


def _random_params(rng):
    return ScenarioParams(
        nu=1.0 + 49.0 * rng.random(), eta_ab=rng.random(), eta_th=rng.random(),
        v_th=1.0 + 99.0 * rng.random(), eta_th_a=rng.random(), eta_th_b=rng.random(),
        v_alpha=1.0 + 9.0 * rng.random(), v_beta=1.0 + 9.0 * rng.random())


def _eab(scenario, params):
    values = {name: np.array([getattr(params, name)]) for name in oracles.PARAM_DEFAULTS}
    return oracles.eab_covariances(scenario, values)[0]


def test_oracle_closed_forms_match_the_program_closed_forms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = _random_params(rng)
        for scenario, full, labels in (
                ("basic", basic_closed_form(params).data, (0, 2, 1)),
                ("thermal_channel", thermal_channel_closed_form(params).data, (0, 3, 2))):
            idx = [i for mode in labels for i in (2 * mode, 2 * mode + 1)]
            np.testing.assert_allclose(_eab(scenario, params), full[np.ix_(idx, idx)],
                                       rtol=1e-12, atol=1e-12)
        blocks = full_closed_form_blocks(params)
        gamma = _eab("full", params)
        for key, (i, j) in {"e": (0, 0), "a": (1, 1), "b": (2, 2), "ea": (0, 1),
                            "eb": (0, 2), "ab": (1, 2)}.items():
            np.testing.assert_allclose(gamma[2 * i:2 * i + 2, 2 * j:2 * j + 2], blocks[key],
                                       rtol=1e-12, atol=1e-12)


def _symplectic_values(pair):
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return np.sort(np.abs(np.linalg.eigvals(omega @ pair)))[::2]


def _h(x):
    return 0.0 if x <= 1.0 else ((x + 1) / 2 * math.log2((x + 1) / 2)
                                 - (x - 1) / 2 * math.log2((x - 1) / 2))


def test_discord_oracle_searches_the_whole_half_turn():
    # an anisotropic pair with A's frame rotated by 2.4 rad: a general state
    # whose best homodyne angle is 2.4, outside criterion 7's [0, pi/2] grid
    rot = np.array([[np.cos(2.4), -np.sin(2.4)], [np.sin(2.4), np.cos(2.4)]])
    a, b = rot @ np.diag([4.0, 2.0]) @ rot.T, np.diag([3.0, 5.0])
    cross = rot @ np.diag([2.0, -1.0])
    pair = np.block([[a, cross], [cross.T, b]])
    gamma = np.zeros((1, 6, 6))
    gamma[0, 0:2, 0:2] = np.eye(2)
    gamma[0, 2:6, 2:6] = pair

    thetas = np.linspace(0.0, np.pi, 200_001)[:-1]
    x = np.stack([np.cos(thetas), np.sin(thetas)])
    u = cross.T @ x
    q = np.einsum("it,ij,jt->t", x, a, x)
    dets = np.linalg.det(b - np.einsum("it,jt->tij", u, u) / q[:, None, None])
    quarter = thetas <= np.pi / 2
    assert dets[quarter].min() > dets.min() * 1.05
    s_cond = _h(math.sqrt(dets.min()))
    spectrum = _symplectic_values(pair)
    direct = _h(math.sqrt(np.linalg.det(a))) - sum(_h(v) for v in spectrum) + s_cond
    assert oracles.discord(gamma)[0] == pytest.approx(direct, abs=1e-6)


def _small_sweep(tmp_path):
    case = workloads.SweepCase(tmp_path / "small.csv", "basic", {"nu": 2.0}, "eta_ab",
                               0.1, 0.9, 9, ("cmi", "mi", "discord"))
    return [workloads._sweep_command(case)], case


def _run(commands):
    return run.run_pass(commands).outcomes


def test_gate_passes_correct_output_and_fails_each_wrong_value(tmp_path):
    commands, case = _small_sweep(tmp_path)
    outcomes = _run(commands)
    expect = workloads.expectations(commands, seed=0)
    assert workloads.check(commands, outcomes, expect) == (9, 0)

    header, data = outcomes[0].tables[case.csv]
    for column, row, delta in ((1, 2, 2e-9), (2, 4, 2e-9), (3, 6, 2e-6), (1, 0, math.nan)):
        wrong = data.copy()
        wrong[row, column] += delta
        bad = [workloads.Outcome(0, "", {case.csv: (header, wrong)})]
        assert workloads.check(commands, bad, expect) == (9, 1)
    # below the tolerance is not a failure
    near = data.copy()
    near[3, 1] += 1e-10
    assert workloads.check(commands, [workloads.Outcome(0, "", {case.csv: (header, near)})],
                           expect) == (9, 0)
    assert workloads.check(commands, [workloads.Outcome(1, "", outcomes[0].tables)],
                           expect) == (9, 9)
    assert workloads.check(commands, [workloads.Outcome(0, "", {case.csv: None})],
                           expect) == (9, 9)


def test_gate_checks_g2check_estimate_and_verdict(tmp_path):
    commands = workloads.build("g2_gate", 3, tmp_path)[:1]
    outcomes = _run(commands)
    expect = workloads.expectations(commands, seed=3)
    assert workloads.check(commands, outcomes, expect) == (1, 0)
    exact, tol = expect.gates[commands[0].gate]
    text = outcomes[0].stdout
    far = re.sub(r"^g2 estimate: \S+", f"g2 estimate: {exact + 1.01 * tol:.6g}", text, flags=re.M)
    assert far != text
    for wrong in (text.replace("verdict: thermal", "verdict: not-thermal"), far):
        bad = [workloads.Outcome(0, wrong, {})]
        assert workloads.check(commands, bad, expect) == (1, 1)


def _traced_counts(commands):
    with Tracer() as tracer:
        run.run_pass(commands, tracer)
    metrics = tracer.metrics()
    # everything but times: calls and counters, which must repeat exactly
    return {name: value for name, value in metrics.items()
            if not name.endswith("_s")}


@pytest.mark.parametrize("workload, first, expected", [
    ("presets", 1, {"info.gaussian_discord.calls": 99, "info.homodyne_condition.calls": 99 * 66,
                    "info.discord.angle_evals_per_call": 66, "hbt.normals_drawn": 0}),
    ("g2_sweep", None, {"hbt.sample_quadratures.calls": 40,
                        "hbt.normals_drawn": 40 * 200_000 * 12,
                        "hbt.sample_bytes_computed": 40 * 200_000 * 12 * 8,
                        "hbt.useful_column_frac": 1 / 3, "info.gaussian_discord.calls": 0}),
    ("g2_gate", 2, {"hbt.sample_quadratures.calls": 2, "hbt.normals_drawn": 2 * 1_000_000 * 6,
                    "hbt.useful_column_frac": 2 / 3, "cli.main.calls": 2}),
])
def test_traced_counts_repeat_and_match_baseline(tmp_path, workload, first, expected):
    runs = []
    for seed in (1, 1, 2):
        commands = workloads.build(workload, seed, tmp_path)[:first]
        runs.append(_traced_counts(commands))
    assert runs[0] == runs[1]
    for run in runs:
        for name, value in expected.items():
            assert run[name] == pytest.approx(value, rel=1e-15), name
        assert run["sweep.rows_failed"] == 0
        assert run["trace.absent_targets"] == 0


def test_presets_size_matches_its_description(tmp_path):
    commands = workloads.build("presets", 0, tmp_path)
    cases = [case for command in commands for case in command.sweeps]
    assert len(cases) == 16
    assert sum(command.ops for command in commands) == 1589
    assert sum(case.count for case in cases if "discord" in case.outputs) == 1193


def test_absent_wrap_target_is_reported_and_the_run_goes_on(tmp_path):
    commands, _ = _small_sweep(tmp_path)
    original = cli.main
    with Tracer(TARGETS + ("info.no_longer_here", "gone_module.f")) as tracer:
        outcomes = run.run_pass(commands, tracer).outcomes
    assert outcomes[0].code == 0
    assert tracer.absent_metrics == ["info.no_longer_here", "gone_module.f"]
    assert tracer.metrics()["info.gaussian_discord.calls"] == 9
    assert cli.main is original


def test_self_time_splits_into_cpu_and_wait(tmp_path):
    commands, _ = _small_sweep(tmp_path)
    with Tracer() as tracer:
        run.run_pass(commands, tracer)
    totals = tracer.layer_totals()
    discord = totals["info.gaussian_discord"]
    assert discord["self_s"] > 0.0
    assert discord["self_s"] == pytest.approx(discord["cpu_s"] + discord["wait_s"], abs=1e-3)
    inclusive = sum(s[6] - s[5] for s in tracer.spans if s[3] == "info.gaussian_discord")
    assert discord["self_s"] < inclusive


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert list(predictions["workloads"]) == list(workloads.WORKLOAD_NAMES)
    assert gated == [name for name, w in predictions["workloads"].items() if w["gated"]]
    names = set(run.LAYER_UNITS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for row in predictions["predictions"]:
        for pattern in row["layer_metrics"]:
            stem = pattern[:-2] if pattern.endswith(".*") else None
            assert (f"{stem}.calls" in names) if stem else (pattern in names), pattern
        assert set(row["moves"]) <= end_to_end
        assert set(row["moves_on"] + row["flat_on"]) <= set(workloads.WORKLOAD_NAMES)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "g2_gate",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
