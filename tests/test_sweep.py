"""Sweep specs, config parsing, CSV emission and figure presets."""
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import thermalcast.hbt
import thermalcast.sweep
from thermalcast import (SCENARIO_NAMES, ConfigError, NumericFailureError, ScenarioParams, SweepSpec, SweptRange,
                         UsageError, emit_csv, expand_preset, parse_config, run_sweeps)
from thermalcast.cli import main
from thermalcast.scenarios import pair_entries
from thermalcast.scenarios import SCENARIO_PARAMS
from thermalcast.sweep import PRESET_NAMES

GOOD_CONFIG = """\
scenario=basic
nu=2
sweep=eta_ab:0.01:0.99:99
outputs=cmi,discord
"""
CSV_STAMP = "# thermalcast 0.1.0\n# generated: 2026-01-01T00:00:00+00:00\n"


def small_spec(**overrides):
    base = dict(scenario="basic",
                swept=SweptRange("eta_ab", 0.2, 0.8, 4),
                fixed={"nu": 2.0}, outputs=("cmi", "discord"))
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation


def test_swept_range_includes_endpoints():
    values = SweptRange("eta_ab", 0.01, 0.99, 99).values()
    assert len(values) == 99
    assert values[0] == 0.01 and values[-1] == 0.99
    assert SweptRange("nu", 1.0, 5.0, 3).describe() == "nu:1:5:3"


@pytest.mark.parametrize("overrides,field", [
    (dict(scenario="ring"), "scenario"),
    (dict(swept=SweptRange("mu", 0.1, 0.9, 5)), "sweep"),
    (dict(swept=SweptRange("eta_ab", 0.1, 0.9, 1)), "sweep"),
    (dict(swept=SweptRange("eta_ab", 0.1, 1.5, 5)), "sweep"),
    (dict(swept=SweptRange("nu", 0.5, 2.0, 5)), "sweep"),
    (dict(fixed={"nu": 0.5}), "fixed"),
    (dict(fixed={"eta_ab": 2.0}, swept=SweptRange("nu", 1.0, 2.0, 5)), "fixed"),
    (dict(fixed={"eta_ab": 0.5, "nu": 2.0}), "sweep"),
    (dict(outputs=()), "outputs"),
    (dict(outputs=("cmi", "entropy")), "outputs"),
    (dict(outputs=("cmi", "cmi")), "outputs"),
    (dict(outputs=("g2",)), "seed"),
    (dict(seed=7), "seed"),
    (dict(outputs=("g2",), seed=7, samples=10), "samples"),
    (dict(outputs=("g2",), seed=-1), "seed"),
    (dict(samples=2000), "samples"),
    (dict(swept=SweptRange("eta_ab", 0.1, 0.9, thermalcast.sweep.MAX_POINTS + 1)), "sweep"),
    (dict(outputs=("g2",), seed=7, samples=thermalcast.hbt.MAX_SAMPLES + 1), "samples"),
    # counts must be integers: a float count or sample size crashed the run,
    # and a float seed ran as its integer part
    (dict(swept=SweptRange("eta_ab", 0.1, 0.9, 2.5)), "sweep: .*integer"),
    (dict(swept=SweptRange("eta_ab", 0.1, 0.9, 4.0)), "sweep: .*integer"),
    (dict(outputs=("g2",), seed=1.5), "seed: .*integer"),
    (dict(outputs=("g2",), seed=True), "seed: .*integer"),
    (dict(outputs=("g2",), seed=7, samples=1000.5), "samples: .*integer"),
    (dict(outputs=("g2",), seed=7, samples=4000.0), "samples: .*integer"),
    # a wrong type is refused by name, not met as an AttributeError or iterated as a string
    (dict(swept=None), "swept: must be a SweptRange, got NoneType$"),
    (dict(fixed=[("nu", 2.0)]), "fixed: must be a dict, got list$"),
    (dict(outputs="cmi"), "outputs: must be a tuple, got str$"),
])
def test_spec_validation_names_the_field(overrides, field):
    with pytest.raises(UsageError, match=f"^{field}"):
        small_spec(**overrides)


def test_spec_takes_integer_types_and_hands_fixed_values_to_params():
    spec = small_spec(swept=SweptRange("eta_ab", 0.2, 0.8, np.int64(4)))
    assert len(run_sweeps([spec])[0].reasons) == 4
    with pytest.raises(UsageError, match="^fixed: nu must be a finite number, got 'abc'$"):
        small_spec(fixed={"nu": "abc"})


def test_samples_default_only_with_g2():
    assert small_spec().samples is None
    spec = small_spec(outputs=("g2",), seed=7)
    assert spec.samples == thermalcast.sweep.DEFAULT_G2_SAMPLES


# ---------------------------------------------------------------------------
# Config parsing


def test_parse_round_config():
    spec = parse_config(GOOD_CONFIG)
    assert spec.scenario == "basic"
    assert spec.fixed == {"nu": 2.0}
    assert spec.swept == SweptRange("eta_ab", 0.01, 0.99, 99)
    assert spec.outputs == ("cmi", "discord")
    assert spec.seed is None


def test_parse_comments_and_blanks():
    text = """
# a comment line
scenario = basic   # trailing comment

nu = 2
sweep = eta_ab:0.1:0.9:9
outputs = cmi
"""
    spec = parse_config(text)
    assert spec.scenario == "basic"
    assert spec.swept.count == 9


def test_parse_reads_only_a_csv_header_as_config():
    # a config that opens with some other 'thermalcast' comment keeps its commented-out settings as comments
    assert parse_config("# thermalcast notes\n# seed=5\n" + GOOD_CONFIG) == parse_config(GOOD_CONFIG)
    # a CSV's header is read up to its point count: the table and failed-row lines are not config
    csv = f"{CSV_STAMP}# scenario=basic\n# nu=2\n# sweep=eta_ab:0.01:0.99:99\n# outputs=cmi,discord\n" \
          "# points: 99 failed: 1\n# failed: eta_ab=0.5: reason\neta_ab,cmi,discord\n0.01,1,2\n"
    assert parse_config(csv) == parse_config(GOOD_CONFIG)


def test_parse_g2_needs_seed_and_accepts_samples():
    text = GOOD_CONFIG.replace("outputs=cmi,discord", "outputs=g2\nseed=7\nsamples=2000")
    spec = parse_config(text)
    assert spec.seed == 7 and spec.samples == 2000


@pytest.mark.parametrize("text,line,needle", [
    ("scenario=basic\nnu=0.5\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "variance"),
    ("scenario=thermal_channel\neta_th=1.5\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "transmittance"),
    ("scenario=basic\nnu=nan\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "finite"),
    ("scenario=basic\nsweep=nu:2:inf:3\noutputs=cmi", 2, "finite"),
    ("scenario=torus\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 1, "scenario"),
    ("scenario=basic\nnu=2\nnu=3\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 3, "duplicate"),
    ("scenario=basic\ncolour=red\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "unknown key"),
    ("scenario=basic\nnu=abc\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "not a number"),
    ("scenario=basic\njust words\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "key=value"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9\noutputs=cmi", 2, "name:start:stop:count"),
    ("scenario=basic\nsweep=mass:0.1:0.9:9\noutputs=cmi", 2, "unknown parameter"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:1\noutputs=cmi", 2, "count"),
    ("scenario=basic\nsweep=nu:1:5:1\noutputs=cmi", 2, "or 1 where start == stop, got 1"),
    ("scenario=basic\nsweep=nu:5:5:0\noutputs=cmi", 2, "step count must be an integer in [2, 100000], or 1 where"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi\nseed=3", 4, "seed"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=g2", 3, "seed"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi\nsamples=5000", 4, "samples"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=g2\nseed=-1", 4, "non-negative"),
    ("scenario=basic\nnu=2\nsweep=eta_ab:0.1:0.9:9\n# g2 run\noutputs=g2\nseed=1\nsamples=10",
     7, "samples"),
    ("scenario=basic\nnu=2\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi,cmi", 4, "duplicate"),
    ("outputs=cmi\nsweep=eta_ab:0.1:0.9:100001\nscenario=basic", 2, "count"),
    # a CSV whose header was drawn by another generator, and one with the '# key: value' header of older versions
    (f"{CSV_STAMP}# scenario=basic\n# sweep=eta_ab:0.1:0.9:3\n# outputs=g2\n# seed=1\n# samples=1000\n"
     "# generator=pcg64/v1\n# points: 3 failed: 0\neta_ab,g2\n", 8, "generator: this build draws with sfc64/v7"),
    (f"{CSV_STAMP}# scenario: basic\n# fixed: nu=2\n# sweep: eta_ab:0.1:0.9:3\n# outputs: cmi\n# seed: none\n"
     "# points: 3 failed: 0\neta_ab,cmi\n", 3, "expected key=value, got 'scenario: basic'"),
])
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert needle in str(err.value)


@pytest.mark.parametrize("text", [None, b"scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi"])
def test_parse_refuses_text_that_is_not_a_str(text):
    with pytest.raises(ConfigError, match=f"^config text must be a str, got {type(text).__name__}$") as err:
        parse_config(text)
    assert err.value.line == 0


@pytest.mark.parametrize("scenario,name", [("basic", "eta_th"), ("basic", "v_beta"),
                                           ("thermal_channel", "eta_th_a"), ("thermal_channel", "v_alpha")])
def test_a_parameter_the_scenario_does_not_read_is_refused(scenario, name):
    # it would be ignored: the sweep would write the same row at every point, or physics other than the config's
    message = f"scenario '{scenario}' does not read parameter '{name}'$"
    fixed = {"nu": 2.0, name: 1.0}
    with pytest.raises(UsageError, match=f"^fixed: {message}") as err:
        small_spec(scenario=scenario, fixed=fixed)
    assert err.value.key == name
    with pytest.raises(UsageError, match=f"^sweep: {message}") as err:
        small_spec(scenario=scenario, swept=SweptRange(name, 1.0, 1.0, 3))
    assert err.value.key == "sweep"
    head = f"scenario={scenario}\nnu=2\n"
    with pytest.raises(ConfigError, match=f"^line 3: fixed: {message}"):
        parse_config(head + f"{name}=1\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi")
    with pytest.raises(ConfigError, match=f"^line 4: sweep: {message}"):
        parse_config(head + f"outputs=cmi\nsweep={name}:1:1:3")
    # a name no topology reads keeps its own message
    with pytest.raises(ConfigError, match="^line 3: unknown key 'eta_c'$"):
        parse_config(head + "eta_c=1\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi")


@pytest.mark.parametrize("missing", ["scenario", "sweep", "outputs"])
def test_parse_missing_required_key(missing):
    text = "\n".join(line for line in GOOD_CONFIG.splitlines()
                     if not line.startswith(missing))
    with pytest.raises(ConfigError, match=f"missing required key '{missing}'"):
        parse_config(text)


# ---------------------------------------------------------------------------
# Running


def test_run_sweep_rows_ascend():
    result = run_sweeps([small_spec()])[0]
    swept = result.swept.tolist()
    assert swept == sorted(swept)
    assert len(swept) == len(result.reasons) == 4
    assert result.n_failed == 0
    assert set(result.columns) == {"cmi", "discord"}
    assert all(len(column) == 4 for column in result.columns.values())
    assert np.isfinite(result.columns["cmi"]).all()


def test_run_sweep_descending_range_still_ascends():
    spec = small_spec(swept=SweptRange("eta_ab", 0.8, 0.2, 4))
    result = run_sweeps([spec])[0]
    assert result.swept.tolist() == sorted(result.swept.tolist())
    # same physics as the ascending spec, point by point
    forward = run_sweeps([small_spec()])[0]
    assert result.swept == pytest.approx(forward.swept)
    assert result.columns["cmi"] == pytest.approx(forward.columns["cmi"], abs=1e-12)


def _failing_output(monkeypatch, spec, output, fails, message):
    # wrap the closed-form measures so that output fails with message at each point whose
    # swept value meets fails(value); the points are in ascending order of that value
    real = thermalcast.sweep.pair_measures
    swept = np.sort(spec.swept.values())

    def patched(a, b, c, d, errors):
        cells = real(a, b, c, d, errors)
        for i, value in enumerate(swept):
            if fails(value):
                errors[output][i] = NumericFailureError(message)
                cells[output][i] = math.nan
        return cells

    monkeypatch.setattr(thermalcast.sweep, "pair_measures", patched)


def test_run_sweep_contains_point_failures(monkeypatch):
    spec = small_spec()
    _failing_output(monkeypatch, spec, "cmi", lambda eta: abs(eta - 0.4) < 1e-9, "synthetic disagreement")
    result = run_sweeps([spec])[0]
    assert result.n_failed == 1
    assert not result.all_failed
    assert result.reasons[1] == ("synthetic disagreement",)
    # only the failed output's cell is blanked
    assert math.isnan(result.columns["cmi"][1]) and math.isfinite(result.columns["discord"][1])
    assert result.reasons[0] == result.reasons[2] == ()


def test_failed_outputs_join_their_reasons(monkeypatch):
    spec = small_spec()
    # discord is made to fail first: the reasons still come in output order
    _failing_output(monkeypatch, spec, "discord", lambda eta: abs(eta - 0.4) < 1e-9, "second")
    _failing_output(monkeypatch, spec, "cmi", lambda eta: abs(eta - 0.4) < 1e-9, "first")
    result = run_sweeps([spec])[0]
    assert result.n_failed == 1
    assert result.reasons[1] == ("first", "second")
    assert all(math.isnan(column[1]) for column in result.columns.values())


def test_run_sweep_flags_a_non_finite_cell(monkeypatch):
    # the one check behind the closed forms: a cell that comes out nan or inf fails its row by name
    real = thermalcast.sweep.pair_entries

    def entries(p):
        a, b, c, d = real(p)
        c[:, 2] = np.inf  # an overflow at the third point
        return a, b, c, d

    monkeypatch.setattr(thermalcast.sweep, "pair_entries", entries)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = run_sweeps([small_spec(outputs=("mi", "discord"))])[0]
    assert [bool(why) for why in result.reasons] == [False, False, True, False]
    assert result.reasons[2] == ("mi = inf is not finite", "discord = nan is not finite")
    assert math.isnan(result.columns["mi"][2]) and math.isnan(result.columns["discord"][2])


def _same_bits(together, alone):
    assert together.spec is alone.spec
    assert together.swept.tobytes() == alone.swept.tobytes()
    assert list(together.columns) == list(alone.spec.outputs)
    assert {out: column.tobytes() for out, column in together.columns.items()} == {
        out: column.tobytes() for out, column in alone.columns.items()}
    assert together.reasons == alone.reasons
    assert together.reports == alone.reports


def test_one_pass_per_sample_count_matches_each_sweep_alone(monkeypatch):
    # all 16 preset branches, of all three scenarios, share one pass; then g2 sweeps: two share a pass (same
    # sample count), with a descending range whose streams follow each point's index, and a third samples on its own
    g2 = [small_spec(outputs=("g2", "mi"), seed=5, samples=1000),
          small_spec(outputs=("cmi", "g2"), seed=6, samples=1000, swept=SweptRange("nu", 9.0, 3.0, 3), fixed={}),
          small_spec(outputs=("g2",), seed=5, samples=1200)]
    specs = [spec for name in PRESET_NAMES for _, spec in expand_preset(name)] + g2
    real, passes = thermalcast.sweep.pair_measures, []

    def counted(a, b, c, d, errors):
        passes.append((len(a[0]), sorted(errors)))
        return real(a, b, c, d, errors)

    monkeypatch.setattr(thermalcast.sweep, "pair_measures", counted)
    together = run_sweeps(specs)
    assert passes == [(3 * 99 + 5 * 100 + 8 * 99, ["cmi", "discord", "mi"]), (4 + 3, ["cmi", "mi"])]  # g2 alone: none
    for spec, result in zip(specs, together):
        _same_bits(result, run_sweeps([spec])[0])
    # each g2 point keeps the stream of its index in the range: the descending sweep's rows are points 2, 1, 0
    pairs = np.array([[entry[0] for entry in pair_entries(ScenarioParams(nu=nu, eta_ab=0.5))]
                      for nu in (3.0, 6.0, 9.0)])
    reports = thermalcast.hbt.g2_pairs(pairs, 1000, [(6, 2), (6, 1), (6, 0)], [None] * 3)
    assert together[-2].columns["g2"].tolist() == [report.g2_estimate for report in reports]
    # each row keeps its report; a sweep without g2 keeps none
    assert together[-2].reports == tuple(reports) and all(result.reports == () for result in together[:16])


def test_a_pass_names_each_failure_only_in_its_own_sweep(monkeypatch):
    # fig3 (cmi, mi, discord) and fig4 (cmi, discord) share one basic pass: rows 0-98 and 99-197.
    # Every output fails on both sides of the boundary, and mi alone at fig4's second point
    real = thermalcast.sweep.pair_measures
    failing = {"cmi": (98, 99), "mi": (98, 99, 100), "discord": (98, 99)}

    def patched(a, b, c, d, errors):
        cells = real(a, b, c, d, errors)
        for out, rows in failing.items():
            for k in rows:
                errors[out][k] = NumericFailureError(f"{out} fails at row {k} of the pass")
                cells[out][k] = math.nan
        return cells

    monkeypatch.setattr(thermalcast.sweep, "pair_measures", patched)
    [(_, fig3)], [(_, fig4)] = expand_preset("fig3"), expand_preset("fig4")
    three, four = run_sweeps([fig3, fig4])
    assert three.reasons[98] == tuple(f"{out} fails at row 98 of the pass" for out in ("cmi", "mi", "discord"))
    assert four.reasons[0] == ("cmi fails at row 99 of the pass", "discord fails at row 99 of the pass")
    assert four.reasons[1] == ()  # fig4 has no mi column
    assert (three.n_failed, four.n_failed) == (1, 1)
    assert all(math.isnan(column[-1]) for column in three.columns.values())
    assert all(math.isnan(column[0]) for column in four.columns.values())
    assert not any(np.isnan(column[:-1]).any() for column in three.columns.values())
    assert not any(np.isnan(column[1:]).any() for column in four.columns.values())


BRIGHT = json.loads(Path(__file__).with_name("bright_references.json").read_text())


@pytest.mark.parametrize("case", BRIGHT["cases"],
                         ids=lambda case: f"{case['scenario']}-{case['fixed']['nu']:g}")
def test_bright_sweeps_match_fifty_digit_references(case):
    # 50-digit references from the full matrix (tests/make_bright_references.py). 1e-12 relative
    # keeps the 12 digits a CSV prints; 1e-14 bits is a few eps on entropy terms of up to about
    # 20 bits that cancel to a small value
    lines = [f"scenario={case['scenario']}", f"sweep={BRIGHT['sweep']}", "outputs=cmi,mi,discord"]
    result = run_sweeps([parse_config("\n".join(lines + [f"{k}={v!r}" for k, v in case["fixed"].items()]))])[0]
    assert result.n_failed == 0
    refs = np.array(case["cmi_mi_discord"], dtype=float)
    for out, ref in zip(("cmi", "mi", "discord"), refs.T):
        gap = np.abs(result.columns[out] - ref)
        assert np.all(gap <= 1e-12 * np.abs(ref) + 1e-14), (out, result.columns[out], ref)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_a_vacuum_source_shares_exactly_nothing(scenario):
    # nu = 1 with a vacuum idler in the channel: the receivers are uncorrelated (c = 0), so every
    # measure is exactly 0, whatever noise each receiver's own channel adds
    fixed = {"nu": 1.0, "eta_th": 0.6, "eta_th_a": 0.3, "v_alpha": 10.0, "eta_th_b": 0.8, "v_beta": 3.7}
    fixed = {name: value for name, value in fixed.items() if name in SCENARIO_PARAMS[scenario]}
    spec = SweepSpec(scenario=scenario, swept=SweptRange("eta_ab", 0.0, 1.0, 11), fixed=fixed,
                     outputs=("cmi", "mi", "discord"))
    result = run_sweeps([spec])[0]
    assert {out: column.tolist() for out, column in result.columns.items()} == {
        out: [0.0] * 11 for out in ("cmi", "mi", "discord")}


def test_run_sweep_contains_overflowing_points():
    # nu = 1e200 would overflow the EPR correlations; the spec refuses it by name
    with pytest.raises(UsageError, match="^sweep: nu is a variance .* got 1e[+]200$") as caught:
        small_spec(swept=SweptRange("nu", 2.0, 1e200, 2), fixed={})
    assert caught.value.key == "sweep"


def test_run_sweep_contains_numpy_overflow():
    # v_alpha = 1e200 would overflow receiver A's intensities; its line is named
    with pytest.raises(ConfigError, match="^line 4: fixed: v_alpha is a variance .* got 1e[+]200$"):
        parse_config("scenario=full\nsweep=nu:1:2:2\noutputs=cmi,discord,g2\n"
                     "v_alpha=1e200\neta_th_a=0\nseed=0\nsamples=1000\n")


def test_g2_cells_of_an_inconclusive_verdict_are_nan(tmp_path):
    # nu = 1 leaves the receivers in vacuum: g2check calls this inconclusive
    spec = parse_config("scenario=thermal_channel\nsweep=v_th:1:4:4\noutputs=cmi,g2\n"
                        "seed=1\nsamples=1000\n")
    result = run_sweeps([spec])[0]
    assert result.n_failed == 0
    assert np.isnan(result.columns["g2"]).all()
    assert (result.columns["cmi"] == 0.0).all()
    out = tmp_path / "dark.csv"
    emit_csv(result, out)
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert [ln.split(",")[1:] for ln in data] == [["0", "nan"]] * 4


def test_a_g2_pair_that_does_not_factor_fails_only_its_row(tmp_path, monkeypatch):
    # d <= 0 at the second point: its g2 cell is nan with a '# failed:' line, and the other cells are unchanged
    spec = small_spec(outputs=("g2",), seed=11, samples=2000)
    clean = run_sweeps([spec])[0].columns["g2"]
    real = thermalcast.sweep.pair_entries

    def broken(params):
        a, b, c, d = real(params)
        d[0, 1] = -1.0
        return a, b, c, d

    monkeypatch.setattr(thermalcast.sweep, "pair_entries", broken)
    result = run_sweeps([spec])[0]
    assert result.reasons[1] == ("covariance matrix is not positive definite",)
    assert result.n_failed == 1
    assert [report is None for report in result.reports] == [False, True, False, False]
    g2 = result.columns["g2"]
    assert math.isnan(g2[1]) and np.array_equal(np.delete(g2, 1), np.delete(clean, 1))
    out = tmp_path / "failed.csv"
    emit_csv(result, out)
    assert "# failed: eta_ab=0.4: covariance matrix is not positive definite" in out.read_text().splitlines()


def test_g2_sweep_is_repeatable():
    spec = small_spec(outputs=("g2",), seed=123, samples=2000,
                      swept=SweptRange("eta_ab", 0.3, 0.7, 2))
    first = run_sweeps([spec])[0]
    second = run_sweeps([spec])[0]
    assert np.array_equal(first.columns["g2"], second.columns["g2"])
    # distinct points draw from distinct streams
    assert first.columns["g2"][0] != first.columns["g2"][1]


def test_each_point_of_a_descending_g2_sweep_draws_its_key_alone():
    # point j of the range, wherever its row lands, is g2_pairs run alone on the key (seed, j)
    spec = small_spec(outputs=("g2",), seed=6, samples=1000, swept=SweptRange("nu", 9.0, 3.0, 4), fixed={})
    result = run_sweeps([spec])[0]  # rows ascend: nu = 3, 5, 7, 9 are points 3, 2, 1, 0
    for j, nu in enumerate(spec.swept.values()):
        pair = np.array([entry[0] for entry in pair_entries(ScenarioParams(nu=nu))])
        alone = thermalcast.hbt.g2_pairs(pair[None], 1000, [(6, j)], [None])[0]
        assert result.swept[3 - j] == nu and result.columns["g2"][3 - j] == alone.g2_estimate
        assert result.reports[3 - j] == alone


def test_adjacent_points_of_one_seed_draw_uncorrelated_rows(monkeypatch):
    # streams (j, 0) and (j + 1, 0) of one seed must not correlate: two points at the same pair, one block each
    n, drawn, piece_sums = 2 ** 15, [], thermalcast.hbt._piece_sums
    monkeypatch.setattr(thermalcast.hbt, "_piece_sums",
                        lambda vals, *rest: drawn.append(vals[:2].copy()) or piece_sums(vals, *rest))
    run_sweeps([small_spec(outputs=("g2",), seed=0, samples=n, swept=SweptRange("eta_ab", 0.5, 0.5, 2))])
    assert len(drawn) == 2
    corr = np.corrcoef(np.vstack(drawn))  # I_a, I_b of one point, then of the other
    assert np.all(np.abs(corr[:2, 2:]) <= 5.0 / np.sqrt(n))


def test_a_config_seed_outside_the_draws_rule_is_refused_on_its_line(capsys):
    # a sweep config and g2check share one seed rule, an integer in [0, 2^64)
    text = "scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=g2\nseed=18446744073709551616\n"
    message = "seed must be a non-negative integer below 2^64, got 18446744073709551616"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.line, str(err.value)) == (4, f"line 4: seed: {message}")
    assert parse_config(text.replace("18446744073709551616", "18446744073709551615")).seed == 2 ** 64 - 1
    assert main(["g2check", "--seed", "18446744073709551616", "--samples", "1000"]) == 1
    assert capsys.readouterr().err == f"error: seed: {message}\n"


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_g2_sweep_starts_one_pool_for_all_points(cpus, monkeypatch):
    # one pool of _CPUS threads, the caller among them, takes every point's row blocks;
    # the per-point stage started _CPUS - 1 threads for each of the 40 points
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(thermalcast.hbt, "_CPUS", cpus)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    spec = small_spec(scenario="full", fixed={"nu": 5.0}, outputs=("g2",), seed=9, samples=40_000,
                      swept=SweptRange("eta_ab", 0.2, 0.8, 40))
    result = run_sweeps([spec])[0]
    assert result.n_failed == 0
    assert len(started) <= cpus - 1


def test_g2_sweep_csv_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    spec = small_spec(scenario="full", fixed={"nu": 5.0}, outputs=("g2",), seed=3, samples=50_000,
                      swept=SweptRange("eta_ab", 0.2, 0.8, 6))
    tables = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(thermalcast.hbt, "_CPUS", cpus)
        out = tmp_path / f"cpus{cpus}.csv"
        emit_csv(run_sweeps([spec])[0], out)
        tables.append([ln for ln in out.read_text().splitlines() if not ln.startswith("# generated")])
    assert tables[0] == tables[1] == tables[2]


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_layout(tmp_path):
    result = run_sweeps([small_spec()])[0]
    out = tmp_path / "sweep.csv"
    emit_csv(result, out)
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("ascii").splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert meta[0].startswith("# thermalcast ") and meta[1].startswith("# generated: ")
    # the run's config, then the point count and no failed row; no g2, so no seed, sample count or generator
    assert meta[2:] == ["# scenario=basic", "# nu=2", "# sweep=eta_ab:0.2:0.8:4", "# outputs=cmi,discord",
                        "# points: 4 failed: 0"]
    header = lines[len(meta)]
    assert header == "eta_ab,cmi,discord"
    data = lines[len(meta) + 1:]
    assert len(data) == 4
    first = data[0].split(",")
    assert first[0] == "0.2"
    assert float(first[1]) == pytest.approx(result.columns["cmi"][0], rel=1e-11)
    # 12 significant digits survive the trip
    assert len(first[1].replace(".", "").replace("-", "").lstrip("0")) >= 11


def test_emit_csv_names_the_generator_of_a_g2_run(tmp_path):
    spec = small_spec(outputs=("cmi", "g2"), seed=5, samples=1000)
    out = tmp_path / "g2.csv"
    emit_csv(run_sweeps([spec])[0], out)
    lines = out.read_text().splitlines()
    at = lines.index("# samples=1000")
    assert lines[at - 1] == "# seed=5"
    assert lines[at + 1] == f"# generator={thermalcast.hbt.GENERATOR_ID}"
    assert lines[at + 2] == "# points: 4 failed: 0"


def test_emit_csv_names_each_failed_row(tmp_path, monkeypatch):
    spec = small_spec(swept=SweptRange("nu", 2.0, 1e6, 2), fixed={})
    _failing_output(monkeypatch, spec, "cmi", lambda nu: nu > 1e5, "synthetic failure:\nsecond line")
    result = run_sweeps([spec])[0]
    out = tmp_path / "failed.csv"
    emit_csv(result, out)
    lines = out.read_text().splitlines()
    failed = [ln for ln in lines if ln.startswith("# failed:")]
    assert failed == ["# failed: nu=1000000: synthetic failure: second line"]
    assert lines.index(failed[0]) == lines.index("# points: 2 failed: 1") + 1
    assert lines[-3] == "nu,cmi,discord"
    nu, cmi, discord = lines[-1].split(",")
    assert (nu, cmi) == ("1000000", "nan") and math.isfinite(float(discord))


def test_emit_csv_metadata_keeps_every_digit(tmp_path):
    # the inputs read back exactly, 17 digits and all; the table keeps twelve
    spec = parse_config("scenario=basic\nnu=7.234987234987234\nsweep=eta_ab:0.1234567890123456:0.9:2\n"
                        "outputs=cmi\n")
    out = tmp_path / "digits.csv"
    emit_csv(run_sweeps([spec])[0], out)
    lines = out.read_text().splitlines()
    assert "# nu=7.234987234987234" in lines
    assert "# sweep=eta_ab:0.1234567890123456:0.9:2" in lines
    assert lines[-2].startswith("0.123456789012,")
    assert parse_config(out.read_text()) == spec


def test_emit_csv_is_stable_across_runs(tmp_path):
    spec = small_spec()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweeps([spec])[0], a)
    emit_csv(run_sweeps([spec])[0], b)
    keep = [ln for ln in a.read_text().splitlines() if not ln.startswith("# generated")]
    other = [ln for ln in b.read_text().splitlines() if not ln.startswith("# generated")]
    assert keep == other


def test_emit_csv_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "run.csv"
    out.write_text("old table\n")

    class FailsHalfway:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[:len(text) // 2])
            raise OSError("disk full")

    def failing_open(*args, **kwargs):
        return FailsHalfway(open(*args, **kwargs))

    monkeypatch.setattr(thermalcast.sweep, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        emit_csv(run_sweeps([small_spec()])[0], out)
    assert out.read_text() == "old table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_emit_csv_refuses_empty(tmp_path):
    result = run_sweeps([small_spec()])[0]
    empty = type(result)(spec=result.spec, swept=np.empty(0),
                         columns={out: np.empty(0) for out in result.columns}, reasons=())
    with pytest.raises(UsageError):
        emit_csv(empty, tmp_path / "never.csv")


@pytest.mark.parametrize("call, message", [
    (lambda path: run_sweeps([{}])[0], "specs must be a list of SweepSpec, got list of dict"),
    (lambda path: run_sweeps(None), "specs must be a list of SweepSpec, got NoneType"),
    (lambda path: run_sweeps(small_spec()), "specs must be a list of SweepSpec, got SweepSpec"),
    (lambda path: emit_csv(None, path), "result must be a SweepResult, got NoneType"),
])
def test_sweep_path_names_a_wrong_type(call, message, tmp_path):
    # each used to end in an AttributeError or TypeError far from the argument
    with pytest.raises(UsageError, match=f"^{message}$"):
        call(tmp_path / "never.csv")
    assert list(tmp_path.iterdir()) == []


def test_emit_csv_from_columns_matches_the_per_row_text(tmp_path):
    # the data rows come from one format over the columns; each cell must read as
    # f"{value:.12g}" of its value, the text every earlier table was written in
    ties = [100000000000.5, 100000000001.5, 0.1234567890125, -2.5e-7, 999999999999.5]
    special = [math.nan, -0.0, 0.0, 1e-300, 1e308, -1e308, math.inf, 5e-324]
    rng = np.random.default_rng(20)
    drawn = (rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)).tolist()
    cells = np.array(ties + special + drawn + [1.0, 2.0, 3.0])
    n = len(cells) // 2
    spec = small_spec()
    reasons = [()] * n
    reasons[3] = ("first", "second\nline")
    result = thermalcast.SweepResult(spec=spec, swept=np.linspace(0.2, 0.8, n),
                                     columns={"cmi": cells[:n], "discord": cells[n:]},
                                     reasons=tuple(reasons))
    out = tmp_path / "columns.csv"
    emit_csv(result, out)
    lines = out.read_text().splitlines()
    columns = [result.columns[o].tolist() for o in spec.outputs]
    expected = [",".join(f"{v:.12g}" for v in [value] + [column[i] for column in columns])
                for i, value in enumerate(result.swept.tolist())]
    assert lines[-n:] == expected
    assert lines[-n - 1] == "eta_ab,cmi,discord"
    assert [lines[-n + i].split(",")[1] for i in (5, 6, 8)] == ["nan", "-0", "1e-300"]
    failed = [ln for ln in lines if ln.startswith("# failed:")]
    assert failed == [f"# failed: eta_ab={result.swept[3]:.12g}: first; second line"]
    assert f"# points: {n} failed: 1" in lines


def test_emit_csv_marks_failures_as_nan(tmp_path, monkeypatch):
    spec = small_spec(outputs=("cmi",))
    _failing_output(monkeypatch, spec, "cmi", lambda value: True, "synthetic")
    result = run_sweeps([spec])[0]
    assert result.all_failed
    out = tmp_path / "failed.csv"
    emit_csv(result, out)
    lines = out.read_text().splitlines()
    assert "# points: 4 failed: 4" in lines
    assert lines[-1].endswith(",nan")


# ---------------------------------------------------------------------------
# Presets


def test_presets_cover_the_reference_figures():
    fig3 = expand_preset("fig3")
    assert [tag for tag, _ in fig3] == [""]
    spec3 = fig3[0][1]
    assert spec3.scenario == "basic" and spec3.fixed == {"nu": 1.0}
    assert spec3.outputs == ("cmi", "mi", "discord")
    assert spec3.swept == SweptRange("eta_ab", 0.01, 0.99, 99)

    assert expand_preset("fig4")[0][1].fixed == {"nu": 2.0}
    assert expand_preset("fig5")[0][1].fixed == {"nu": 1040.0}

    fig6 = expand_preset("fig6")
    assert [tag for tag, _ in fig6] == ["vth1", "vth2", "vth10", "vth100", "vth500"]
    for tag, spec in fig6:
        assert spec.scenario == "thermal_channel"
        assert spec.swept == SweptRange("eta_th", 0.01, 1.0, 100)
        assert spec.fixed["nu"] == 2.0 and spec.fixed["eta_ab"] == 0.5
        assert spec.outputs == ("cmi", "discord")

    for name, output in (("fig7", "cmi"), ("fig8", "discord")):
        preset = expand_preset(name)
        assert [tag for tag, _ in preset] == ["nu1_v1", "nu2_v1", "nu1_v10", "nu2_v10"]
        for _, spec in preset:
            assert spec.scenario == "full"
            assert spec.outputs == (output,)
            assert spec.fixed["eta_th_a"] == 0.3 and spec.fixed["eta_th_b"] == 0.3
            assert spec.fixed["v_alpha"] == spec.fixed["v_beta"]


def test_unknown_preset():
    with pytest.raises(UsageError):
        expand_preset("fig9")
