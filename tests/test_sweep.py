"""Sweep specs, config parsing, CSV emission and figure presets."""
import math

import numpy as np
import pytest

import thermalcast.sweep
from thermalcast import (ConfigError, NumericFailureError, SweepSpec,
                         SweptRange, UsageError, emit_csv, expand_preset,
                         parse_config, run_sweep)

GOOD_CONFIG = """\
scenario=basic
nu=2
sweep=eta_ab:0.01:0.99:99
outputs=cmi,discord
"""


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
])
def test_spec_validation_names_the_field(overrides, field):
    with pytest.raises(UsageError, match=f"^{field}"):
        small_spec(**overrides)


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


def test_parse_g2_needs_seed_and_accepts_samples():
    text = GOOD_CONFIG.replace("outputs=cmi,discord", "outputs=g2\nseed=7\nsamples=2000")
    spec = parse_config(text)
    assert spec.seed == 7 and spec.samples == 2000


@pytest.mark.parametrize("text,line,needle", [
    ("scenario=basic\nnu=0.5\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "variance"),
    ("scenario=basic\neta_th=1.5\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi", 2, "transmittance"),
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
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi\nseed=3", 4, "seed"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=g2", 3, "seed"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=cmi\nsamples=5000", 4, "samples"),
    ("scenario=basic\nsweep=eta_ab:0.1:0.9:9\noutputs=g2\nseed=-1", 4, "non-negative"),
])
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert needle in str(err.value)


@pytest.mark.parametrize("missing", ["scenario", "sweep", "outputs"])
def test_parse_missing_required_key(missing):
    text = "\n".join(line for line in GOOD_CONFIG.splitlines()
                     if not line.startswith(missing))
    with pytest.raises(ConfigError, match=f"missing required key '{missing}'"):
        parse_config(text)


# ---------------------------------------------------------------------------
# Running


def test_run_sweep_rows_ascend():
    result = run_sweep(small_spec())
    swept = [row.swept_value for row in result.rows]
    assert swept == sorted(swept)
    assert len(result.rows) == 4
    assert result.n_failed == 0
    for row in result.rows:
        assert set(row.values) == {"cmi", "discord"}
        assert math.isfinite(row.values["cmi"])


def test_run_sweep_descending_range_still_ascends():
    spec = small_spec(swept=SweptRange("eta_ab", 0.8, 0.2, 4))
    rows = run_sweep(spec).rows
    assert [row.swept_value for row in rows] == sorted(r.swept_value for r in rows)
    # same physics as the ascending spec, point by point
    forward = run_sweep(small_spec()).rows
    for got, want in zip(rows, forward):
        assert got.swept_value == pytest.approx(want.swept_value)
        assert got.values["cmi"] == pytest.approx(want.values["cmi"], abs=1e-12)


def test_run_sweep_contains_point_failures(monkeypatch):
    real = thermalcast.sweep.conditional_mutual_information

    def trips_on_second_point(state, partition):
        # receiver B carries variance 1 + eta for nu = 2; single out eta = 0.4
        if abs(state.data[2, 2] - 1.4) < 1e-9:
            raise NumericFailureError("synthetic disagreement")
        return real(state, partition)

    monkeypatch.setattr(thermalcast.sweep, "conditional_mutual_information",
                        trips_on_second_point)
    result = run_sweep(small_spec())
    assert result.n_failed == 1
    assert not result.all_failed
    bad = result.rows[1]
    assert bad.status.startswith("failed:")
    assert math.isnan(bad.values["cmi"]) and math.isnan(bad.values["discord"])
    assert result.rows[0].ok and result.rows[2].ok


def test_run_sweep_contains_overflowing_points():
    # nu = 1e200 is finite, but its EPR correlations overflow to inf/nan
    result = run_sweep(small_spec(swept=SweptRange("nu", 2.0, 1e200, 2), fixed={}))
    good, bad = result.rows
    assert good.ok and math.isfinite(good.values["discord"])
    assert bad.status.startswith("failed:")
    assert math.isnan(bad.values["cmi"]) and math.isnan(bad.values["discord"])


def test_g2_cells_of_an_inconclusive_verdict_are_nan(tmp_path):
    # nu = 1 leaves the receivers in vacuum: g2check calls this inconclusive
    spec = parse_config("scenario=basic\nsweep=v_th:1:4:4\noutputs=cmi,g2\n"
                        "seed=1\nsamples=1000\n")
    result = run_sweep(spec)
    assert result.n_failed == 0
    assert all(math.isnan(row.values["g2"]) for row in result.rows)
    assert all(row.values["cmi"] == 0.0 for row in result.rows)
    out = tmp_path / "dark.csv"
    emit_csv(result, out)
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert [ln.split(",")[1:] for ln in data] == [["0", "nan"]] * 4


def test_g2_sweep_is_repeatable():
    spec = small_spec(outputs=("g2",), seed=123, samples=2000,
                      swept=SweptRange("eta_ab", 0.3, 0.7, 2))
    first = run_sweep(spec)
    second = run_sweep(spec)
    for a, b in zip(first.rows, second.rows):
        assert a.values["g2"] == b.values["g2"]
    # distinct points draw from distinct streams
    assert first.rows[0].values["g2"] != first.rows[1].values["g2"]


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_layout(tmp_path):
    result = run_sweep(small_spec())
    out = tmp_path / "sweep.csv"
    emit_csv(result, out)
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("ascii").splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert meta[0].startswith("# thermalcast ")
    assert any(ln == "# scenario: basic" for ln in meta)
    assert any(ln == "# fixed: nu=2" for ln in meta)
    assert any(ln == "# sweep: eta_ab:0.2:0.8:4" for ln in meta)
    assert any(ln == "# points: 4 failed: 0" for ln in meta)
    assert not any(ln.startswith("# failed:") for ln in meta)
    header = lines[len(meta)]
    assert header == "eta_ab,cmi,discord"
    data = lines[len(meta) + 1:]
    assert len(data) == 4
    first = data[0].split(",")
    assert first[0] == "0.2"
    assert float(first[1]) == pytest.approx(result.rows[0].values["cmi"], rel=1e-11)
    # 12 significant digits survive the trip
    assert len(first[1].replace(".", "").replace("-", "").lstrip("0")) >= 11


def test_emit_csv_names_each_failed_row(tmp_path):
    result = run_sweep(small_spec(swept=SweptRange("nu", 2.0, 1e200, 2), fixed={}))
    out = tmp_path / "overflow.csv"
    emit_csv(result, out)
    lines = out.read_text().splitlines()
    failed = [ln for ln in lines if ln.startswith("# failed:")]
    assert failed == ["# failed: nu=1e+200: covariance overflowed: "
                      "the matrix has non-finite entries"]
    assert lines.index(failed[0]) == lines.index("# points: 2 failed: 1") + 1
    assert lines[-3] == "nu,cmi,discord"
    assert lines[-1] == "1e+200,nan,nan"


def test_emit_csv_is_stable_across_runs(tmp_path):
    spec = small_spec()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(spec), a)
    emit_csv(run_sweep(spec), b)
    keep = [ln for ln in a.read_text().splitlines() if not ln.startswith("# generated")]
    other = [ln for ln in b.read_text().splitlines() if not ln.startswith("# generated")]
    assert keep == other


def test_emit_csv_refuses_empty(tmp_path):
    result = run_sweep(small_spec())
    empty = type(result)(spec=result.spec, rows=())
    with pytest.raises(UsageError):
        emit_csv(empty, tmp_path / "never.csv")


def test_emit_csv_marks_failures_as_nan(tmp_path, monkeypatch):
    def always_fails(state, partition):
        raise NumericFailureError("synthetic")

    monkeypatch.setattr(thermalcast.sweep, "conditional_mutual_information", always_fails)
    result = run_sweep(small_spec(outputs=("cmi",)))
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
    assert [tag for tag, _ in fig3.branches] == [""]
    spec3 = fig3.branches[0][1]
    assert spec3.scenario == "basic" and spec3.fixed == {"nu": 1.0}
    assert spec3.outputs == ("cmi", "mi", "discord")
    assert spec3.swept == SweptRange("eta_ab", 0.01, 0.99, 99)

    assert expand_preset("fig4").branches[0][1].fixed == {"nu": 2.0}
    assert expand_preset("fig5").branches[0][1].fixed == {"nu": 1040.0}

    fig6 = expand_preset("fig6")
    assert [tag for tag, _ in fig6.branches] == ["vth1", "vth2", "vth10", "vth100", "vth500"]
    for tag, spec in fig6.branches:
        assert spec.scenario == "thermal_channel"
        assert spec.swept == SweptRange("eta_th", 0.01, 1.0, 100)
        assert spec.fixed["nu"] == 2.0 and spec.fixed["eta_ab"] == 0.5
        assert spec.outputs == ("cmi", "discord")

    for name, output in (("fig7", "cmi"), ("fig8", "discord")):
        preset = expand_preset(name)
        assert [tag for tag, _ in preset.branches] == ["nu1_v1", "nu2_v1", "nu1_v10", "nu2_v10"]
        for _, spec in preset.branches:
            assert spec.scenario == "full"
            assert spec.outputs == (output,)
            assert spec.fixed["eta_th_a"] == 0.3 and spec.fixed["eta_th_b"] == 0.3
            assert spec.fixed["v_alpha"] == spec.fixed["v_beta"]


def test_unknown_preset():
    with pytest.raises(UsageError):
        expand_preset("fig9")
