"""Command-line behavior: exit codes, file outputs, report text."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermalcast.cli
import thermalcast.hbt
from thermalcast import ScenarioParams, SweepResult, build_scenario, g2_analytic
from thermalcast.cli import main
from thermalcast.scenarios import pair_entries

CONFIG = """\
scenario=basic
nu=2
sweep=eta_ab:0.2:0.8:4
outputs=cmi,discord
"""


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return path


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert "eta_ab,cmi,discord" in lines


def test_sweep_bad_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG.replace("nu=2", "nu=0.5"))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:")
    assert "variance" in err


def test_sweep_missing_file_exits_one(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit_one(capsys):
    assert main(["sweep", "--config"]) == 1
    assert main(["figure", "--name", "fig99", "--out-dir", "."]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "thermalcast" in capsys.readouterr().out


def test_figure_writes_branch_files(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["figure", "--name", "fig3", "--out-dir", str(out_dir)]) == 0
    target = out_dir / "fig3.csv"
    assert target.exists()
    lines = target.read_text().splitlines()
    assert "eta_ab,cmi,mi,discord" in lines
    assert sum(1 for ln in lines if not ln.startswith("#")) == 100  # header + 99 points
    assert capsys.readouterr().out.count("wrote") == 1


def test_figure_multi_branch_names(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["figure", "--name", "fig6", "--out-dir", str(out_dir)]) == 0
    for tag in ("vth1", "vth2", "vth10", "vth100", "vth500"):
        assert (out_dir / f"fig6_{tag}.csv").exists()
    assert capsys.readouterr().out.count("wrote") == 5


def test_figure_checks_each_branch_as_one_stack(tmp_path, monkeypatch, capsys):
    # fig6 is 5 branches of 100 points; a per-point path solves 500 times
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    assert main(["figure", "--name", "fig6", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("wrote") == 5
    # every output of every branch is a closed form in the pair's entries: no eigensolve at all
    assert calls == []


def _tables(out_dir):
    # every CSV of a directory without its timestamp line
    return {path.name: [ln for ln in path.read_text().splitlines() if not ln.startswith("# generated")]
            for path in sorted(out_dir.glob("*.csv"))}


def test_figure_all_matches_separate_runs(tmp_path, capsys):
    together, apart = tmp_path / "together", tmp_path / "apart"
    assert main(["figure", "--name", "all", "--out-dir", str(together)]) == 0
    assert capsys.readouterr().out.count("wrote") == 16
    for name in thermalcast.cli.PRESET_NAMES:
        assert main(["figure", "--name", name, "--out-dir", str(apart)]) == 0
    capsys.readouterr()
    assert len(_tables(together)) == 16
    assert _tables(together) == _tables(apart)
    # a repeated name runs once; the presets of one scenario share a pass whatever their order, and the
    # files are written in the order the names came
    names = ["fig8", "fig4", "fig3", "fig7", "fig4"]
    assert main(["figure", "--name", *names, "--out-dir", str(tmp_path / "some")]) == 0
    wrote = [Path(line.split()[1]).name for line in capsys.readouterr().out.splitlines()]
    assert wrote == [f"{name}_{tag}.csv" if tag else f"{name}.csv"
                     for name in dict.fromkeys(names) for tag, _ in thermalcast.cli.expand_preset(name)]
    assert len(wrote) == 10
    assert _tables(tmp_path / "some") == {k: v for k, v in _tables(apart).items() if k in wrote}


def test_figure_unknown_name_in_a_list_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["figure", "--name", "fig3", "fig99", "--out-dir", str(out_dir)]) == 1
    assert "fig99" in capsys.readouterr().err
    assert not out_dir.exists()


def test_figure_exits_two_only_when_every_named_preset_failed(tmp_path, monkeypatch, capsys):
    real_run = thermalcast.cli.run_sweeps

    def fail(result):
        n = len(result.swept)
        return SweepResult(spec=result.spec, swept=result.swept,
                           columns={k: np.full(n, np.nan) for k in result.columns}, reasons=(("synthetic",),) * n)

    def basic_fails(specs):  # figure evaluates all its branches in one call
        return [fail(result) if result.spec.scenario == "basic" else result for result in real_run(specs)]

    monkeypatch.setattr(thermalcast.cli, "run_sweeps", basic_fails)
    # fig3 and fig4 are basic broadcasts, fig6 a thermal channel
    assert main(["figure", "--name", "fig3", "fig6", "--out-dir", str(tmp_path)]) == 0
    assert main(["figure", "--name", "fig3", "fig4", "--out-dir", str(tmp_path)]) == 2
    assert "# points: 99 failed: 99" in (tmp_path / "fig4.csv").read_text().splitlines()
    capsys.readouterr()


def test_g2check_reports_thermal(capsys):
    code = main(["g2check", "--scenario", "basic", "--nu", "10",
                 "--samples", "20000", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: thermal" in out
    assert "g2 analytic: 2" in out
    assert "generator: sfc64/v6" in out
    assert "params: nu=10" in out


def test_g2check_samples_the_pair_kernel_at_its_parameters(capsys):
    # the estimate is the pair kernel's on the topology's (a, b, c, d); the exact value comes from the built state
    argv = ["--scenario", "full", "--nu", "5", "--eta-th", "0.8", "--v-th", "2", "--eta-th-a", "0.9",
            "--v-alpha", "1.5", "--samples", "5000", "--seed", "3"]
    assert main(["g2check"] + argv) == 0
    out = capsys.readouterr().out
    params = ScenarioParams(nu=5.0, eta_th=0.8, v_th=2.0, eta_th_a=0.9, v_alpha=1.5)
    pair = np.array([entry[0] for entry in pair_entries("full", params)])
    report = thermalcast.hbt.g2_pairs(pair[None], 5000, [3], [None])[0]
    assert f"g2 estimate: {report.g2_estimate:.6g} +/- {report.std_error:.3g} (5000 samples" in out
    state = build_scenario("full", params)
    exact = g2_analytic(state.state, state.mode_index("A"), state.mode_index("B"))
    assert f"g2 analytic: {exact:.6g}\n" in out
    assert f"verdict: {report.verdict}\n" in out


def test_g2check_coherent_source_is_inconclusive(capsys):
    code = main(["g2check", "--samples", "2000", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    assert "g2 analytic: undefined" in out


def test_g2check_prints_nan_for_an_inconclusive_estimate(capsys):
    # a vacuum source: the ratio of two noise means is no g2 value, so the estimate reads nan, as a sweep writes it
    assert main(["g2check", "--seed", "4", "--samples", "2000"]) == 0
    pair = np.array([entry[0] for entry in pair_entries("basic", ScenarioParams())])
    report = thermalcast.hbt.g2_pairs(pair[None], 2000, [4], [None])[0]
    assert report.verdict == "inconclusive" and np.isfinite(report.g2_estimate)
    assert f"g2 estimate: nan +/- {report.std_error:.3g} (2000 samples, jackknife)\n" in capsys.readouterr().out


def test_g2check_rejects_tiny_sample_count(capsys):
    assert main(["g2check", "--samples", "50", "--seed", "4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_g2check_caps_the_sample_count(capsys):
    assert main(["g2check", "--samples", "10000000000000", "--seed", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: need 2 to 10000000 samples")


@pytest.mark.parametrize("old,new,line,needle", [
    ("sweep=eta_ab:0.2:0.8:4", "sweep=eta_ab:0.2:0.8:10000000000000", 3, "step count"),
    ("outputs=cmi,discord", "outputs=g2\nseed=1\nsamples=10000000000000", 6, "samples"),
])
def test_sweep_caps_are_config_errors(tmp_path, capsys, old, new, line, needle):
    cfg = write_config(tmp_path, CONFIG.replace(old, new))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert needle in err
    assert not out.exists()


@pytest.mark.parametrize("nu", ["inf", "nan", "1e308"])
def test_g2check_non_finite_or_overflowing_nu_exits_one(nu, capsys):
    assert main(["g2check", "--nu", nu, "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_g2check_accepts_a_bright_source(capsys):
    # a pure state at nu = 3000 once failed the symplectic check by rounding
    assert main(["g2check", "--nu", "3000", "--eta-ab", "0.5", "--seed", "1",
                 "--samples", "2000"]) == 0
    assert "verdict: thermal" in capsys.readouterr().out


@pytest.mark.parametrize("argv,name", [
    (["--scenario", "full", "--v-alpha", "1e200", "--eta-th-a", "0", "--samples", "2000"],
     "v_alpha"),
    (["--scenario", "thermal_channel", "--v-th", "1e308", "--eta-th", "0.5"], "v_th"),
])
def test_g2check_names_a_variance_above_the_ceiling(argv, name, capsys):
    assert main(["g2check", "--seed", "1"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} is a variance and must be <= 1e+06 SNU")
    assert captured.out == ""


def test_all_failed_sweep_exits_two(tmp_path, monkeypatch, capsys):
    real_run = thermalcast.cli.run_sweeps

    def all_failed(specs):  # the sweep command evaluates through the same call as figure
        [result] = real_run(specs)
        n = len(result.swept)
        return [SweepResult(spec=result.spec, swept=result.swept,
                            columns={k: np.full(n, np.nan) for k in result.columns},
                            reasons=(("synthetic",),) * n)]

    monkeypatch.setattr(thermalcast.cli, "run_sweeps", all_failed)
    cfg = write_config(tmp_path)
    out = tmp_path / "doomed.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert out.exists()  # the table is still written for post-mortem
    capsys.readouterr()


def _loaded_after(command, module):
    # whether running ``command`` in a fresh interpreter that imported thermalcast.cli loads ``module``
    src = str(Path(thermalcast.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import sys, thermalcast.cli; {command}; print({module!r} in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()[-1] == "True"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # every command pays its import; concurrent.futures alone adds 5-8 ms to that
    assert not _loaded_after("pass", "concurrent.futures")


def test_g2check_leaves_numpy_ma_unloaded():
    # a process's first np.unique (np.union1d calls it) imports numpy.ma: 9-18 ms and 1.3 MB per g2 run
    assert not _loaded_after("thermalcast.cli.main(['g2check', '--seed', '1', '--samples', '1000'])", "numpy.ma")
