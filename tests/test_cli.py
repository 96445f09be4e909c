"""Command-line behavior: exit codes, file outputs, report text."""
import pytest

import thermalcast.cli
from thermalcast import SweepResult
from thermalcast.cli import main

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


def test_g2check_reports_thermal(capsys):
    code = main(["g2check", "--scenario", "basic", "--nu", "10",
                 "--samples", "20000", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: thermal" in out
    assert "g2 analytic: 2" in out
    assert "generator: philox4x64/v2" in out
    assert "params: nu=10" in out


def test_g2check_coherent_source_is_inconclusive(capsys):
    code = main(["g2check", "--samples", "2000", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    assert "g2 analytic: undefined" in out


def test_g2check_rejects_tiny_sample_count(capsys):
    assert main(["g2check", "--samples", "50", "--seed", "4"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("nu", ["inf", "nan", "1e308"])
def test_g2check_non_finite_or_overflowing_nu_exits_one(nu, capsys):
    assert main(["g2check", "--nu", nu, "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_all_failed_sweep_exits_two(tmp_path, monkeypatch, capsys):
    real_run = thermalcast.cli.run_sweep

    def all_failed(spec):
        result = real_run(spec)
        doomed = tuple(type(row)(swept_value=row.swept_value,
                                 values={k: float("nan") for k in row.values},
                                 status="failed: synthetic")
                       for row in result.rows)
        return SweepResult(spec=result.spec, rows=doomed)

    monkeypatch.setattr(thermalcast.cli, "run_sweep", all_failed)
    cfg = write_config(tmp_path)
    out = tmp_path / "doomed.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert out.exists()  # the table is still written for post-mortem
    capsys.readouterr()
