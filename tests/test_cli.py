"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qam_mppm
from qam_mppm.cli import complexity_report, main


def _write_cfg(tmp_path, **over):
    vals = {
        "mode": "ebn0",
        "grid.start": "6",
        "grid.stop": "6",
        "grid.step": "1",
        "sys.N": "12",
        "sys.w": "6",
        "sys.nQ": "4",
        "sys.m": "0.5",
        "detectors": "imd",
        "methods": "ni",
        "sim.trials": "3000",
        "sim.seed": "5",
        "out.csv": str(tmp_path / "out.csv"),
    }
    vals.update(over)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in vals.items()), encoding="utf-8")
    return cfg


def test_sweep_success(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = capsys.readouterr()
    assert "wrote" in out.out
    assert (tmp_path / "out.csv").exists()


def test_sweep_cli_overrides(tmp_path):
    cfg = _write_cfg(tmp_path)
    alt = tmp_path / "alt.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(alt),
                 "--trials", "2000", "--seed", "9"]) == 0
    assert alt.exists()


def test_sweep_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **{"sys.m": "7"})
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_bad_values_reported_together(tmp_path):
    """Unparsable rate and worker count plus an out-of-range nQ: exit 2 with
    one diagnostic each and no traceback."""
    cfg = _write_cfg(tmp_path, **{"sys.Rb": "fast", "sim.workers": "two", "sys.nQ": "12"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 3, proc.stderr
    assert any("sys.Rb" in ln for ln in errors)
    assert any("sim.workers" in ln for ln in errors)
    assert any("sys.nQ" in ln for ln in errors)
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("over, env, keys", [
    ({"sim.workers": "-2"}, {}, ("sys.Rb", "sim.workers")),
    ({}, {"QAM_MPPM_MAX_WORKERS": "two"}, ("sys.Rb", "QAM_MPPM_MAX_WORKERS")),
    ({}, {"QAM_MPPM_MAX_WORKERS": "-3"}, ("sys.Rb", "QAM_MPPM_MAX_WORKERS")),
], ids=["config", "environment", "environment-negative"])
def test_sweep_bad_workers_and_rate_reported_together(tmp_path, over, env, keys):
    """A zero popt bit rate plus a bad worker count from the config or the
    environment: exit 2 with one diagnostic each, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"mode": "popt", "grid.start": "-30", "grid.stop": "-30",
                                  "sys.Rb": "0", **over})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]), **env)
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == len(keys), proc.stderr
    for key in keys:
        assert any(key in ln for ln in errors), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_non_finite_grid_reported_together(tmp_path):
    """Non-finite grid values plus an out-of-range nQ: exit 2 with one
    diagnostic each, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"grid.start": "nan", "grid.stop": "inf",
                                  "grid.step": "nan", "sys.nQ": "12"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 4, proc.stderr
    for key in ("grid.start", "grid.stop", "grid.step", "sys.nQ"):
        assert any(key in ln for ln in errors), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_oversized_grid_reported_together(tmp_path):
    """A grid of more points than a sweep allows plus an out-of-range nQ:
    exit 2 with one diagnostic each, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"grid.start": "0", "grid.stop": "1e300",
                                  "grid.step": "1", "sys.nQ": "12"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 2, proc.stderr
    assert any("grid has 1e+300 points" in ln for ln in errors), proc.stderr
    assert any("sys.nQ" in ln for ln in errors), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_rank_capacity_exit_code(tmp_path):
    """A code whose weight-w universe reaches 2^63 cannot be ranked in
    64-bit integers: exit 3 naming the limit, no traceback, no CSV. A code
    just inside the limit, whose partial rank sums are larger, runs."""
    cfg = _write_cfg(tmp_path, **{"sys.N": "100", "sys.w": "50", "detectors": "cmd",
                                  "methods": "", "sim.workers": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "2^63" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()
    cfg = _write_cfg(tmp_path, **{"sys.N": "70", "sys.w": "67", "detectors": "cmd",
                                  "methods": "", "sim.trials": "1000", "sim.workers": "1"})
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").exists()


def test_sweep_capacity_limit_exit_code(tmp_path):
    """Analytic methods on a code too large for its support table: exit 3
    naming the 2^20 limit, no traceback, no CSV. The simulation alone runs."""
    cfg = _write_cfg(tmp_path, **{"sys.N": "40", "sys.w": "10", "detectors": "cmd",
                                  "methods": "sa", "sim.workers": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "2^20" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()
    cfg = _write_cfg(tmp_path, **{"sys.N": "40", "sys.w": "10", "detectors": "cmd",
                                  "methods": "", "sim.workers": "1"})
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").exists()


def test_sweep_union_bound_capacity_exit_code(tmp_path):
    """The union bound on a code of more than 8192 patterns: exit 3 naming
    the limit, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"sys.N": "32", "sys.w": "6", "methods": "ub",
                                  "sim.workers": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "8192" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_numeric_failure_leaves_no_partial_csv(tmp_path):
    """A point that fails its quadrature (the -30 dBm point of the bundled
    popt_12_6_16qam config) leaves no CSV, and a CSV already at the output
    path keeps its bytes."""
    cfg = _write_cfg(tmp_path, **{"mode": "popt", "grid.start": "-30", "grid.stop": "-30",
                                  "grid.step": "0.5", "sys.Rb": "50e6", "detectors": "cmd",
                                  "methods": "ja", "sim.trials": "1000", "sim.workers": "1",
                                  "out.plot": str(tmp_path / "out.gp")})
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]
    out.write_bytes(b"previous,run\n")
    assert main(["sweep", "--config", str(cfg)]) == 3
    assert out.read_bytes() == b"previous,run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "sweep.cfg"]


def test_sweep_out_relocates_plot_script(tmp_path, monkeypatch):
    """--out puts a relative out.plot beside the CSV, and the script names
    the CSV relative to itself, so it does not depend on the directory."""
    cfg = _write_cfg(tmp_path, **{"out.plot": "sweep.gp", "sim.trials": "500"})
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    scripts = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name / "r.csv")]) == 0
        scripts.append((tmp_path / name / "sweep.gp").read_bytes())
    assert scripts[0] == scripts[1]
    assert b"'r.csv'" in scripts[0]
    assert list(cwd.iterdir()) == []


def test_sweep_missing_file_exit_code(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_complexity_command(capsys):
    assert main(["complexity", "--N", "12", "--w", "6", "--MQ", "16", "--Ns", "8"]) == 0
    out = capsys.readouterr().out
    assert "CMD" in out and "IMD" in out and "gain" in out


def test_complexity_bad_args(capsys):
    assert main(["complexity", "--N", "12", "--w", "6", "--MQ", "16", "--Ns", "1"]) == 2


@pytest.mark.parametrize("args, problems", [
    (("4", "9", "16", "8"), ["w must be in [1, 3]"]),
    (("-5", "2", "16", "8"), ["N must be >= 2"]),
    (("12", "6", "0", "8"), ["M_Q must be 2^k"]),
    (("12", "0", "12", "1"), ["w must be in [1, 11]", "M_Q must be 2^k", "Nyquist"]),
])
def test_complexity_invalid_code_reported_together(capsys, args, problems):
    """Impossible codes and constellation sizes print no counts; every
    problem is reported at once with exit 2."""
    argv = ["complexity"]
    for flag, val in zip(("--N", "--w", "--MQ", "--Ns"), args):
        argv += [flag, val]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert all(p in out.err for p in problems)
    assert "Traceback" not in out.err


def test_complexity_report_table():
    text = complexity_report(12, 6, 16, 8)
    assert "input filter" in text
    assert "total" in text


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        main([])
