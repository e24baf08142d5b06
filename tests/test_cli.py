"""Unit tests for the command-line interface."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qam_mppm
from qam_mppm import cli, mppm, sweep
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


@pytest.mark.parametrize("over, env, args, keys", [
    ({"sim.workers": "-2"}, {}, (), ("sys.Rb", "sim.workers")),
    ({}, {"QAM_MPPM_MAX_WORKERS": "two"}, (), ("sys.Rb", "QAM_MPPM_MAX_WORKERS")),
    ({}, {"QAM_MPPM_MAX_WORKERS": "-3"}, (), ("sys.Rb", "QAM_MPPM_MAX_WORKERS")),
    ({"sim.workers": "65"}, {}, (), ("sys.Rb", "sim.workers")),
    ({}, {"QAM_MPPM_MAX_WORKERS": "65"}, (), ("sys.Rb", "QAM_MPPM_MAX_WORKERS")),
    ({"sim.seed": "-1"}, {}, (), ("sys.Rb", "sim.seed")),
    ({}, {}, ("--seed", "-1"), ("sys.Rb", "sim.seed")),
    ({"detectors": "imd,cmd,imd", "methods": "ni,ub,ni"}, {}, (),
     ("sys.Rb", "detectors", "methods")),
], ids=["config", "environment", "environment-negative", "config-too-many",
        "environment-too-many", "seed-negative",
        "seed-negative-cli", "duplicates"])
def test_sweep_bad_workers_and_rate_reported_together(tmp_path, over, env, args, keys):
    """A zero popt bit rate plus a bad worker count (unparsable, below 1 or
    above the ceiling of 64) from the config or the environment, a negative
    seed from the config or the command line, or duplicate detectors and
    methods: exit 2 with one diagnostic each, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"mode": "popt", "grid.start": "-30", "grid.stop": "-30",
                                  "sys.Rb": "0", **over})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]), **env)
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg),
                           *args], capture_output=True, text=True, env=env, timeout=120)
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


def test_sweep_unknown_and_repeated_keys_reported_together(tmp_path):
    """A misspelt key and a repeated key: exit 2 with one diagnostic each,
    naming both keys, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path)
    with cfg.open("a", encoding="utf-8") as fh:
        fh.write("methds = ja\nsim.trials = 5000\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 2, proc.stderr
    assert any("unknown key 'methds'" in ln for ln in errors), proc.stderr
    assert any("key 'sim.trials' is given again" in ln for ln in errors), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_line_and_value_problems_reported_together(tmp_path):
    """A misspelt key, a repeated key, an unknown key and an out-of-range
    value: exit 2 with one diagnostic each, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"sys.nQ": "12"})
    with cfg.open("a", encoding="utf-8") as fh:
        fh.write("methds = ja\nsim.trials = 5000\nsim.worker = 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 4, proc.stderr
    assert any("unknown key 'methds'" in ln for ln in errors), proc.stderr
    assert any("key 'sim.trials' is given again" in ln for ln in errors), proc.stderr
    assert any("unknown key 'sim.worker'" in ln for ln in errors), proc.stderr
    assert any("sys.nQ" in ln for ln in errors), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_line_and_link_problems_reported_together(tmp_path, capsys):
    """An unknown key and a grid point whose noise variance is 0: exit 2 with
    both diagnostics, no CSV."""
    cfg = _write_cfg(tmp_path, **{"grid.start": "4000", "grid.stop": "4000"})
    with cfg.open("a", encoding="utf-8") as fh:
        fh.write("foo = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: line 14: unknown key 'foo'",
        "config error: grid point 4000 dB: sigma2 must be finite and positive, got 0",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("n_q, detectors, methods", [
    ("5", "cmd", "ja"), ("7", "imd", "ni"), ("9", "cmd,imd", "sa,ub"),
])
def test_sweep_methods_refuse_cross_shapes(tmp_path, capsys, n_q, detectors, methods):
    """Analytic methods on a cross-shaped constellation (odd nQ >= 5) plus
    an unknown key: exit 2 with one diagnostic each before any point, and no
    CSV."""
    cfg = _write_cfg(tmp_path, **{"sys.nQ": n_q, "detectors": detectors, "methods": methods})
    with cfg.open("a", encoding="utf-8") as fh:
        fh.write("sim.worker = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: line 14: unknown key 'sim.worker'",
        "config error: methods need a square or rectangular constellation; "
        f"sys.nQ = {n_q} is a cross shape",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_sweep_cross_shape_simulation_only(tmp_path):
    """A cross-shaped constellation without methods is simulated: one row
    per detector with simulated rates and empty analytic columns."""
    cfg = _write_cfg(tmp_path, **{"sys.nQ": "5", "detectors": "cmd,imd", "methods": "",
                                  "sim.trials": "2000", "sim.workers": "1"})
    assert main(["sweep", "--config", str(cfg)]) == 0
    with (tmp_path / "out.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert len(rows) == 2
    for row in rows:
        assert int(row["frames"]) > 0 and float(row["ser_sim"]) > 0.0
        assert all(row[col] == "" for col in row if col.startswith(("pe_", "pb_")))


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


def test_sweep_slot_capacity_exit_code(tmp_path):
    """A code of more slots than int16 supports can index: exit 3 naming the
    limit, no traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"sys.N": "40000", "sys.w": "2", "detectors": "cmd",
                                  "methods": "", "sim.workers": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "N <= 32767" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_rank_table_capacity_exit_code(tmp_path):
    """A code that passes the slot and rank limits but whose rank table
    would hold 2^30 entries, (32767, 32766): exit 3 naming the limit, no
    traceback, no CSV."""
    cfg = _write_cfg(tmp_path, **{"sys.N": "32767", "sys.w": "32766", "detectors": "cmd",
                                  "methods": "", "sim.workers": "1"})
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "rank table" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_nearest_member_scan_capacity_exit_code(tmp_path, workers):
    """A one-point 1000-frame (2000, 1998) 4-QAM CMD sweep detects supports
    whose nearest members lie two swaps away, where the scan would build
    3.99e9 slot entries per row: exit 3 naming the point and the scan, in
    this process and in a pool worker, with no traceback and no CSV."""
    cfg = _write_cfg(tmp_path, **{"sys.N": "2000", "sys.w": "1998", "sys.nQ": "2",
                                  "detectors": "cmd", "methods": "", "sim.trials": "1000",
                                  "sim.workers": workers})
    proc = _sweep_subprocess(cfg)
    assert proc.returncode == 3
    assert "sweep point 6: the nearest-member scan of (2000, 1998)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_sweep_builds_its_code_once(tmp_path, monkeypatch):
    """A CLI sweep builds its code once: the configuration check reports
    the grid points' link problems without building it, and the run builds
    it for the points."""
    calls = []

    def counted(*args):
        calls.append(args)
        return mppm.make_code(*args)

    for module in (cli, sweep):
        monkeypatch.setattr(module, "make_code", counted, raising=False)
    cfg = _write_cfg(tmp_path, **{"sim.trials": "1000", "sim.workers": "1"})
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert calls == [(12, 6)]


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


def _sweep_subprocess(cfg, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "qam_mppm", "sweep", "--config", str(cfg),
                           *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("over, args, problem", [
    ({"out.plot": "{tmp}/out.csv"}, (), "out.plot names the same file as out.csv"),
    ({"out.plot": "r.csv"}, ("--out", "{tmp}/r.csv"), "out.plot names the same file as out.csv"),
    ({"out.csv": "{tmp}/missing/out.csv"}, (), "out.csv: directory"),
    ({"out.csv": "{tmp}"}, (), "is a directory"),
    ({"out.plot": "{tmp}/missing/out.gp"}, (), "out.plot: directory"),
], ids=["plot-is-csv", "plot-moved-onto-csv", "csv-dir-missing", "csv-is-dir",
        "plot-dir-missing"])
def test_sweep_output_paths_checked_before_any_point(tmp_path, over, args, problem):
    """Output paths that cannot take the CSV and the plot script are exit-2
    diagnostics before any point runs: no point line, no file, no traceback."""
    tmp = str(tmp_path)
    cfg = _write_cfg(tmp_path, **{k: v.format(tmp=tmp) for k, v in over.items()})
    proc = _sweep_subprocess(cfg, *(a.format(tmp=tmp) for a in args))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert problem in proc.stderr
    assert "point" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("mode, x, problem", [
    ("ebn0", "4000", "grid point 4000 dB: sigma2 must be finite and positive, got 0"),
    ("ebn0", "-4000", "grid point -4000 dB: sigma2 must be finite and positive, got inf"),
    ("popt", "-4000", "grid point -4000 dBm: p_opt must be finite and positive, got 0"),
], ids=["sigma2-zero", "sigma2-inf", "p_opt-zero"])
def test_sweep_degenerate_link_reported(tmp_path, mode, x, problem):
    """A grid point whose noise variance or optical power is 0 or inf is an
    exit-2 diagnostic naming the point, before any point runs."""
    cfg = _write_cfg(tmp_path, **{"mode": mode, "grid.start": x, "grid.stop": x,
                                  "methods": ""})
    proc = _sweep_subprocess(cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"config error: {problem}"]
    assert not (tmp_path / "out.csv").exists()


def test_sweep_missing_file_exit_code(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_config_not_utf8_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"grid.stop", b"\xff\xfegrid.stop"))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: line 3: not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "out.csv").exists()


def test_sweep_config_with_byte_order_mark(tmp_path):
    """A UTF-8 config that starts with a byte-order mark runs, and writes
    the CSV that the same config without the mark writes."""
    cfg = _write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "plain.csv")]) == 0
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "bom.csv")]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


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


_FRESH_PROCESS_CHECKS = r"""
import sys
from pathlib import Path

import qam_mppm
import qam_mppm.cli
from qam_mppm import sweep
from qam_mppm.cli import complexity_report, main

tmp = Path(sys.argv[1])
values = {"mode": "ebn0", "grid.start": "6", "grid.stop": "6", "grid.step": "1",
          "sys.N": "8", "sys.w": "2", "sys.nQ": "2", "sys.m": "0.5", "detectors": "imd",
          "sim.trials": "2000", "sim.seed": "5", "sim.workers": "1",
          "out.csv": str(tmp / "sim.csv")}
sweep.run(sweep.build_spec(values))
complexity_report(12, 6, 16, 8)
(tmp / "bad.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                             + "sys.m = 7\n", encoding="utf-8")
assert main(["sweep", "--config", str(tmp / "bad.cfg")]) == 2
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded

# A point starts at its first analytic_row or run_point call.
analytic_at_point = []

def recording(fn):
    def at_point(*args, **kwargs):
        analytic_at_point.append("qam_mppm.analytic" in sys.modules)
        return fn(*args, **kwargs)
    return at_point

sweep.analytic_row = recording(sweep.analytic_row)
sweep.run_point = recording(sweep.run_point)
sweep.run(sweep.build_spec(dict(values, methods="ni", **{"out.csv": str(tmp / "ni.csv")})))
assert analytic_at_point == [True, True], analytic_at_point

# Every sweep method integrates in the package: none loads scipy.integrate.
sweep.run(sweep.build_spec(dict(values, detectors="cmd,imd", methods="ja,sa,ni,ub",
                                **{"out.csv": str(tmp / "all.csv")})))
loaded = sorted(m for m in sys.modules if m.startswith("scipy.integrate"))
assert not loaded, loaded

for name in qam_mppm.__all__:
    getattr(qam_mppm, name)
"""


def test_simulation_only_process_never_loads_scipy(tmp_path):
    """In a fresh interpreter, the package, the CLI, a simulation-only sweep,
    the complexity report and a config error load no scipy module; a sweep
    with an analytic method loads the analytic module in set-up, before its
    first point; a sweep with every method loads no scipy.integrate module;
    and every exported name resolves."""
    env = dict(os.environ, PYTHONPATH=str(Path(qam_mppm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS_CHECKS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
