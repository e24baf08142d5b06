"""Unit tests for config parsing, sweep orchestration and CSV emission."""

import numpy as np
import pytest

from qam_mppm import analytic, mppm, simulate, sweep
from qam_mppm.sweep import (
    CSV_COLUMNS,
    ConfigError,
    NumericFailure,
    SweepSpec,
    build_spec,
    links_for,
    parse_config,
    run,
    write_plot_script,
)

GOOD = {
    "mode": "ebn0",
    "grid.start": "6",
    "grid.stop": "8",
    "grid.step": "2",
    "sys.N": "12",
    "sys.w": "6",
    "sys.nQ": "4",
    "sys.m": "0.5",
    "detectors": "cmd,imd",
    "methods": "ja,ni",
    "sim.trials": "4000",
    "sim.seed": "11",
    "out.csv": "out.csv",
}


def _spec(tmp_path, **over):
    vals = dict(GOOD)
    vals["out.csv"] = str(tmp_path / "out.csv")
    vals.update(over)
    return build_spec(vals)


def test_parse_config_comments_and_errors(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# header\nmode = ebn0  # trailing\n\nsys.N=12\n", encoding="utf-8")
    vals = parse_config(cfg)
    assert vals == {"mode": "ebn0", "sys.N": "12"}
    bad = tmp_path / "b.cfg"
    bad.write_text("mode ebn0\njunk line\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert len(exc.value.problems) == 2


def test_build_spec_aggregates_problems():
    with pytest.raises(ConfigError) as exc:
        build_spec({"mode": "walk"})
    missing = [p for p in exc.value.problems if p.startswith("missing")]
    assert len(missing) == len(GOOD) - 2  # mode present, methods optional


def test_build_spec_validation():
    for key, bad in [
        ("mode", "banana"),
        ("grid.step", "-1"),
        ("sys.w", "12"),
        ("sys.m", "0"),
        ("detectors", "xyz"),
        ("methods", "ub"),  # requires the imd detector
        ("sim.trials", "0"),
    ]:
        vals = dict(GOOD)
        vals[key] = bad
        if key == "methods":
            vals["detectors"] = "cmd"
        with pytest.raises(ConfigError):
            build_spec(vals)


def test_build_spec_overrides():
    vals = dict(GOOD)
    spec = build_spec(vals, overrides={"sim.seed": 99, "mode": None})
    assert spec.seed == 99
    assert spec.mode == "ebn0"


def test_grid_endpoints():
    spec = build_spec(dict(GOOD))
    assert np.allclose(spec.grid(), [6.0, 8.0])
    vals = dict(GOOD)
    vals.update({"grid.start": "0", "grid.stop": "18", "grid.step": "1"})
    assert len(build_spec(vals).grid()) == 19


def test_links_for_modes(tmp_path):
    spec = _spec(tmp_path)
    links = links_for(spec)
    assert len(links) == 2
    assert all(l.normalized for l in links)
    pspec = _spec(tmp_path, **{"mode": "popt", "grid.start": "-33",
                               "grid.stop": "-31", "grid.step": "2"})
    plinks = links_for(pspec)
    assert all(not l.normalized for l in plinks)
    assert plinks[0].sigma2 < plinks[1].sigma2  # more power, more shot/RIN noise


def test_run_writes_csv_with_schema(tmp_path):
    spec = _spec(tmp_path)
    out = run(spec)
    lines = out.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert comments  # provenance/header comments present
    assert body[0] == ",".join(CSV_COLUMNS)
    # one row per (sweep point, detector)
    assert len(body) == 1 + 2 * 2
    for row in body[1:]:
        cells = row.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        ser = float(cells[CSV_COLUMNS.index("ser_sim")])
        assert 0.0 < ser <= 1.0
        frames = int(cells[CSV_COLUMNS.index("frames")])
        assert frames == 4000
    # methods not requested stay empty
    idx = CSV_COLUMNS.index("pe_cmd_sa")
    assert body[1].split(",")[idx] == ""


def test_run_emits_plot_script(tmp_path):
    spec = _spec(tmp_path, **{"out.plot": str(tmp_path / "plot.gp")})
    run(spec)
    script = (tmp_path / "plot.gp").read_text(encoding="utf-8")
    assert "set logscale y" in script
    assert "ser_sim" in script and "pe_cmd_ja" in script
    assert "Eb/N0" in script


def test_write_plot_script_popt_axis(tmp_path):
    spec = _spec(tmp_path, **{"mode": "popt", "grid.start": "-33",
                              "grid.stop": "-33", "grid.step": "1",
                              "out.plot": str(tmp_path / "p.gp")})
    write_plot_script(spec, tmp_path / "out.csv")
    assert "P_opt (dBm)" in (tmp_path / "p.gp").read_text(encoding="utf-8")


def test_interrupted_sweep_leaves_outputs_untouched(tmp_path, monkeypatch):
    """Ctrl-C during a point leaves neither a partial CSV nor a temporary
    file, and an existing CSV keeps its bytes."""
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "run_point", interrupt)
    spec = _spec(tmp_path, **{"methods": "", "sim.workers": "1",
                              "out.plot": str(tmp_path / "plot.gp")})
    with pytest.raises(KeyboardInterrupt):
        run(spec)
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "out.csv").write_bytes(b"kept\n")
    with pytest.raises(KeyboardInterrupt):
        run(spec)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert (tmp_path / "out.csv").read_bytes() == b"kept\n"


def _cmd_spec(tmp_path, methods):
    return _spec(tmp_path, **{"sys.N": "4", "sys.w": "2", "sys.nQ": "2",
                              "detectors": "cmd", "methods": methods,
                              "sim.trials": "200"})


def test_ja_sa_share_one_events_evaluation(tmp_path, monkeypatch):
    """Requesting both CMD averages evaluates the events model once per point
    and writes equal ja/sa cells."""
    calls = []
    original = analytic._event_quantities

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(analytic, "_event_quantities", counted)
    spec = _cmd_spec(tmp_path, "ja,sa")
    lines = run(spec).read_text(encoding="utf-8").splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(calls) == len(spec.grid()) == len(body)
    col = CSV_COLUMNS.index
    for cells in body:
        assert cells[col("pe_cmd_ja")] == cells[col("pe_cmd_sa")] != ""
        assert cells[col("pb_cmd_ja")] == cells[col("pb_cmd_sa")] != ""


def test_ja_budget_guard_only_when_ja_requested(tmp_path, monkeypatch):
    def over_budget(c, link):
        raise analytic.CapacityError("budget exceeded")

    monkeypatch.setattr(analytic, "_check_ja_budget", over_budget)
    run(_cmd_spec(tmp_path, "sa"))
    with pytest.raises(NumericFailure):
        run(_cmd_spec(tmp_path, "ja,sa"))


def _pooled_spec(tmp_path, workers):
    """Two points of three batches each: the first stops early at 100k
    frames, the second runs its whole budget."""
    return _spec(tmp_path, **{"sys.N": "4", "sys.w": "2", "sys.nQ": "2",
                              "grid.start": "4", "grid.stop": "18", "grid.step": "14",
                              "detectors": "cmd", "methods": "", "sim.trials": "120000",
                              "sim.workers": str(workers),
                              "out.csv": str(tmp_path / f"w{workers}.csv")})


def test_pooled_sweep_matches_serial_csv(tmp_path):
    serial = run(_pooled_spec(tmp_path, 1)).read_bytes()
    pooled = run(_pooled_spec(tmp_path, 2)).read_bytes()
    frames = [ln.split(b",")[CSV_COLUMNS.index("frames")] for ln in pooled.splitlines()[3:]]
    assert frames == [b"100000", b"120000"]
    assert pooled == serial


def test_pooled_sweep_workers_never_rebuild_code(tmp_path, monkeypatch):
    """The workers get the code sweep.run built; under fork they inherit
    the patched make_code, so a rebuild in a worker would fail the sweep."""
    real = mppm.make_code

    def forbidden(*args):
        raise AssertionError("make_code called after the sweep built its code")

    def build_once(*args):
        for module in (mppm, simulate):
            monkeypatch.setattr(module, "make_code", forbidden, raising=False)
        return real(*args)

    monkeypatch.setattr(sweep, "make_code", build_once)
    lines = run(_pooled_spec(tmp_path, 2)).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 + 2
