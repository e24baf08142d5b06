"""Unit tests for config parsing, sweep orchestration and CSV emission."""

import hashlib
import re
from pathlib import Path

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


def test_build_spec_rejects_unknown_keys():
    """A dict passed to build_spec has its unknown keys reported beside its
    other problems, as a config file's are."""
    vals = dict(GOOD, **{"sim.worker": "1", "sys.nQ": "12"})
    with pytest.raises(ConfigError) as exc:
        build_spec(vals)
    assert exc.value.problems[0] == "unknown key 'sim.worker'"
    assert any("sys.nQ" in p for p in exc.value.problems)
    with pytest.raises(ConfigError, match="unknown key 'methds'"):
        build_spec({"methds": "ja"})


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


def test_build_spec_accepts_the_worker_ceiling(monkeypatch):
    """64 workers, the ceiling, are accepted from the config and from the
    environment (65 is refused: test_sweep_bad_workers_and_rate_reported_together)."""
    assert build_spec(dict(GOOD, **{"sim.workers": "64"})).workers == 64
    monkeypatch.setenv(simulate.WORKER_ENV_VAR, "64")
    assert build_spec(dict(GOOD)).workers is None
    assert simulate.max_workers() == 64


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
    # A fractional span stops at the last point at or below grid.stop; a
    # whole one up to float rounding keeps its last point.
    for stop, step, points in [("1.08", "0.3", [0, 0.3, 0.6, 0.9]), ("1", "0.6", [0, 0.6]),
                               ("0.2", "0.3", [0]), ("0.3", "0.1", [0, 0.1, 0.2, 0.3])]:
        vals.update({"grid.start": "0", "grid.stop": stop, "grid.step": step})
        assert np.allclose(build_spec(vals).grid(), points)


def test_grid_point_limit():
    """The longest allowed grid builds; one point more, or a span that
    overflows, is a configuration error.  The grid that builds stays below
    100 dB: past about 3200 dB the noise variance is 0, a link problem that
    build_spec reports too."""
    vals = dict(GOOD)
    vals.update({"grid.start": "0", "grid.stop": str((sweep.MAX_GRID_POINTS - 1) / 100),
                 "grid.step": "0.01"})
    assert len(build_spec(vals).grid()) == sweep.MAX_GRID_POINTS
    for start, stop, step in [("0", str(sweep.MAX_GRID_POINTS), "1"),
                              ("-1e308", "1e308", "1e-300")]:
        vals.update({"grid.start": start, "grid.stop": stop, "grid.step": step})
        with pytest.raises(ConfigError) as exc:
            build_spec(vals)
        assert len(exc.value.problems) == 1
        assert "allowed" in exc.value.problems[0]


def test_build_spec_reports_link_problems():
    """Once its own checks pass, build_spec reports the grid points whose
    link is degenerate; for an N past the slot limit it leaves the links
    alone, and run reports the limit."""
    vals = dict(GOOD, **{"grid.start": "4000", "grid.stop": "4000"})
    with pytest.raises(ConfigError) as exc:
        build_spec(vals)
    assert exc.value.problems == ["grid point 4000 dB: sigma2 must be finite and positive, got 0"]
    vals["sys.N"] = "40000"
    assert build_spec(vals).n_slots == 40000


def test_links_for_modes(tmp_path):
    spec = _spec(tmp_path)
    links = links_for(spec)
    assert len(links) == 2
    assert all((l.t_s, l.i_ph) == (1.0, 1.0) for l in links)
    pspec = _spec(tmp_path, **{"mode": "popt", "grid.start": "-33",
                               "grid.stop": "-31", "grid.step": "2"})
    plinks = links_for(pspec)
    assert all(l.t_s != 1.0 for l in plinks)
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


def test_run_logs_correction_statistics_cost(tmp_path):
    """Before its first point, a sweep whose methods read the correction
    statistics logs their code, kind, event count and time; others do not."""
    msgs = []
    run(_spec(tmp_path, methods="ni"), log=msgs.append)
    assert re.fullmatch(r"correction statistics \(12, 6\): exact, 472576 events, \d+\.\d\d s",
                        msgs[0]), msgs
    assert sum(m.startswith("correction statistics") for m in msgs) == 1
    msgs.clear()
    run(_spec(tmp_path, methods="ub"), log=msgs.append)
    assert not any(m.startswith("correction statistics") for m in msgs), msgs


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
    original = analytic._events_route

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(analytic, "_events_route", counted)
    spec = _cmd_spec(tmp_path, "ja,sa")
    lines = run(spec).read_text(encoding="utf-8").splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(calls) == len(spec.grid()) == len(body)
    col = CSV_COLUMNS.index
    for cells in body:
        assert cells[col("pe_cmd_ja")] == cells[col("pe_cmd_sa")] != ""
        assert cells[col("pb_cmd_ja")] == cells[col("pb_cmd_sa")] != ""


def test_slot_model_capacity_fails_ja_and_sa_alike(tmp_path, monkeypatch):
    """ja and sa are one events evaluation, so the slot model's size limit
    fails both, and leaves no CSV."""
    monkeypatch.setattr(analytic, "_THRESHOLD_ELEMENTS", 1919)  # 4-QAM needs 5*2*2*96
    for methods in ("ja", "sa"):
        spec = _cmd_spec(tmp_path, methods)
        with pytest.raises(NumericFailure, match="needs 1920 floats per threshold"):
            run(spec)
        assert not Path(spec.out_csv).exists()


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


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# sha256 of simulation-only sweep CSVs (20k frames a point, one worker).
# They pin the random stream: the transmitted supports, the detections and
# the correction's draws, including the fallback to the nearest members,
# which (12, 8) takes at low SNR. A change to the stream must say so and
# re-baseline these digests. ebn0_12_6_16qam_full also keeps the config's
# analytic methods, on a 0/12/24 dB grid, and so pins the analytic columns
# byte for byte.
CSV_SHA256 = {
    "popt_32_6_16qam": "04ad2519c730661f8ceabaf867a1d52981c3a12241c8be387aba5715a85a3ad5",
    "popt_32_2_4qam": "a891b83198ea318a912bc41de30801c62f59705f44022abf88b3edd6293dac9f",
    "ebn0_12_6_16qam": "05688f008a45f32ae7eddf1302d6a0cedc422e95e90973e2acd3962f5e1fc813",
    "ebn0_12_6_16qam_full": "c83afdb84c87a025fba7ac2d11443d351ea427f39b9532e7b0feecd610d2ff4f",
    "ebn0_12_8_16qam": "5d6a87a5a6fc17ee4e714a12fe2a4c72097b53d604c377fc4440e17c00206472",
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_simulation_csv_bytes_are_pinned(tmp_path, name):
    overrides = {"methods": "", "sim.trials": 20_000, "sim.workers": 1,
                 "out.csv": tmp_path / "out.csv", "out.plot": ""}
    if name == "ebn0_12_8_16qam":
        values = parse_config(SCRIPTS / "ebn0_12_6_16qam.cfg")
        overrides.update({"sys.w": 8, "grid.stop": 8})
    elif name == "ebn0_12_6_16qam_full":
        values = parse_config(SCRIPTS / "ebn0_12_6_16qam.cfg")
        del overrides["methods"]
        overrides["grid.step"] = 12
    else:
        values = parse_config(SCRIPTS / f"{name}.cfg")
    data = run(build_spec(values, overrides)).read_bytes()
    assert hashlib.sha256(data).hexdigest() == CSV_SHA256[name]
