"""Smoke test of the benchmark on its tiny ``smoke`` workload.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SYSTEM = "ebn0 N=4 w=2 nQ=2 m=0.5"


def bench(*args, cwd=ROOT, bench_dir=HERE):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", "smoke", "--seed", "5",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_tree(src, dst):
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return dst


def perturbed_bench(tmp_path, system, point, column, factor):
    """A copy of the benchmark whose stored reference has one value scaled."""
    bench_dir = copy_tree(HERE, tmp_path / "perfbench")
    path = bench_dir / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    ref["systems"][system][point][column] *= factor
    path.write_text(json.dumps(ref), encoding="utf-8")
    return bench_dir


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_stored_reference_passes():
    res = last_json(bench("--trace", "0"))
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_perturbed_analytic_reference_is_a_failed_point(tmp_path):
    bench_dir = perturbed_bench(tmp_path, SMOKE_SYSTEM, "10", "pe_cmd_sa", 1 + 1e-8)
    proc = bench("--trace", "0", bench_dir=bench_dir)
    res = last_json(proc)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 2, 1)
    assert "smoke point wrong: 10: pe_cmd_sa" in proc.stdout


def test_perturbed_simulation_reference_is_a_failed_point(tmp_path):
    bench_dir = perturbed_bench(tmp_path, SMOKE_SYSTEM, "6", "pe_imd_ni", 1.1)
    proc = bench("--trace", "0", bench_dir=bench_dir)
    res = last_json(proc)
    assert (res["correct"], res["failed"]) == (False, 1)
    assert "imd: simulated SER" in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    res = last_json(bench("--trace", "1"))
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    # one make_code in sweep.run; the single worker runs in-process
    assert metrics["mppm.make_code.calls"]["value"] == 1
    assert metrics["distributions.calls"]["value"] > 0
    assert metrics["simulate.simulate_batch.calls"]["value"] == 2
    assert metrics["simulate.run_point.frames"]["value"] == 40_000


def test_program_crash_fails_the_run(tmp_path):
    # Only NumericFailure is a failed point; any other exception ends the run.
    copy_tree(ROOT / "src", tmp_path / "src")
    with (tmp_path / "src" / "qam_mppm" / "sweep.py").open("a", encoding="utf-8") as fh:
        fh.write("\n\ndef analytic_row(*args, **kwargs):\n"
                 "    raise TypeError('broken on purpose')\n")
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "TypeError: broken on purpose" in proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith("manifest ")


def test_directory_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy_tree(HERE, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic_n12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
