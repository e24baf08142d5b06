"""qam-mppm sweep benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic_n12 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass is a fresh process (``one_pass.py``) that sets up and runs the
workload's sweeps through ``qam_mppm.sweep``, so per-process caches are paid
as a user of ``qam-mppm sweep`` pays them. Passes repeat until ``--seconds``
have elapsed; set-up is repeated in set-up-only processes until there are
at least ``SETUP_SAMPLES`` samples. Every pass's CSVs are checked (check.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (tracing.py) next to an untraced one. The
last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (sweep points) and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import check
from tracing import self_times
from workloads import BENCHMARK_WORKLOADS, WORKLOADS, configs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


class Bench:
    """Spawns passes of one workload and checks their output."""

    def __init__(self, root: Path, work: Path, reference: dict, deadline: float):
        self.root, self.work, self.reference = root, work, reference
        self.deadline = deadline
        self.outcomes: list[tuple[str, str]] = []

    def run_pass(self, cfgs, trace=False, setup_only=False) -> dict:
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work))
        paths = []
        cfgs = [dict(cfg, **{"out.csv": str(pass_dir / f"segment{i}.csv")})
                for i, cfg in enumerate(cfgs)]
        for i, cfg in enumerate(cfgs):
            path = pass_dir / f"segment{i}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
            paths.append(str(path))
        job = {"configs": paths, "trace": trace, "setup_only": setup_only,
               "trace_dir": str(pass_dir), "result": str(pass_dir / "result.json")}
        job_path = pass_dir / "job.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        job["t_spawn"] = time.perf_counter()
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.Popen([sys.executable, str(HERE / "one_pass.py"), str(job_path)],
                                cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("pass exceeded the run's time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"pass exited with {proc.returncode}:\n{err[-2000:]}")
        result = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
        if not setup_only:
            result["frames"] = 0
            for cfg, seg in zip(cfgs, result["segments"]):
                csv_path = Path(cfg["out.csv"])
                self.outcomes += check.check_segment(cfg, csv_path, seg["error"],
                                                     self.reference)
                result["frames"] += check.frames(cfg, csv_path)
        shutil.rmtree(pass_dir)
        return result

    def summary(self, metrics: dict) -> dict:
        return {
            "correct": all(status != check.WRONG for status, _ in self.outcomes),
            "attempted": len(self.outcomes),
            "failed": sum(status != check.OK for status, _ in self.outcomes),
            "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
        }


class Metric(NamedTuple):
    value: float
    unit: str
    samples: int | None = None


def end_to_end(bench: Bench, cfgs, seconds: float) -> dict:
    start = time.perf_counter()
    passes = [bench.run_pass(cfgs)]
    while time.perf_counter() - start < seconds:
        passes.append(bench.run_pass(cfgs))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.run_pass(cfgs, setup_only=True)["setup_s"])
    n = len(passes)
    return {
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        "sweep_s": Metric(statistics.median(p["sweep_s"] for p in passes), "s", n),
        "frames_per_s": Metric(
            statistics.median(p["frames"] / p["sweep_s"] for p in passes), "1/s", n),
        "peak_rss_mb": Metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB", n),
    }


def per_layer(bench: Bench, workload: str, seed: int) -> dict:
    cfgs = configs(workload, seed)
    plain = bench.run_pass(cfgs)
    traced = bench.run_pass(cfgs, trace=True)
    # Worker scaling of the simulate layer: the same sweeps without analytic
    # methods, with 2 workers and with 1.
    rate = {}
    for workers in (2, 1):
        scaled = configs(workload, seed, workers=workers, methods=False)
        p = plain if scaled == cfgs else bench.run_pass(scaled)
        rate[workers] = p["frames"] / p["sweep_s"]

    trace = traced["trace"]
    selfs = self_times(trace)
    by_name: dict[str, list] = {}
    for span in trace["spans"]:
        by_name.setdefault(span[2], []).append(span)

    def durations(name):
        return [t1 - t0 for _sid, _p, _n, t0, t1, _a in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    def median(name):
        d = durations(name)
        return statistics.median(d) if d else 0.0

    def self_sum(prefix):
        return sum(selfs[s[0]] for name, spans in by_name.items()
                   if name.startswith(prefix) for s in spans)

    points = by_name.get("simulate.run_point", [])
    batches = by_name.get("simulate.simulate_batch", [])
    batch_s = total("simulate.simulate_batch")
    batch_frames = sum(s[5]["frames"] for s in batches)
    pool_wall = sum((s[4] - s[3]) * s[5]["workers"] for s in points)
    leaf_calls = sum(c for _p, name, c, _s in trace["leaves"] if name == "distributions")
    leaf_s = sum(s for _p, name, _c, s in trace["leaves"] if name == "distributions")

    m = {
        "mppm.make_code.s": Metric(total("mppm.make_code"), "s"),
        "mppm.make_code.calls": Metric(len(durations("mppm.make_code")), "count"),
        "mppm.correction_stats.s": Metric(total("mppm.correction_stats"), "s"),
    }
    for route in ("cmd_ja", "cmd_sa", "imd_ni", "imd_ub"):
        m[f"analytic.pe_{route}.s"] = Metric(total(f"analytic.pe_{route}"), "s")
        m[f"analytic.pe_{route}.median_s"] = Metric(median(f"analytic.pe_{route}"), "s")
    m.update({
        "analytic.self_s": Metric(self_sum("analytic."), "s"),
        "sweep.analytic_row.s": Metric(total("sweep.analytic_row"), "s"),
        "sweep.run.self_s": Metric(self_sum("sweep.run"), "s"),
        "distributions.calls": Metric(leaf_calls, "count"),
        "distributions.s": Metric(leaf_s, "s"),
        "simulate.run_point.median_s": Metric(median("simulate.run_point"), "s"),
        "simulate.run_point.max_s": Metric(max(durations("simulate.run_point"), default=0.0),
                                           "s"),
        "simulate.run_point.self_s": Metric(self_sum("simulate.run_point"), "s"),
        "simulate.run_point.frames": Metric(sum(s[5]["frames"] for s in points), "count"),
        "simulate.early_stopped": Metric(
            sum(s[5]["frames"] < s[5]["budget"] for s in points), "count"),
        "simulate.simulate_batch.s": Metric(batch_s, "s"),
        "simulate.simulate_batch.calls": Metric(len(batches), "count"),
        "simulate.simulate_batch.frames_per_s": Metric(
            batch_frames / batch_s if batch_s else 0.0, "1/s"),
        "simulate.pool_idle_s": Metric(pool_wall - batch_s, "s"),
        "simulate.scaling_2w": Metric(rate[2] / rate[1], "ratio"),
        "trace.overhead": Metric(traced["sweep_s"] / plain["sweep_s"], "ratio"),
    })
    return m


def git_revision(root: Path) -> str:
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def run_workload(root: Path, work: Path, reference: dict, workload: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    manifest = {
        "git": git_revision(root), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "workload": workload, "seed": seed,
        "workers": WORKLOADS[workload]["workers"], "trace": int(trace),
    }
    print("manifest " + json.dumps(manifest), flush=True)
    bench = Bench(root, work, reference, time.perf_counter() + RUN_LIMIT_S)
    if trace:
        metrics = per_layer(bench, workload, seed)
    else:
        metrics = end_to_end(bench, configs(workload, seed), seconds)
    result = bench.summary(metrics)
    for status, message in bench.outcomes:
        if status != check.OK:
            print(f"{workload} point {status}: {message}")
    for name, m in metrics.items():
        n = f"  (n={m.samples})" if m.samples else ""
        print(f"{workload} {name:<40} {m.value:<14.6g} {m.unit}{n}")
    share = result["failed"] / result["attempted"]
    print(f"{workload} {'fail_share':<40} {share:<14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} points)", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "qam_mppm" / "sweep.py").is_file():
        print("perfbench: no src/qam_mppm here; run from the root of a qam-mppm checkout",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["systems"]
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_work"))
    try:
        results = {name: run_workload(root, work, reference, name, args.seed,
                                      args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
