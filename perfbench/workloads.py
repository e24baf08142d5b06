"""Benchmark workloads: each one is a list of flat ``key=value`` sweep configs.

A workload is a list of segments; every segment is one ``sweep.run`` call.
The configs are generated from the workload seed, which becomes
``sim.seed``; the program under test sees only these configs.
"""

from __future__ import annotations

N12 = {"sys.N": "12", "sys.w": "6", "sys.nQ": "4", "sys.m": "0.5"}
N32 = {"sys.N": "32", "sys.w": "6", "sys.nQ": "4", "sys.m": "0.5"}


def _grid(start, stop, step):
    return {"grid.start": str(start), "grid.stop": str(stop), "grid.step": str(step)}


WORKLOADS = {
    # Quadrature dominates: pe_cmd_ja and pe_cmd_sa take seconds per point,
    # correction_stats(12, 6) is paid once in set-up. The -30 dBm point of
    # scripts/popt_12_6_16qam.cfg is kept although it fails today (exit 3).
    "analytic_n12": {
        "workers": 1,
        "segments": [
            {"mode": "ebn0", **_grid(0, 24, 12), **N12, "detectors": "cmd,imd",
             "methods": "ja,sa,ni,ub", "sim.trials": "2000"},
            {"mode": "popt", **_grid(-30, -30, 0.5), **N12, "sys.Rb": "50e6",
             "detectors": "cmd", "methods": "ja", "sim.trials": "2000"},
        ],
    },
    # Simulation only, long points: fewer than 100 errors, so no early stop.
    "sim_long_n12": {
        "workers": 2,
        "segments": [
            {"mode": "ebn0", **_grid(23, 24, 1), **N12, "detectors": "cmd,imd",
             "sim.trials": "1500000"},
        ],
    },
    # Simulation only, short points: the grid of scripts/popt_32_6_16qam.cfg.
    "sim_short_n32": {
        "workers": 2,
        "segments": [
            {"mode": "popt", **_grid(-32, -22, 0.5), **N32, "sys.Rb": "50e6",
             "detectors": "cmd", "sim.trials": "300000"},
        ],
    },
    # Tiny workload for the benchmark's own smoke test; not in BENCHMARK.json.
    "smoke": {
        "workers": 1,
        "segments": [
            {"mode": "ebn0", **_grid(6, 10, 4), "sys.N": "4", "sys.w": "2",
             "sys.nQ": "2", "sys.m": "0.5", "detectors": "cmd,imd",
             "methods": "ja,sa,ni,ub", "sim.trials": "20000"},
        ],
    },
}

BENCHMARK_WORKLOADS = ("analytic_n12", "sim_long_n12", "sim_short_n32")


def configs(workload: str, seed: int, workers: int | None = None,
            methods: bool = True) -> list[dict[str, str]]:
    """Sweep configs of a workload: one per segment, seeded by ``seed``.

    ``out.csv`` is left for the pass to set. ``workers`` overrides the workload's worker count and ``methods=False``
    drops the analytic methods; the traced run uses both for its
    worker-scaling passes.
    """
    spec = WORKLOADS[workload]
    out = []
    for seg in spec["segments"]:
        cfg = dict(seg)
        if not methods:
            cfg.pop("methods", None)
        cfg["sim.seed"] = str(seed)
        cfg["sim.workers"] = str(workers or spec["workers"])
        out.append(cfg)
    return out


def grid(cfg: dict[str, str]) -> list[float]:
    """Sweep points of a config, computed as ``SweepSpec.grid`` does."""
    start, stop, step = (float(cfg[k]) for k in ("grid.start", "grid.stop", "grid.step"))
    n = int(round((stop - start) / step)) + 1
    return [start + step * i for i in range(n)]


def system_key(cfg: dict[str, str]) -> str:
    """Reference-table key of the system and axis a config sweeps."""
    key = (f"{cfg['mode']} N={cfg['sys.N']} w={cfg['sys.w']} nQ={cfg['sys.nQ']} "
           f"m={cfg['sys.m']}")
    if cfg["mode"] == "popt":
        key += f" Rb={cfg['sys.Rb']}"
    return key


def point_key(x: float) -> str:
    return f"{x:.10g}"
