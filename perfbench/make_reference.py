"""Regenerate reference.json: analytic values at every point of every workload.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Every point gets all four routes of its detectors (``ja``/``sa`` for CMD,
``ni``/``ub`` for IMD), whatever methods the workload requests, because the
simulated SER of each point is checked against ``pe_cmd_ja`` or
``pe_imd_ni``. A point whose quadrature fails at the sweep's default
tolerance is evaluated at ``quad_tol`` 1e-8 and stored with it and the
looser ``rel_tol`` 1e-6 its check uses.
"""

from __future__ import annotations

import json
from pathlib import Path

from qam_mppm import constellation, mppm, sweep
from workloads import WORKLOADS, configs, point_key, system_key

HERE = Path(__file__).resolve().parent
_METHODS = {"cmd": "ja,sa", "imd": "ni,ub"}
# (quadrature tolerance, relative tolerance of the check) tried in order.
_TOLERANCES = [(None, None), (1e-8, 1e-6)]


def reference_point(code, const, link, methods, spec) -> dict:
    for quad_tol, rel_tol in _TOLERANCES:
        try:
            row = sweep.analytic_row(code, const, link, methods, quad_tol or spec.tol)
        except sweep.NumericFailure:
            continue
        if quad_tol is not None:
            row.update(quad_tol=quad_tol, rel_tol=rel_tol)
        return row
    raise RuntimeError("no tolerance evaluates this point")


def main() -> None:
    systems: dict[str, dict] = {}
    for name in WORKLOADS:
        for cfg in configs(name, seed=0):
            dets = cfg["detectors"].split(",")
            values = dict(cfg, methods=",".join(_METHODS[d] for d in dets), **{"out.csv": "-"})
            spec = sweep.build_spec(values)
            code = mppm.make_code(spec.n_slots, spec.weight)
            const = constellation.build_constellation(spec.n_q)
            table = systems.setdefault(system_key(cfg), {})
            for x, link in zip(spec.grid(), sweep.links_for(spec)):
                key = point_key(float(x))
                if key not in table:
                    table[key] = reference_point(code, const, link, spec.methods, spec)
                    print(system_key(cfg), key, table[key], flush=True)
    out = {
        "about": "analytic SER/BER per workload point; regenerate with make_reference.py",
        "systems": systems,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")


if __name__ == "__main__":
    main()
