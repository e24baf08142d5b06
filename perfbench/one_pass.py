"""One benchmark pass in a fresh process: run each sweep segment.

Usage: ``python3 perfbench/one_pass.py JOB.json`` with ``PYTHONPATH`` naming the
checkout's ``src``. The job names the config files, whether to stop after
set-up, whether to trace, the parent's ``perf_counter`` reading at spawn time
and where to write the result.

Set-up ends when the first sweep point starts: the first call of
``sweep.analytic_row`` or ``sweep.run_point``. Before it lie import, config
parsing and what ``sweep.run`` does before its first point (``make_code``,
``build_constellation``, the links). ``correction_stats`` is computed lazily
inside the first analytic call; when the methods use it, the hook computes
it just before the first point, from the code object ``sweep.run`` built,
so it counts as set-up and is not computed twice.

Only ``sweep.NumericFailure`` is a failed point; any other exception fails
the pass (non-zero exit).
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

# Methods whose analytic route reads the code's correction statistics.
_STATS_METHODS = {"ja", "sa", "ni"}
_POINT_FUNCTIONS = ("analytic_row", "run_point")


class _SetupDone(Exception):
    """Raised at the first point of a set-up-only pass."""


def hook_first_point(sweep, mppm, spec, setup_only: bool) -> dict:
    """Record in the returned dict, under ``"t"``, when the first point starts.

    The hook restores the original functions when it fires, so later points
    run unwrapped. Both point functions take the code object first.
    """
    state: dict[str, float] = {}
    originals = {name: getattr(sweep, name) for name in _POINT_FUNCTIONS}

    def wrap(fn):
        @functools.wraps(fn)
        def first_point(code, *args, **kwargs):
            for name, original in originals.items():
                setattr(sweep, name, original)
            if _STATS_METHODS & set(spec.methods):
                mppm.correction_stats(code)
            state["t"] = time.perf_counter()
            if setup_only:
                raise _SetupDone
            return fn(code, *args, **kwargs)

        return first_point

    for name, original in originals.items():
        setattr(sweep, name, wrap(original))
    return state


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from qam_mppm import mppm, sweep

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["trace_dir"])
        tracer.install()

    specs = [sweep.build_spec(sweep.parse_config(path)) for path in job["configs"]]
    first = hook_first_point(sweep, mppm, specs[0], job["setup_only"])
    segments = []
    for spec in specs:
        error = None
        try:
            sweep.run(spec)
        except _SetupDone:
            break
        except sweep.NumericFailure as exc:  # a failed point is counted, not fatal
            error = f"NumericFailure: {exc}"
        segments.append({"csv": spec.out_csv, "error": error})
    t_end = time.perf_counter()
    if "t" not in first:
        raise RuntimeError("the sweep ran no point")

    result = {"setup_s": first["t"] - job["t_spawn"]}
    if not job["setup_only"]:
        result["segments"] = segments
        result["sweep_s"] = t_end - first["t"]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, workers) / 1024.0
        if tracer:
            result["trace"] = tracer.gather()

    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
