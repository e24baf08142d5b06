"""Output check of one sweep segment against the stored reference.

Analytic columns must match ``reference.json`` to 1e-9 relative (or the
looser ``rel_tol`` stored with a point the program cannot evaluate at its
default quadrature tolerance). Simulated SER is checked statistically against
the stored analytic value, so a change to the random stream is not a failure:
the symbol-error count must lie within twice the 95% half-width of the
binomial rate, taking the larger of the plug-in and the model-rate standard
error. A single 95% interval would fail one point in twenty by chance; twice
its half-width (3.92 sigma) fails about one in ten thousand.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import grid, point_key, system_key

Z95 = 1.959963984540054
REL_TOL = 1e-9
_DETECTOR_METHODS = {"cmd": ("ja", "sa"), "imd": ("ni", "ub")}
_SIM_REFERENCE = {"cmd": "pe_cmd_ja", "imd": "pe_imd_ni"}

OK, RAISED, WRONG = "ok", "raised", "wrong"


def _rows(csv_path: Path) -> list[dict[str, str]]:
    if not csv_path.is_file():
        return []
    with csv_path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _number(row, col):
    try:
        return float(row.get(col) or "nan")
    except ValueError:
        return math.nan


def _check_row(x, det, row, ref, methods, trials) -> list[str]:
    problems = []
    if not abs(_number(row, "sweep_db") - x) <= 1e-9 * max(1.0, abs(x)):
        return [f"{det} row has sweep_db {row.get('sweep_db')!r}"]
    rel_tol = ref.get("rel_tol", REL_TOL)
    for meth in _DETECTOR_METHODS[det]:
        if meth not in methods:
            continue
        for col in (f"pe_{det}_{meth}", f"pb_{det}_{meth}"):
            got, want = _number(row, col), ref.get(col)
            if want is None:
                problems.append(f"{col}: no reference value")
            elif not abs(got - want) <= rel_tol * abs(want):
                problems.append(f"{col} = {got!r}, reference {want!r}")
    try:
        frames, errors = int(row["frames"]), int(row["sym_errors"])
    except (KeyError, TypeError, ValueError):
        return problems + [f"{det}: unreadable frames/sym_errors"]
    if not (1 <= frames <= trials and 0 <= errors <= frames):
        return problems + [f"{det}: {errors} errors in {frames} frames (budget {trials})"]
    p_ref = ref.get(_SIM_REFERENCE[det])
    if p_ref is None:
        return problems + [f"{det}: no reference SER"]
    p_hat = errors / frames
    stderr = math.sqrt(max(p_hat * (1 - p_hat), p_ref * (1 - p_ref)) / frames)
    if abs(p_hat - p_ref) > 2 * Z95 * stderr:
        problems.append(f"{det}: simulated SER {p_hat:.4g} ({errors}/{frames}) "
                        f"vs analytic {p_ref:.4g}")
    return problems


def check_segment(cfg: dict[str, str], csv_path: Path, error: str | None,
                  reference: dict) -> list[tuple[str, str]]:
    """One ``(status, message)`` per sweep point of the segment.

    ``raised``: the sweep stopped before writing the point's rows.
    ``wrong``: rows were written but failed the output check.
    """
    detectors = [d.strip() for d in cfg["detectors"].split(",")]
    methods = {m.strip() for m in cfg.get("methods", "").split(",") if m.strip()}
    trials = int(cfg["sim.trials"])
    table = reference.get(system_key(cfg), {})
    rows = _rows(csv_path)
    reason = (error or "no row written").strip().splitlines()[-1]
    out = []
    for i, x in enumerate(grid(cfg)):
        got = rows[i * len(detectors):(i + 1) * len(detectors)]
        if len(got) < len(detectors):
            out.append((RAISED, f"{x:g}: {reason}"))
            continue
        ref = table.get(point_key(x), {})
        problems = []
        for det, row in zip(detectors, got):
            problems += _check_row(x, det, row, ref, methods, trials)
        out.append((WRONG, f"{x:g}: " + "; ".join(problems)) if problems else (OK, ""))
    return out


def frames(cfg: dict[str, str], csv_path: Path) -> int:
    """Frames simulated in a segment, summed over its points."""
    n_det = len(cfg["detectors"].split(","))
    return sum(int(row["frames"]) for row in _rows(csv_path)[::n_det])
