"""Sweep configuration, orchestration and CSV / plot-script emission."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic
from .constellation import build_constellation
from .link import DEFAULT_RECEIVER, LinkParams, link_from_popt, sigma_from_ebn0, total_bits
from .mppm import CapacityError, correction_stats, distance_spectrum, make_code
from .simulate import max_workers, run_point, worker_pool

CSV_COLUMNS = [
    "sweep_db", "ser_sim", "ser_ci", "ber_sim", "ber_ci", "ser_mppm_sim",
    "ser_qam_cond_sim", "pe_cmd_ja", "pe_cmd_sa", "pb_cmd_ja", "pb_cmd_sa",
    "pe_imd_ni", "pe_imd_ub", "pb_imd_ni", "pb_imd_ub", "frames",
    "sym_errors", "bit_errors",
]

_DETECTOR_METHODS = {"cmd": {"ja", "sa"}, "imd": {"ni", "ub"}}
# Methods whose events model reads the code's correction statistics.
_STATS_METHODS = ("ja", "sa", "ni")

REQUIRED_KEYS = [
    "mode", "grid.start", "grid.stop", "grid.step", "sys.N", "sys.w",
    "sys.nQ", "sys.m", "detectors", "sim.trials", "sim.seed", "out.csv",
]


class ConfigError(ValueError):
    """Aggregated configuration diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NumericFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    mode: str  # 'ebn0' (dB) or 'popt' (dBm)
    start: float
    stop: float
    step: float
    n_slots: int
    weight: int
    n_q: int
    m: float
    r_b: float
    detectors: tuple[str, ...]
    methods: tuple[str, ...]
    trials: int
    seed: int
    out_csv: str
    out_plot: str | None = None
    tol: float = 1e-10
    workers: int | None = None

    def grid(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step)) + 1
        return self.start + self.step * np.arange(n)


def parse_config(path) -> dict[str, str]:
    """Read a flat key=value config file (UTF-8, '#' comments)."""
    values: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    if problems:
        raise ConfigError(problems)
    return values


def build_spec(values: dict[str, str], overrides: dict | None = None) -> SweepSpec:
    """Validate raw key/value pairs (plus CLI overrides) into a SweepSpec."""
    merged = dict(values)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = str(val)
    problems = []
    for key in REQUIRED_KEYS:
        if key not in merged:
            problems.append(f"missing required key {key}")
    if problems:
        raise ConfigError(problems)

    def number(key, cast=float):
        try:
            return cast(merged[key])
        except ValueError:
            problems.append(f"{key}: cannot parse {merged[key]!r}")
            return None

    mode = merged["mode"]
    if mode not in ("ebn0", "popt"):
        problems.append(f"mode must be 'ebn0' or 'popt', got {mode!r}")
    start = number("grid.start")
    stop = number("grid.stop")
    step = number("grid.step")
    if step is not None and step <= 0:
        problems.append("grid.step must be > 0")
    if None not in (start, stop, step) and step > 0 and stop < start:
        problems.append("grid must be monotone: stop >= start")
    n_slots = number("sys.N", int)
    weight = number("sys.w", int)
    n_q = number("sys.nQ", int)
    if n_q is not None and not (2 <= n_q <= 10):
        problems.append("sys.nQ must satisfy 2 <= nQ <= 10")
    m = number("sys.m")
    r_b = number("sys.Rb") if "sys.Rb" in merged else 50e6
    if mode == "popt" and r_b is not None and not 0 < r_b < math.inf:
        problems.append("sys.Rb must be a positive finite bit rate")
    detectors = tuple(d.strip() for d in merged["detectors"].split(",") if d.strip())
    if not detectors:
        problems.append("detector set must be nonempty")
    for det in detectors:
        if det not in _DETECTOR_METHODS:
            problems.append(f"unknown detector {det!r}")
    methods_raw = merged.get("methods", "")
    methods = tuple(v.strip() for v in methods_raw.split(",") if v.strip())
    for meth in methods:
        owners = [d for d, ms in _DETECTOR_METHODS.items() if meth in ms]
        if not owners:
            problems.append(f"unknown method {meth!r}")
        elif owners[0] not in detectors:
            problems.append(f"method {meth!r} requires detector {owners[0]!r}")
    trials = number("sim.trials", int)
    if trials is not None and trials < 1:
        problems.append("sim.trials must be >= 1")
    seed = number("sim.seed", int)
    workers = None
    if "sim.workers" in merged:
        workers = number("sim.workers", int)
        if workers is not None and workers < 1:
            problems.append("sim.workers must be >= 1")
    else:
        try:
            max_workers()
        except ValueError as exc:
            problems.append(str(exc))
    if n_slots is not None and weight is not None and not (1 <= weight <= n_slots - 1):
        problems.append("sys.w must satisfy 1 <= w <= N-1")
    if m is not None and not (0 < m <= 1):
        problems.append("sys.m must satisfy 0 < m <= 1")
    if problems:
        raise ConfigError(problems)
    return SweepSpec(
        mode=mode, start=start, stop=stop, step=step, n_slots=n_slots,
        weight=weight, n_q=n_q, m=m, r_b=r_b, detectors=detectors,
        methods=methods, trials=trials, seed=seed, out_csv=merged["out.csv"],
        out_plot=merged.get("out.plot") or None,
        workers=workers,
    )


def links_for(spec: SweepSpec) -> list[LinkParams]:
    const = build_constellation(spec.n_q)
    base = LinkParams.from_normalized(spec.n_slots, spec.weight, spec.m, 1.0)
    links = []
    for val in spec.grid():
        if spec.mode == "ebn0":
            links.append(base.with_sigma2(sigma_from_ebn0(val, base, const)))
        else:
            p_opt = 1e-3 * 10.0 ** (val / 10.0)
            q_total = total_bits(spec.n_slots, spec.weight, spec.n_q)
            links.append(
                link_from_popt(p_opt, DEFAULT_RECEIVER, spec.n_slots, spec.weight,
                               spec.r_b, q_total, spec.m)
            )
    return links


def analytic_row(code, const, link, methods, tol) -> dict[str, float]:
    out = {}
    try:
        # ja and sa share one events model; ja only adds its budget check.
        cmd = [meth for meth in ("ja", "sa") if meth in methods]
        if cmd:
            fn = analytic.pe_cmd_ja if "ja" in cmd else analytic.pe_cmd_sa
            res = fn(code, const, link, tol)
            for meth in cmd:
                out[f"pe_cmd_{meth}"], out[f"pb_cmd_{meth}"] = res.pe, res.pb
        if "ni" in methods:
            res = analytic.pe_imd(code, const, link, tol, mppm_route="ni")
            out["pe_imd_ni"], out["pb_imd_ni"] = res.pe, res.pb
        if "ub" in methods:
            res = analytic.pe_imd(code, const, link, tol, mppm_route="ub")
            out["pe_imd_ub"], out["pb_imd_ub"] = res.pe, res.pb
    except (analytic.QuadratureError, analytic.CapacityError) as exc:
        raise NumericFailure(f"analytic evaluation failed: {exc}") from exc
    return out


def _fmt(val) -> str:
    if val is None:
        return ""
    if isinstance(val, int):
        return str(val)
    return f"{val:.10g}"


def run(spec: SweepSpec, log=None) -> Path:
    """Execute the sweep and write the CSV (and optional plot script)."""
    code = make_code(spec.n_slots, spec.weight)
    const = build_constellation(spec.n_q)
    q_total = total_bits(spec.n_slots, spec.weight, spec.n_q)
    links = links_for(spec)
    grid = spec.grid()
    workers = spec.workers or max_workers()
    # A code too large for a method's table fails before the CSV is opened;
    # the tables stay cached for the points.
    for table, table_methods in ((correction_stats, _STATS_METHODS),
                                 (distance_spectrum, ("ub",))):
        needed = [meth for meth in table_methods if meth in spec.methods]
        if needed:
            try:
                table(code)
            except CapacityError as exc:
                raise NumericFailure(f"methods {','.join(needed)}: {exc}") from exc
    out_path = Path(spec.out_csv)
    # One pool for the whole sweep; its workers exit when the `with` closes.
    with (_atomic_open(out_path) as fh,
          worker_pool(code, const, workers) if workers > 1 else nullcontext() as pool):
        fh.write("# qam-mppm sweep; x axis in dB (ebn0 mode) or dBm (popt mode)\n")
        fh.write("# zero-error simulated rates are reported as the one-sided 95% "
                 "bound 3/n instead of 0\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for idx, (val, link) in enumerate(zip(grid, links)):
            try:
                arow = analytic_row(code, const, link, spec.methods, spec.tol)
            except NumericFailure as exc:
                raise NumericFailure(f"sweep point {val:g}: {exc}") from exc
            counters = run_point(code, const, link, spec.detectors, spec.trials,
                                 spec.seed, idx, workers, pool=pool)
            for det in spec.detectors:
                t = counters[det]
                ser = t.ser()
                ser_ci = 1.959963984540054 * t.ser_stderr()
                if t.sym_errors == 0:
                    ser = ser_ci = 3.0 / t.frames
                ber = t.ber(q_total)
                ber_ci = 1.959963984540054 * t.ber_stderr(q_total)
                if t.bit_errors == 0:
                    ber = ber_ci = 3.0 / (t.frames * q_total)
                row = {
                    "sweep_db": float(val),
                    "ser_sim": ser,
                    "ser_ci": ser_ci,
                    "ber_sim": ber,
                    "ber_ci": ber_ci,
                    "ser_mppm_sim": t.mppm_ser(),
                    "ser_qam_cond_sim": t.qam_cond_ser(),
                    "frames": t.frames,
                    "sym_errors": t.sym_errors,
                    "bit_errors": t.bit_errors,
                }
                for meth in _DETECTOR_METHODS[det]:
                    for col in (f"pe_{det}_{meth}", f"pb_{det}_{meth}"):
                        if col in arow:
                            row[col] = arow[col]
                fh.write(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS) + "\n")
            if log:
                log(f"point {val:g}: frames={counters[spec.detectors[0]].frames}")
    if spec.out_plot:
        write_plot_script(spec, out_path)
    return out_path


@contextmanager
def _atomic_open(path: Path):
    """Write a text file through a temporary file beside it.

    The temporary file replaces path only when the block completes, so a
    failed or interrupted run leaves no partial file and an existing file
    at path untouched.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_plot_script(spec: SweepSpec, csv_path: Path) -> Path:
    """Emit a gnuplot script drawing all present error-rate series."""
    plot_path = Path(spec.out_plot)
    try:
        rel = csv_path.relative_to(plot_path.parent)
    except ValueError:
        rel = csv_path
    xlabel = "Eb/N0 (dB)" if spec.mode == "ebn0" else "P_opt (dBm)"
    series = [("ser_sim", 2), ("ber_sim", 4)]
    series += [(c, CSV_COLUMNS.index(c) + 1) for c in CSV_COLUMNS if c.startswith(("pe_", "pb_"))]
    lines = [
        "set datafile separator ','",
        "set logscale y",
        f"set xlabel '{xlabel}'",
        "set ylabel 'error rate'",
        "set key outside",
        "set grid",
    ]
    plots = [
        f"'{rel}' using 1:{col} with linespoints title '{name}'"
        for name, col in series
    ]
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    with _atomic_open(plot_path) as fh:
        fh.write("\n".join(lines) + "\n")
    return plot_path
