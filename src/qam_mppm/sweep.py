"""Sweep configuration, orchestration and CSV / plot-script emission."""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constellation import build_constellation
from .link import DEFAULT_RECEIVER, LinkParams, link_from_popt, sigma_from_ebn0, total_bits
from .mppm import (_MAX_SLOTS, CapacityError, correction_events, correction_stats,
                   distance_spectrum, make_code)
from .simulate import MAX_WORKERS, max_workers, run_point

CSV_COLUMNS = [
    "sweep_db", "ser_sim", "ser_ci", "ber_sim", "ber_ci", "ser_mppm_sim",
    "ser_qam_cond_sim", "pe_cmd_ja", "pe_cmd_sa", "pb_cmd_ja", "pb_cmd_sa",
    "pe_imd_ni", "pe_imd_ub", "pb_imd_ni", "pb_imd_ub", "frames",
    "sym_errors", "bit_errors",
]

_DETECTOR_METHODS = {"cmd": {"ja", "sa"}, "imd": {"ni", "ub"}}
# Methods whose events model reads the code's correction statistics.
_STATS_METHODS = ("ja", "sa", "ni")

# Sweeps evaluate every grid point, so longer grids are refused as a
# configuration error instead of being allocated.
MAX_GRID_POINTS = 10_000

REQUIRED_KEYS = [
    "mode", "grid.start", "grid.stop", "grid.step", "sys.N", "sys.w",
    "sys.nQ", "sys.m", "detectors", "sim.trials", "sim.seed", "out.csv",
]
KNOWN_KEYS = {*REQUIRED_KEYS, "methods", "sys.Rb", "sim.workers", "out.plot"}


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
        n = int(_grid_points(self.start, self.stop, self.step))
        return self.start + self.step * np.arange(n)


def _grid_points(start: float, stop: float, step: float) -> float:
    """Number of grid points up to stop, inf when the span overflows.  A
    span within 1e-9 steps of a whole number of steps keeps its last point."""
    span = (stop - start) / step
    return math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf


def parse_config(path) -> dict[str, str]:
    """Read a flat key=value config file (UTF-8, a leading byte-order mark
    allowed, '#' comments).

    Malformed lines, unknown keys and repeated keys are reported together.
    """
    values, problems = read_config(path)
    if problems:
        raise ConfigError(problems)
    return values


def read_config(path) -> tuple[dict[str, str], list[str]]:
    """parse_config's values and its line problems.

    Unknown keys are reported with their line and left out of the values,
    so that build_spec can report the values' problems beside them.  A file
    that cannot be read raises OSError, and one that is not UTF-8 text a
    ConfigError naming its first bad line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError([f"line {line}: not UTF-8 text ({exc.reason})"]) from None
    values: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: key {key!r} is given again")
        values[key] = val
    return values, problems


def build_spec(values: dict[str, str], overrides: dict | None = None) -> SweepSpec:
    """Validate raw key/value pairs (plus CLI overrides) into a SweepSpec.

    Once the values pass, the grid points' link problems are reported too
    (links_for), unless N is past the slot limit that make_code checks
    first: the links of such an N would take binomials that run for
    minutes, and run reports the limit instead.
    """
    merged = dict(values)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = str(val)
    problems = [f"unknown key {key!r}" for key in merged if key not in KNOWN_KEYS]
    missing = [f"missing required key {key}" for key in REQUIRED_KEYS if key not in merged]
    if missing:
        raise ConfigError(problems + missing)

    def number(key, cast=float):
        try:
            return cast(merged[key])
        except ValueError:
            problems.append(f"{key}: cannot parse {merged[key]!r}")
            return None

    def grid_value(key):
        val = number(key)
        if val is not None and not math.isfinite(val):
            problems.append(f"{key} must be finite, got {merged[key]!r}")
            return None
        return val

    mode = merged["mode"]
    if mode not in ("ebn0", "popt"):
        problems.append(f"mode must be 'ebn0' or 'popt', got {mode!r}")
    start, stop, step = (grid_value(key) for key in ("grid.start", "grid.stop", "grid.step"))
    if step is not None and step <= 0:
        problems.append("grid.step must be > 0")
    if None not in (start, stop, step) and step > 0:
        if stop < start:
            problems.append("grid must be monotone: stop >= start")
        elif (points := _grid_points(start, stop, step)) > MAX_GRID_POINTS:
            problems.append(f"grid has {points:.6g} points, more than the "
                            f"{MAX_GRID_POINTS} allowed")
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
    # The analytic routes rest on axis-aligned decision cells.
    if methods and n_q is not None and 2 <= n_q <= 10 and not build_constellation(n_q).is_grid:
        problems.append(f"methods need a square or rectangular constellation; "
                        f"sys.nQ = {n_q} is a cross shape")
    for key, names in (("detectors", detectors), ("methods", methods)):
        for dup in sorted({name for name in names if names.count(name) > 1}):
            problems.append(f"{key}: {dup!r} is listed more than once")
    trials = number("sim.trials", int)
    if trials is not None and trials < 1:
        problems.append("sim.trials must be >= 1")
    seed = number("sim.seed", int)
    if seed is not None and seed < 0:
        problems.append("sim.seed must be >= 0")
    workers = None
    if "sim.workers" in merged:
        workers = number("sim.workers", int)
        if workers is not None and not 1 <= workers <= MAX_WORKERS:
            problems.append(f"sim.workers must be in [1, {MAX_WORKERS}]")
    else:
        try:
            max_workers()
        except ValueError as exc:
            problems.append(str(exc))
    if n_slots is not None and weight is not None and not (1 <= weight <= n_slots - 1):
        problems.append("sys.w must satisfy 1 <= w <= N-1")
    if m is not None and not (0 < m <= 1):
        problems.append("sys.m must satisfy 0 < m <= 1")
    out_csv, out_plot = merged["out.csv"], merged.get("out.plot") or None
    for key, path in (("out.csv", out_csv), ("out.plot", out_plot)):
        if path is None:
            continue
        if Path(path).is_dir():
            problems.append(f"{key}: {path!r} is a directory")
        elif not Path(path).parent.is_dir():
            problems.append(f"{key}: directory {str(Path(path).parent)!r} does not exist")
    if out_plot and Path(out_plot).resolve() == Path(out_csv).resolve():
        problems.append(f"out.plot names the same file as out.csv, {out_csv!r}")
    if problems:
        raise ConfigError(problems)
    spec = SweepSpec(
        mode=mode, start=start, stop=stop, step=step, n_slots=n_slots,
        weight=weight, n_q=n_q, m=m, r_b=r_b, detectors=detectors,
        methods=methods, trials=trials, seed=seed, out_csv=out_csv,
        out_plot=out_plot, workers=workers,
    )
    if n_slots <= _MAX_SLOTS:
        links_for(spec)
    return spec


def links_for(spec: SweepSpec) -> list[LinkParams]:
    """The link at each grid point.

    Raises ConfigError naming every point whose P_opt, T_s, I_ph or noise
    variance is not finite and positive.
    """
    const = build_constellation(spec.n_q)
    base = LinkParams.from_normalized(spec.n_slots, spec.weight, spec.m, 1.0)
    unit = "dB" if spec.mode == "ebn0" else "dBm"
    links, problems = [], []
    for val in spec.grid():
        try:
            with np.errstate(over="ignore"):  # LinkParams refuses an inf
                if spec.mode == "ebn0":
                    links.append(base.with_sigma2(sigma_from_ebn0(val, base, const)))
                else:
                    p_opt = 1e-3 * 10.0 ** (val / 10.0)
                    q_total = total_bits(spec.n_slots, spec.weight, spec.n_q)
                    links.append(
                        link_from_popt(p_opt, DEFAULT_RECEIVER, spec.n_slots, spec.weight,
                                       spec.r_b, q_total, spec.m)
                    )
        except ValueError as exc:
            problems.append(f"grid point {val:g} {unit}: {exc}")
    if problems:
        raise ConfigError(problems)
    return links


def analytic_row(code, const, link, methods, tol) -> dict[str, float]:
    if not methods:
        return {}
    from . import analytic

    out = {}
    try:
        # ja and sa are one events evaluation.
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
    """Execute the sweep and write the CSV (and optional plot script).

    A code past a capacity limit raises NumericFailure, and grid points
    whose link is degenerate ConfigError (links_for); both come before the
    CSV is opened.  A capacity limit that a point's simulation reaches, in
    a pool worker too, raises NumericFailure naming the point.
    """
    try:
        code = make_code(spec.n_slots, spec.weight)
    except CapacityError as exc:
        raise NumericFailure(str(exc)) from exc
    const = build_constellation(spec.n_q)
    q_total = total_bits(spec.n_slots, spec.weight, spec.n_q)
    links = links_for(spec)
    grid = spec.grid()
    workers = spec.workers or max_workers()
    # A code too large for a method's table fails before the CSV is opened;
    # the tables stay cached for the points.
    stats_methods = [meth for meth in _STATS_METHODS if meth in spec.methods]
    if stats_methods:
        t0 = time.perf_counter()
        stats = _table(correction_stats, code, stats_methods)
        if log:
            log(f"correction statistics ({code.n_slots}, {code.weight}): "
                f"{'exact' if stats.exact else 'sampled'}, {correction_events(code)} events, "
                f"{time.perf_counter() - t0:.2f} s")
    if "ub" in spec.methods:
        _table(distance_spectrum, code, ["ub"])
    if spec.methods:
        # scipy.special loads with the analytic module, in set-up and after
        # the tables (a smaller peak), not inside a point; a simulation-only
        # sweep never loads it.
        from . import analytic  # noqa: F401
    out_path = Path(spec.out_csv)
    # One pool for the whole sweep; its workers exit when the `with` closes.
    # Each batch carries the code and constellation, about 2 KB pickled.
    with (_atomic_open(out_path) as fh,
          ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool):
        fh.write("# qam-mppm sweep; x axis in dB (ebn0 mode) or dBm (popt mode)\n")
        fh.write("# zero-error simulated rates are reported as the one-sided 95% "
                 "bound 3/n instead of 0\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for idx, (val, link) in enumerate(zip(grid, links)):
            try:
                arow = analytic_row(code, const, link, spec.methods, spec.tol)
                counters = run_point(code, const, link, spec.detectors, spec.trials,
                                     spec.seed, idx, workers, pool=pool)
            except (NumericFailure, CapacityError) as exc:
                raise NumericFailure(f"sweep point {val:g}: {exc}") from exc
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


def _table(fn, code, methods):
    """fn(code), a table that methods read; a capacity limit fails the sweep."""
    try:
        return fn(code)
    except CapacityError as exc:
        raise NumericFailure(f"methods {','.join(methods)}: {exc}") from exc


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
