"""Command-line entry points: sweep runner and complexity report.

Exit codes: 0 on success, 2 on configuration problems, 3 on numeric
failures inside the analytic machinery and on capacity limits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .link import complexity
from .sweep import ConfigError, NumericFailure, build_spec, read_config, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qam-mppm")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run an analytic + simulated error-rate sweep")
    sw.add_argument("--config", required=True, help="flat key=value config file")
    sw.add_argument("--mode", choices=("ebn0", "popt"))
    sw.add_argument("--seed", type=int)
    sw.add_argument("--trials", type=int)
    sw.add_argument("--out", help="override out.csv; a relative out.plot goes next to it")

    cx = sub.add_parser("complexity", help="per-frame operation counts for both detectors")
    cx.add_argument("--N", type=int, required=True)
    cx.add_argument("--w", type=int, required=True)
    cx.add_argument("--MQ", type=int, required=True)
    cx.add_argument("--Ns", type=int, required=True)
    return parser


def complexity_report(n_slots: int, weight: int, m_q: int, n_samples: int) -> str:
    rep = complexity(n_slots, weight, m_q, n_samples)
    rows = [
        ("QAM metrics", rep.cmd_qam_metrics, rep.imd_qam_metrics),
        ("QAM sorting", rep.cmd_qam_sorting, rep.imd_qam_sorting),
        ("MPPM (heap)", rep.cmd_mppm, rep.imd_mppm),
        ("input filter", 0.0, rep.imd_input_filter),
        ("total", rep.cmd_total, rep.imd_total),
    ]
    lines = [
        f"complexity for N={n_slots} w={weight} M_Q={m_q} N_s={n_samples}",
        f"{'stage':<14}{'CMD':>12}{'IMD':>12}",
    ]
    for name, cmd_val, imd_val in rows:
        lines.append(f"{name:<14}{cmd_val:>12.2f}{imd_val:>12.2f}")
    lines.append(f"gain G = IMD/CMD = {rep.gain:.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "complexity":
        try:
            print(complexity_report(args.N, args.w, args.MQ, args.Ns))
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        values, problems = read_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    plot = values.get("out.plot")
    if args.out and plot and not Path(plot).is_absolute():
        # The plot script goes next to the relocated CSV.
        plot = str(Path(args.out).parent / Path(plot).name)
    try:
        spec = build_spec(
            values,
            overrides={
                "mode": args.mode,
                "sim.seed": args.seed,
                "sim.trials": args.trials,
                "out.csv": args.out,
                "out.plot": plot,
            },
        )
    except ConfigError as exc:
        problems += exc.problems
    try:
        # Line problems and value problems are reported together.
        if problems:
            raise ConfigError(problems)
        out_path = run(spec, log=lambda msg: print(msg, file=sys.stderr))
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
