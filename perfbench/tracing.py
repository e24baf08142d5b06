"""In-memory spans around the public functions of ``qam_mppm``.

The tracer wraps functions from the outside: every module of the package that
holds a reference to a traced function gets the wrapper in its place, so calls
made through any import path are recorded. Nothing inside the program changes.

A span is ``[id, parent, name, t0, t1, attrs]``; ids are ``"<pid>.<n>"`` and
times come from ``time.perf_counter`` (CLOCK_MONOTONIC, shared by all
processes of the host). Pool workers are forked while the parent's span stack
is open, so their spans name the parent's ``simulate.run_point`` span as
parent. Each process keeps its spans in memory; forked workers write theirs to
``<dump_dir>/spans-<pid>.json`` when they exit and the traced process gathers
them after the sweep.

Leaf callbacks that run tens of thousands of times per point (the
``distributions`` pdf/cdf calls) are aggregated per parent span as
``[parent, name, calls, seconds]`` instead of being stored one by one. They
run sequentially inside their parent and never nest, so their summed duration
is exactly the part of the parent they cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types
from multiprocessing import util as mp_util
from pathlib import Path


class Tracer:
    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}
        self._stack: list[str] = []
        self._count = 0
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        # Keep the copied stack: it names the span that caused the fork.
        self.spans, self.leaves = [], {}
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def dump(self):
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.export()), encoding="utf-8")

    def export(self) -> dict:
        leaves = [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()]
        return {"spans": self.spans, "leaves": leaves}

    def gather(self) -> dict:
        """This process's spans plus those dumped by exited workers."""
        out = self.export()
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            part = json.loads(path.read_text(encoding="utf-8"))
            out["spans"] += part["spans"]
            out["leaves"] += part["leaves"]
        return out

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so that each call records a span; ``name`` may be a
        callable of the bound arguments, ``attrs`` one of the bound arguments
        and the result."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if callable(name) or attrs else None
            self._count += 1
            sid = f"{os.getpid()}.{self._count}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            label = name(bound.arguments) if callable(name) else name
            extra = attrs(bound.arguments, result) if attrs else {}
            self.spans.append([sid, parent, label, t0, t1, extra])
            return result

        return wrapper

    def leaf(self, name, fn):
        """Wrap ``fn`` as an aggregated leaf callback."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = (self._stack[-1] if self._stack else None, name)
                acc = self.leaves.get(key)
                if acc is None:
                    self.leaves[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    def install(self):
        """Wrap the public functions the benchmark reports on."""
        from qam_mppm import analytic, distributions, mppm, simulate, sweep

        def first_frames(counters):
            return next(iter(counters.values())).frames

        targets = [
            (mppm.make_code, self.span("mppm.make_code", mppm.make_code)),
            (mppm.correction_stats,
             self.span("mppm.correction_stats", mppm.correction_stats)),
            (analytic.pe_cmd_ja, self.span("analytic.pe_cmd_ja", analytic.pe_cmd_ja)),
            (analytic.pe_cmd_sa, self.span("analytic.pe_cmd_sa", analytic.pe_cmd_sa)),
            (analytic.pe_imd, self.span(
                lambda a: f"analytic.pe_imd_{a.get('mppm_route', 'ni')}", analytic.pe_imd)),
            (sweep.analytic_row, self.span("sweep.analytic_row", sweep.analytic_row)),
            (sweep.run, self.span("sweep.run", sweep.run)),
            (simulate.run_point, self.span(
                "simulate.run_point", simulate.run_point,
                lambda a, res: {"frames": first_frames(res), "budget": a["budget"],
                                "workers": a.get("workers") or simulate.max_workers()})),
            (simulate.simulate_batch, self.span(
                "simulate.simulate_batch", simulate.simulate_batch,
                lambda a, res: {"frames": a["n_frames"]})),
        ]
        package = [m for k, m in sys.modules.items()
                   if k == "qam_mppm" or k.startswith("qam_mppm.")]
        for original, wrapped in targets:
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        # quad reaches the scalar pdf/cdf callbacks through analytic's `dist.`
        proxy = types.SimpleNamespace()
        for attr, value in vars(distributions).items():
            if inspect.isfunction(value) and value.__module__ == distributions.__name__:
                value = self.leaf("distributions", value)
            setattr(proxy, attr, value)
        analytic.dist = proxy


def self_times(trace: dict) -> dict[str, float]:
    """Self time of every span id: its duration minus the part of its
    interval that its child spans (in any process) and leaf calls cover."""
    children: dict[str, list] = {}
    for sid, parent, _name, t0, t1, _attrs in trace["spans"]:
        children.setdefault(parent, []).append((t0, t1))
    leaf_s: dict[str, float] = {}
    for parent, _name, _calls, seconds in trace["leaves"]:
        leaf_s[parent] = leaf_s.get(parent, 0.0) + seconds
    out = {}
    for sid, _parent, _name, t0, t1, _attrs in trace["spans"]:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered - leaf_s.get(sid, 0.0)
    return out
