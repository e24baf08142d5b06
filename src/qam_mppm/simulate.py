"""Seeded, parallel-deterministic Monte-Carlo simulation of both detectors.

Frames are simulated at the sufficient-statistic level: per slot the two
QAM correlator outputs and the matched-filter output, each with independent
Gaussian noise, one flat (frames * N) array per statistic whose frame f
starts at f * N.  Batches draw their random streams from a counter-based
generator keyed on (master seed, sweep point, batch index), so results are
bitwise independent of the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .constellation import Constellation
from .link import LinkParams
from .mppm import MppmCode, correct_patterns, rank_supports, unrank_supports

BATCH_FRAMES = 50_000
# A batch holds at most _BATCH_ENTRIES slot entries (frames * N) per
# statistic, 64 MB of floats, and at least one frame.
_BATCH_ENTRIES = 2**23
# A point stops early once it has run MIN_FRAMES frames (or its whole
# budget) and every detector has counted MIN_ERRORS symbol errors.
MIN_ERRORS = 100
MIN_FRAMES = 100_000

WORKER_ENV_VAR = "QAM_MPPM_MAX_WORKERS"
# A process pool starts all its workers at once, so larger counts are refused.
MAX_WORKERS = 64
# The cross-shape demap takes its argmin over as many rows of statistics at
# a time as keep each (rows, w, M) distance array within _DEMAP_ELEMENTS
# floats (8 MB), and at least one row.
_DEMAP_ELEMENTS = 2**20


@dataclass
class TrialCounters:
    """Aggregated per-detector counters for one sweep point."""

    frames: int = 0
    sym_errors: int = 0
    bit_errors: int = 0
    bit_errors_sq: int = 0  # sum of squared per-frame bit error counts
    mppm_errors: int = 0
    qam_cond_errors: int = 0
    qam_cond_opportunities: int = 0

    def merge(self, other: "TrialCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def ser(self) -> float:
        return self.sym_errors / self.frames if self.frames else math.nan

    def ser_stderr(self) -> float:
        if not self.frames:
            return math.nan
        p = self.ser()
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.frames)

    def ber(self, q_total: int) -> float:
        return self.bit_errors / (q_total * self.frames) if self.frames else math.nan

    def ber_stderr(self, q_total: int) -> float:
        """Frame-clustered standard error of the BER estimate."""
        if not self.frames:
            return math.nan
        mean = self.bit_errors / self.frames
        var = max(self.bit_errors_sq / self.frames - mean**2, 0.0)
        return math.sqrt(var / self.frames) / q_total

    def mppm_ser(self) -> float:
        return self.mppm_errors / self.frames if self.frames else math.nan

    def qam_cond_ser(self) -> float:
        if not self.qam_cond_opportunities:
            return math.nan
        return self.qam_cond_errors / self.qam_cond_opportunities


def _detect(metric: np.ndarray, r_i: np.ndarray, r_q: np.ndarray,
            offsets: np.ndarray, code: MppmCode, rng: np.random.Generator):
    """Top-w slot selection and nearest-member correction for one metric
    choice; returns the decoded slots' flat indices, ranks and statistics."""
    n, w = code.n_slots, code.weight
    top = np.argpartition(metric.reshape(-1, n), n - w, axis=1)[:, n - w:]
    det_support = np.sort(top.astype(np.int16), axis=1)
    det_rank = rank_supports(det_support, code)
    bad = det_rank >= code.size
    if bad.any():
        det_support[bad] = correct_patterns(det_support[bad], code, rng)
        det_rank[bad] = rank_supports(det_support[bad], code)
    det_flat = offsets[:, None] + det_support
    return det_flat, det_rank, r_i[det_flat], r_q[det_flat]


def _demap(yi, yq, c: Constellation, amp: float):
    """ML decision: a per-axis slicer for grid shapes, whose decision cells
    are rectangles, and the M-way distance argmin for cross shapes."""
    if c.is_grid:
        return c.grid_cells(amp).decide(yi, yq)
    pi = amp * c.points[:, 0]
    pq = amp * c.points[:, 1]
    out = np.empty(yi.shape, dtype=np.intp)
    step = max(1, _DEMAP_ELEMENTS // (math.prod(yi.shape[1:]) * c.m_q))
    for lo in range(0, len(yi), step):
        bi, bq = yi[lo:lo + step, ..., None], yq[lo:lo + step, ..., None]
        out[lo:lo + step] = np.argmin((bi - pi) ** 2 + (bq - pq) ** 2, axis=-1)
    return out


def simulate_batch(code: MppmCode, c: Constellation, link: LinkParams,
                   detectors: tuple[str, ...], n_frames: int,
                   seed_key) -> dict[str, TrialCounters]:
    """Simulate n_frames frames and count errors for each requested detector."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))
    n, w, m_q = link.n_slots, link.weight, c.m_q
    tx_rank = rng.integers(0, code.size, n_frames)
    tx_support = unrank_supports(tx_rank, code)
    qam_idx = rng.integers(0, m_q, (n_frames, w))
    amp = math.sqrt(link.t_s / 2.0) * link.i_ph * link.m
    sigma = math.sqrt(link.sigma2)
    # int32 flat indices cover any batch whose statistics fit in memory.
    offsets = np.arange(0, n_frames * n, n, dtype=np.int32)
    tx_flat = offsets[:, None] + tx_support

    def statistic(mean):  # Gaussian noise, plus mean in the sent slots
        r = rng.standard_normal(n_frames * n)
        r *= sigma
        r[tx_flat] += mean
        return r

    r_i = statistic((amp * c.points[:, 0])[qam_idx])
    r_q = statistic((amp * c.points[:, 1])[qam_idx])
    r_dc = statistic(math.sqrt(link.t_s) * link.i_ph) if "imd" in detectors else None

    # A frame's bits are its pattern word and one QAM word per slot in
    # support order; errors are counted per field, since a frame can carry
    # more than 64 bits.  Labels have at most 10 bits.
    labels = c.labels.astype(np.uint16)
    tx_labels = labels[qam_idx]
    tx_slot_sym = np.full(n_frames * n, -1, dtype=np.int16)
    tx_slot_sym[tx_flat] = qam_idx

    out: dict[str, TrialCounters] = {}
    for det in detectors:
        metric = r_i**2 + r_q**2 if det == "cmd" else r_dc
        det_flat, det_rank, yi, yq = _detect(metric, r_i, r_q, offsets, code, rng)
        det_idx = _demap(yi, yq, c, amp)
        diff = np.bitwise_count(tx_rank ^ det_rank).astype(np.int64)
        diff += np.bitwise_count(tx_labels ^ labels[det_idx]).sum(axis=1, dtype=np.int64)
        tx_at_det = tx_slot_sym[det_flat]
        common = tx_at_det >= 0  # detected slot that was also sent
        out[det] = TrialCounters(
            frames=n_frames,
            sym_errors=np.count_nonzero(diff),
            bit_errors=int(diff.sum()),
            bit_errors_sq=int(diff @ diff),
            mppm_errors=np.count_nonzero(det_rank != tx_rank),
            qam_cond_errors=np.count_nonzero((tx_at_det != det_idx) & common),
            qam_cond_opportunities=np.count_nonzero(common),
        )
    return out


def max_workers() -> int:
    env = os.environ.get(WORKER_ENV_VAR)
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{WORKER_ENV_VAR}: cannot parse {env!r}") from None
        if not 1 <= workers <= MAX_WORKERS:
            raise ValueError(f"{WORKER_ENV_VAR} must be in [1, {MAX_WORKERS}], got {workers}")
        return workers
    return min(os.cpu_count() or 1, 8)


def run_point(code: MppmCode, c: Constellation, link: LinkParams,
              detectors: tuple[str, ...], budget: int, seed: int, point_index: int,
              workers: int = 1,
              pool: ProcessPoolExecutor | None = None) -> dict[str, TrialCounters]:
    """Simulate one sweep point with deterministic early stopping.

    Batches run in lock-step waves of ``workers``: on ``pool`` when one is
    given, else one after another in this process.  They are merged strictly
    in index order and the stop decision is a function of the in-order
    cumulative counters only, so the result is identical for any worker
    count and either way of running.
    """
    if budget < 1:
        raise ValueError("budget must be at least one frame")
    batch_frames = min(BATCH_FRAMES, max(1, _BATCH_ENTRIES // code.n_slots))
    calls = map if pool is None else pool.map
    totals = {det: TrialCounters() for det in detectors}
    batches = range(0, budget, batch_frames)  # each batch's first frame
    for lo in range(0, len(batches), workers):
        wave = [(code, c, link, detectors, min(batch_frames, budget - first),
                 [seed, point_index, i])
                for i, first in enumerate(batches[lo:lo + workers], lo)]
        # A wave completes before it is merged.
        for res in list(calls(simulate_batch, *zip(*wave))):
            for det in detectors:
                totals[det].merge(res[det])
            if (totals[detectors[0]].frames >= min(MIN_FRAMES, budget)
                    and all(t.sym_errors >= MIN_ERRORS for t in totals.values())):
                return totals
    return totals


def waveform_crosscheck(support, qam_indices, c: Constellation, link: LinkParams,
                        n_c: int, samples_per_slot: int,
                        rng: np.random.Generator | None = None):
    """Sampled-waveform synthesis and discrete correlators for one frame.

    The frame sends QAM symbol qam_indices[j] in slot support[j].

    Returns (r_i, r_q, r_dc) per slot from Riemann-sum approximations of the
    continuous correlators; with no noise these converge to the statistic
    means as the sample count grows.
    """
    if int(n_c) != n_c or n_c < 2:
        raise ValueError("carrier cycles per slot must be an integer >= 2")
    if samples_per_slot % (4 * n_c) != 0:
        raise ValueError("samples_per_slot must be a multiple of 4*n_c")
    n = link.n_slots
    ns = samples_per_slot
    dt = link.t_s / ns
    f_c = n_c / link.t_s
    t = (np.arange(n * ns) + 0.5) * dt
    active = np.zeros(n)
    ai = np.zeros(n)
    aq = np.zeros(n)
    for slot, sym in zip(support, qam_indices):
        active[slot] = 1.0
        ai[slot] = c.points[sym, 0]
        aq[slot] = c.points[sym, 1]
    slot_of = np.repeat(np.arange(n), ns)
    s = link.i_ph * active[slot_of] * (
        1.0
        + link.m * (ai[slot_of] * np.cos(2 * np.pi * f_c * t)
                    + aq[slot_of] * np.sin(2 * np.pi * f_c * t))
    )
    if rng is not None:
        # white noise with PSD 2*sigma2 over the sampled bandwidth
        s = s + rng.normal(0.0, math.sqrt(2.0 * link.sigma2 / dt), len(s))
    cos_corr = np.sqrt(2.0 / link.t_s) * np.cos(2 * np.pi * f_c * t)
    sin_corr = np.sqrt(2.0 / link.t_s) * np.sin(2 * np.pi * f_c * t)
    rect = 1.0 / np.sqrt(link.t_s)
    sl = s.reshape(n, ns)
    r_i = np.sum(sl * cos_corr.reshape(n, ns), axis=1) * dt
    r_q = np.sum(sl * sin_corr.reshape(n, ns), axis=1) * dt
    r_dc = np.sum(sl * rect, axis=1) * dt
    return r_i, r_q, r_dc
