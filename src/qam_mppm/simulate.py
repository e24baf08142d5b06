"""Seeded, parallel-deterministic Monte-Carlo simulation of both detectors.

Frames are simulated at the sufficient-statistic level: per slot the two
QAM correlator outputs and the matched-filter output, each with independent
Gaussian noise, in flat arrays whose frame f starts at f * N, one block of
frames at a time.  Batches draw their random streams from a counter-based
generator keyed on (master seed, sweep point, batch index), and each
statistic and each detector's correction reads its own stream spawned from
that key, so results are bitwise independent of the worker count, the block
size and the set of detectors run beside one another.
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
# A batch covers at most _BATCH_ENTRIES symbol entries (frames * w), and at
# least one frame: it holds only its ranks and (frames, w) symbols whole,
# since each block unranks its own supports and its corrections read one
# uniform per row.
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
# A batch runs in blocks of at most _BLOCK_ENTRIES slot entries (1 MiB per
# float array), and at least one frame.
_BLOCK_ENTRIES = 2**17


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


def _detect(metric, code: MppmCode, rng: np.random.Generator):
    """Top-w slot selection of each row of a block's (frames, N) metric, with
    the nearest-member correction of its out-of-set rows from ``rng``;
    returns the decoded sorted supports and their ranks."""
    n, w = code.n_slots, code.weight
    support = np.argpartition(metric, n - w, axis=1)[:, n - w:].astype(np.int16)
    support.sort(axis=1)
    rank = rank_supports(support, code)
    bad = rank >= code.size
    if bad.any():
        support[bad] = correct_patterns(support[bad], code, rng)
        rank[bad] = rank_supports(support[bad], code)
    return support, rank


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
    """Simulate n_frames frames and count errors for each requested detector.

    The batch generator draws the transmitted ranks, then the QAM symbols.
    Five role streams are then spawned from the batch's seed sequence, in
    this order whatever the detectors: the two correlator outputs r_i and
    r_q, the matched-filter output r_dc, and the CMD and IMD corrections.
    The batch runs in blocks of at most _BLOCK_ENTRIES slot entries, each
    end to end: its statistics are drawn from their streams in frame order
    (r_dc only when IMD is requested) and their signal means placed; then
    per detector the top-w selection, the ranking, the correction of the
    out-of-set rows from the detector's stream (one uniform per row), the
    demap and the counting.  So a batch holds its ranks and (frames, w)
    symbols, and one block's temporaries, its unranked supports included.
    """
    seq = np.random.SeedSequence(seed_key)
    rng = np.random.Generator(np.random.Philox(seq))
    n, w, m_q = link.n_slots, link.weight, c.m_q
    tx_rank = rng.integers(0, code.size, n_frames)
    qam_idx = rng.integers(0, m_q, (n_frames, w)).astype(np.int16)  # M <= 1024
    rng_i, rng_q, rng_dc, rng_cmd, rng_imd = (
        np.random.Generator(np.random.Philox(s)) for s in seq.spawn(5))
    corrections = {"cmd": rng_cmd, "imd": rng_imd}
    amp = link.qam_amplitude
    sigma = math.sqrt(link.sigma2)
    means_i, means_q = amp * c.points[:, 0], amp * c.points[:, 1]
    means_dc = np.full(m_q, link.dc_mean)
    step = max(1, _BLOCK_ENTRIES // n)
    # int32 flat indices of each frame's first slot within a block.
    offsets = np.arange(0, min(step, n_frames) * n, n, dtype=np.int32)[:, None]
    # A frame's bits are its pattern word and one QAM word per slot in
    # support order; errors are counted per field, since a frame can carry
    # more than 64 bits.  Labels have at most 10 bits.
    labels = c.labels.astype(np.uint16)
    out = {det: TrialCounters() for det in detectors}

    # A block runs in a function, so that its arrays are freed before the
    # next block draws.
    def block(lo, hi):
        tx, idx = tx_rank[lo:hi], qam_idx[lo:hi]
        tx_flat = offsets[:hi - lo] + unrank_supports(tx, code)

        # The block's noise from ``stream``, scaled in place, plus the
        # symbol's mean in the sent slots.
        def statistic(stream, means):
            r = stream.standard_normal((hi - lo) * n)
            r *= sigma
            r[tx_flat] += means[idx]
            return r

        r_i, r_q = statistic(rng_i, means_i), statistic(rng_q, means_q)
        # The QAM symbol sent in each slot of the block, -1 where none was.
        sent = np.full((hi - lo) * n, -1, dtype=np.int16)
        sent[tx_flat] = idx
        tx_labels = labels[idx]
        for det in detectors:
            metric = r_i ** 2 + r_q ** 2 if det == "cmd" else statistic(rng_dc, means_dc)
            det_sup, det_rank = _detect(metric.reshape(-1, n), code, corrections[det])
            del metric  # before the next detector's metric
            det_flat = offsets[:hi - lo] + det_sup
            det_idx = _demap(r_i[det_flat], r_q[det_flat], c, amp)
            diff = np.bitwise_count(tx ^ det_rank).astype(np.int64)
            diff += np.bitwise_count(tx_labels ^ labels[det_idx]).sum(axis=1, dtype=np.int64)
            tx_at_det = sent[det_flat]
            common = tx_at_det >= 0  # detected slot that was also sent
            out[det].merge(TrialCounters(
                frames=hi - lo,
                sym_errors=np.count_nonzero(diff),
                bit_errors=int(diff.sum()),
                bit_errors_sq=int(diff @ diff),
                mppm_errors=np.count_nonzero(det_rank != tx),
                qam_cond_errors=np.count_nonzero((tx_at_det != det_idx) & common),
                qam_cond_opportunities=np.count_nonzero(common),
            ))

    for lo in range(0, n_frames, step):
        block(lo, min(lo + step, n_frames))
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
    batch_frames = min(BATCH_FRAMES, max(1, _BATCH_ENTRIES // code.weight))
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
