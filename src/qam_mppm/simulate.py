"""Seeded, parallel-deterministic Monte-Carlo simulation of both detectors.

Frames are simulated at the sufficient-statistic level: per slot the two
QAM correlator outputs and the matched-filter output, each with independent
Gaussian noise.  Batches draw their random streams from a counter-based
generator keyed on (master seed, sweep point, batch index), so results are
bitwise independent of the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .constellation import Constellation
from .link import LinkParams
from .mppm import MppmCode, correct_patterns, rank_supports, unrank

BATCH_FRAMES = 50_000
MIN_ERRORS = 100
MIN_FRAMES = 100_000

WORKER_ENV_VAR = "QAM_MPPM_MAX_WORKERS"


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
            code: MppmCode, rng: np.random.Generator):
    """Top-w slot selection and nearest-member correction for one metric
    choice; returns the decoded supports, ranks and their QAM statistics."""
    w = code.weight
    top = np.argpartition(-metric, w - 1, axis=1)[:, :w]
    det_support = np.sort(top, axis=1).astype(np.int16)
    det_rank = rank_supports(det_support, code)
    bad = det_rank >= code.size
    if np.any(bad):
        det_support[bad] = correct_patterns(det_support[bad], code, rng)
        det_rank[bad] = rank_supports(det_support[bad], code)
    yi = np.take_along_axis(r_i, det_support, axis=1)
    yq = np.take_along_axis(r_q, det_support, axis=1)
    return det_support, det_rank, yi, yq


def _demap(yi, yq, c: Constellation, amp: float):
    """ML decision: a per-axis slicer for grid shapes, whose decision cells
    are rectangles, and the M-way distance argmin for cross shapes."""
    if c.is_grid:
        return c.grid_cells(amp).decide(yi, yq)
    pi = amp * c.points[:, 0]
    pq = amp * c.points[:, 1]
    d2 = (yi[..., None] - pi) ** 2 + (yq[..., None] - pq) ** 2
    return np.argmin(d2, axis=-1)


def simulate_batch(code: MppmCode, c: Constellation, link: LinkParams,
                   detectors: tuple[str, ...], n_frames: int,
                   seed_key) -> dict[str, TrialCounters]:
    """Simulate n_frames frames and count errors for each requested detector."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))
    n, w, m_q = link.n_slots, link.weight, c.m_q
    tx_rank = rng.integers(0, code.size, n_frames)
    if code.table is not None:
        tx_support = code.table[tx_rank].astype(np.int64)
    else:
        tx_support = np.array([unrank(int(r), code) for r in tx_rank], dtype=np.int64)
    qam_idx = rng.integers(0, m_q, (n_frames, w))
    amp = math.sqrt(link.t_s / 2.0) * link.i_ph * link.m
    mu = math.sqrt(link.t_s) * link.i_ph
    sigma = math.sqrt(link.sigma2)
    rows = np.arange(n_frames)[:, None]

    r_i = rng.normal(0.0, sigma, (n_frames, n))
    r_q = rng.normal(0.0, sigma, (n_frames, n))
    r_i[rows, tx_support] += amp * c.points[qam_idx, 0]
    r_q[rows, tx_support] += amp * c.points[qam_idx, 1]
    r_dc = None
    if "imd" in detectors:
        r_dc = rng.normal(0.0, sigma, (n_frames, n))
        r_dc[rows, tx_support] += mu

    # A frame's bits are its pattern word and one QAM word per slot in
    # support order; errors are counted per field, since a frame can carry
    # more than 64 bits.  Labels have at most 10 bits.
    labels = c.labels.astype(np.uint16)
    tx_labels = labels[qam_idx]
    tx_slot_sym = np.full((n_frames, n), -1, dtype=np.int64)
    tx_slot_sym[rows, tx_support] = qam_idx

    out: dict[str, TrialCounters] = {}
    for det in detectors:
        metric = r_i**2 + r_q**2 if det == "cmd" else r_dc
        det_support, det_rank, yi, yq = _detect(metric, r_i, r_q, code, rng)
        det_idx = _demap(yi, yq, c, amp)
        diff = np.bitwise_count(tx_rank ^ det_rank).astype(np.int64)
        diff += np.bitwise_count(tx_labels ^ labels[det_idx]).sum(axis=1, dtype=np.int64)
        mppm_err = det_rank != tx_rank
        tx_at_det = np.take_along_axis(tx_slot_sym, det_support, axis=1)
        common = tx_at_det >= 0  # detected slot that was also sent
        cond_err = int(np.sum((tx_at_det != det_idx) & common))
        out[det] = TrialCounters(
            frames=n_frames,
            sym_errors=int(np.sum(diff > 0)),
            bit_errors=int(np.sum(diff)),
            bit_errors_sq=int(np.sum(diff * diff)),
            mppm_errors=int(np.sum(mppm_err)),
            qam_cond_errors=cond_err,
            qam_cond_opportunities=int(np.sum(common)),
        )
    return out


_WORKER: dict = {}


def _init_worker(code: MppmCode, c: Constellation) -> None:
    _WORKER["code"], _WORKER["c"] = code, c


def worker_pool(code: MppmCode, c: Constellation, workers: int) -> ProcessPoolExecutor:
    """Process pool whose workers simulate batches of code and c.

    The workers receive both objects once, through the pool initializer;
    under fork they inherit them without pickling.
    """
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(code, c))


def _batch_worker(args):
    link, detectors, n_frames, seed_key = args
    return simulate_batch(_WORKER["code"], _WORKER["c"], link, detectors, n_frames, seed_key)


def max_workers() -> int:
    env = os.environ.get(WORKER_ENV_VAR)
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{WORKER_ENV_VAR}: cannot parse {env!r}") from None
        if workers < 1:
            raise ValueError(f"{WORKER_ENV_VAR} must be >= 1, got {workers}")
        return workers
    return min(os.cpu_count() or 1, 8)


def run_point(code: MppmCode, c: Constellation, link: LinkParams,
              detectors: tuple[str, ...], budget: int, seed: int, point_index: int,
              workers: int | None = None, batch_frames: int = BATCH_FRAMES,
              min_errors: int = MIN_ERRORS, min_frames: int = MIN_FRAMES,
              pool: ProcessPoolExecutor | None = None) -> dict[str, TrialCounters]:
    """Simulate one sweep point with deterministic early stopping.

    With more than one worker, batches run in lock-step waves of ``workers``
    on ``pool`` (from ``worker_pool(code, c, ...)``), or on a pool opened for
    this point when none is given.  Batches are merged strictly in index
    order and the stop decision is a function of the in-order cumulative
    counters only, so the result is identical for any worker count.
    """
    if budget < 1:
        raise ValueError("budget must be at least one frame")
    workers = workers or max_workers()
    n_batches = (budget + batch_frames - 1) // batch_frames
    sizes = [min(batch_frames, budget - i * batch_frames) for i in range(n_batches)]
    totals = {det: TrialCounters() for det in detectors}

    def stopped() -> bool:
        frames = totals[detectors[0]].frames
        if frames < min(min_frames, budget):
            return False
        return all(t.sym_errors >= min_errors for t in totals.values())

    def results(pool):
        """Batch results in index order; a wave completes before it is merged."""
        for lo in range(0, n_batches, workers):
            wave = [(link, detectors, sizes[i], [seed, point_index, i])
                    for i in range(lo, min(lo + workers, n_batches))]
            if workers <= 1:
                yield from (simulate_batch(code, c, *args) for args in wave)
            else:
                yield from list(pool.map(_batch_worker, wave))

    own = pool is None and workers > 1
    with (worker_pool(code, c, workers) if own else nullcontext(pool)) as pool:
        for res in results(pool):
            for det in detectors:
                totals[det].merge(res[det])
            if stopped():
                break
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
