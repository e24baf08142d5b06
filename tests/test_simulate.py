"""Unit tests for the Monte-Carlo simulator and its determinism guarantees."""

import dataclasses
import itertools
import math
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from qam_mppm import simulate
from qam_mppm.constellation import build_constellation
from qam_mppm.link import (
    DEFAULT_RECEIVER,
    LinkParams,
    link_from_popt,
    sigma_from_ebn0,
    total_bits,
)
from qam_mppm.mppm import correct_patterns, make_code
from qam_mppm.simulate import TrialCounters, _demap, run_point, simulate_batch

from oracles import demap_ml, replay_batch, waveform_crosscheck


def _setup(db=10.0, n=12, w=6, n_q=4, m=0.5):
    code = make_code(n, w)
    c = build_constellation(n_q)
    base = LinkParams.from_normalized(n, w, m, 1.0)
    return code, c, base.with_sigma2(sigma_from_ebn0(db, base, c))


@dataclasses.dataclass(frozen=True)
class FrameTx:
    """One transmitted frame: pattern rank and symbols at active slots."""

    pattern_rank: int
    support: tuple[int, ...]
    qam_indices: tuple[int, ...]


def generate_frame(rng: np.random.Generator, code, c) -> FrameTx:
    """Draw one uniform frame (pattern word and QAM symbols)."""
    rank = int(rng.integers(0, code.size))
    support = next(itertools.islice(itertools.combinations(range(code.n_slots), code.weight),
                                    rank, None))
    qam = tuple(int(v) for v in rng.integers(0, c.m_q, code.weight))
    return FrameTx(pattern_rank=rank, support=tuple(int(s) for s in support),
                   qam_indices=qam)


def test_generate_frame_fields():
    code, c, link = _setup()
    rng = np.random.default_rng(5)
    fr = generate_frame(rng, code, c)
    assert 0 <= fr.pattern_rank < code.size
    assert len(fr.support) == 6
    assert all(0 <= q < c.m_q for q in fr.qam_indices)


def test_noiseless_detection_recovers_frame():
    """Without noise both detectors recover every pattern, symbol and bit."""
    code, c, link = _setup()
    zero = link.with_sigma2(1e-18)
    res = simulate_batch(code, c, zero, ("cmd", "imd"), 2000, [9, 0, 0])
    for det in ("cmd", "imd"):
        t = res[det]
        assert t.frames == 2000
        assert (t.sym_errors, t.bit_errors, t.mppm_errors, t.qam_cond_errors) == (0, 0, 0, 0)


def test_bit_errors_counted_over_frames_beyond_64_bits():
    """A (40, 10) 16-QAM frame carries 29 + 10 * 4 = 69 bits.  The counters
    equal the replay's count over each whole frame word (pattern word, then
    the QAM words in slot order) in Python integers."""
    code, c, link = _setup(db=0.0, n=40, w=10)
    assert total_bits(40, 10, c.n_q) == 69
    args = (code, c, link, ("cmd", "imd"), 2000, [5, 0, 0])
    assert simulate_batch(*args) == replay_batch(*args)


def test_simulate_batch_deterministic():
    code, c, link = _setup()
    a = simulate_batch(code, c, link, ("cmd", "imd"), 5000, [3, 0, 0])
    b = simulate_batch(code, c, link, ("cmd", "imd"), 5000, [3, 0, 0])
    assert a == b
    d = simulate_batch(code, c, link, ("cmd", "imd"), 5000, [4, 0, 0])
    assert a != d


# Counters of one batch per operating point, at key [41, case, 0]: each
# tuple is (frames, sym_errors, bit_errors, bit_errors_sq, mppm_errors,
# qam_cond_errors, qam_cond_opportunities).  They pin the random streams and
# the kernel bit for bit.  The (12, 8) batch at -3 dB sends 143 rows without
# a usable single swap to the nearest-member fallback; (40, 10) frames carry
# 69 bits.  The last batch runs IMD alone (8 fallback rows).
_PINNED_BATCHES = [
    # (N, w, n_q, mode, x in dB or dBm, detectors, frames), counters
    ((12, 6, 4, "ebn0", 0.0, ("cmd", "imd"), 4000), {
        "cmd": (4000, 4000, 58559, 900257, 3956, 10940, 14547),
        "imd": (4000, 4000, 37597, 403067, 989, 18215, 22932),
    }),
    ((12, 6, 4, "ebn0", 23.0, ("cmd", "imd"), 50_000), {
        "cmd": (50_000, 6, 27, 209, 3, 3, 299997),
        "imd": (50_000, 3, 3, 3, 0, 3, 300000),
    }),
    ((12, 8, 4, "ebn0", -3.0, ("cmd", "imd"), 4000), {
        "cmd": (4000, 4000, 72740, 1369558, 3971, 18809, 22645),
        "imd": (4000, 4000, 62165, 1027663, 2441, 24655, 29056),
    }),
    ((32, 6, 4, "popt", -32.0, ("cmd",), 4000), {
        "cmd": (4000, 3999, 69451, 1298091, 3913, 7131, 14678),
    }),
    ((32, 2, 2, "ebn0", 8.0, ("cmd", "imd"), 4000), {
        "cmd": (4000, 2463, 12270, 70402, 2409, 90, 4983),
        "imd": (4000, 304, 316, 340, 0, 310, 8000),
    }),
    ((12, 6, 3, "ebn0", 6.0, ("cmd", "imd"), 4000), {
        "cmd": (4000, 3989, 39672, 442164, 3777, 7098, 17072),
        "imd": (4000, 3883, 12764, 50628, 3, 11002, 23997),
    }),
    ((12, 6, 5, "ebn0", 6.0, ("cmd", "imd"), 4000), {
        "cmd": (4000, 4000, 59196, 960618, 3500, 13138, 18384),
        "imd": (4000, 3998, 33754, 320144, 1, 17684, 23999),
    }),
    ((12, 6, 4, "ebn0", 4.0, ("imd", "cmd"), 4000), {
        "imd": (4000, 3991, 23173, 152951, 25, 16240, 23973),
        "cmd": (4000, 3999, 51887, 729987, 3832, 10570, 16712),
    }),
    ((40, 10, 4, "ebn0", 0.0, ("cmd", "imd"), 4000), {
        "cmd": (4000, 4000, 131476, 4399108, 4000, 11229, 16442),
        "imd": (4000, 4000, 79601, 1873157, 2096, 28892, 37520),
    }),
    ((12, 8, 4, "ebn0", -3.0, ("imd",), 4000), {
        "imd": (4000, 4000, 62454, 1036982, 2472, 24524, 28975),
    }),
]


def _pinned_args(case):
    """simulate_batch's arguments for pinned batch ``case``."""
    (n, w, n_q, mode, x, detectors, frames), _ = _PINNED_BATCHES[case]
    c = build_constellation(n_q)
    if mode == "ebn0":
        base = LinkParams.from_normalized(n, w, 0.5, 1.0)
        link = base.with_sigma2(sigma_from_ebn0(x, base, c))
    else:
        link = link_from_popt(1e-3 * 10.0 ** (x / 10.0), DEFAULT_RECEIVER, n, w, 50e6,
                              total_bits(n, w, n_q), 0.5)
    return make_code(n, w), c, link, detectors, frames, [41, case, 0]


def _pinned_batch(case):
    """Counters of pinned batch ``case`` as simulated now."""
    return simulate_batch(*_pinned_args(case))


@pytest.mark.parametrize("case", range(len(_PINNED_BATCHES)))
def test_simulate_batch_counters_are_pinned(case):
    (*_, detectors, _), want = _PINNED_BATCHES[case]
    got = _pinned_batch(case)
    assert list(got) == list(detectors)
    assert got == {det: TrialCounters(*vals) for det, vals in want.items()}


@pytest.mark.parametrize("case", range(len(_PINNED_BATCHES)))
def test_simulate_batch_matches_replay(case, monkeypatch):
    """Every counter of a 2000-frame batch at each pinned operating point
    equals the plain replay's, in one block and in blocks of 7 frames: both
    detectors and IMD alone, fallback rows ((12, 8) at -3 dB), rect 8-QAM,
    cross 32-QAM and 69-bit frames."""
    code, c, link, detectors, _, key = _pinned_args(case)
    args = (code, c, link, detectors, 2000, [43, *key[1:]])
    want = replay_batch(*args)
    assert simulate_batch(*args) == want
    monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 7 * code.n_slots)
    assert simulate_batch(*args) == want


@pytest.mark.parametrize("case", [0, 2, 5])
def test_detector_counters_do_not_depend_on_the_other_detector(case):
    """Each detector counts the same errors run alone, beside the other
    detector, or after it: each statistic and each correction reads its
    own stream.  (12, 8) at -3 dB has fallback rows for both detectors."""
    code, c, link, _, frames, key = _pinned_args(case)
    alone = {det: simulate_batch(code, c, link, (det,), frames, key)[det]
             for det in ("cmd", "imd")}
    for dets in [("cmd", "imd"), ("imd", "cmd")]:
        assert simulate_batch(code, c, link, dets, frames, key) == alone, dets


@pytest.mark.parametrize("frames_per_block", [7, 1])
def test_simulate_batch_counters_do_not_depend_on_blocks(frames_per_block, monkeypatch):
    """Blocks of 7 frames, the last one shorter, count what the default
    blocks do for every pinned batch.  Blocks of one frame do so for the
    4000-frame batches, which cross as many block boundaries per frame as
    the 50,000-frame one and take both detectors and IMD alone, fallback
    rows, rect and cross shapes and 69-bit frames.  The IMD selection then
    draws its matched-filter output 7 or 1 frames at a time."""
    for case, ((n, *_, frames), _) in enumerate(_PINNED_BATCHES):
        if frames_per_block == 1 and frames > 4000:
            continue
        whole = _pinned_batch(case)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_BLOCK_ENTRIES", frames_per_block * n)
            assert _pinned_batch(case) == whole, case


def test_simulate_batch_memory_is_draws_plus_one_block():
    """A batch holds its ranks and (frames, w) symbols whole, and draws the
    symbols as int64 before it stores them as int16; all else, the supports
    and the three statistics included, lives one block at a time.  So a
    50k-frame batch peaks within six blocks' floats of those draws, its
    correction included, whatever its detectors.  At 0 dB about a third of
    the (32, 6) rows are corrected."""
    frames = 50_000
    for n, w, db, detectors in [(64, 8, 10.0, ("cmd", "imd")), (32, 6, 0.0, ("cmd",)),
                                (12, 6, 10.0, ("cmd", "imd")), (12, 6, 0.0, ("imd",))]:
        code, c, link = _setup(db=db, n=n, w=w)
        simulate_batch(code, c, link, detectors, 100, [1, 0, 0])  # warm caches
        tracemalloc.start()
        try:
            simulate_batch(code, c, link, detectors, frames, [1, 0, 0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        draws = frames * (8 + (8 + 2) * w)  # ranks; symbols int64, int16
        assert peak <= draws + 6 * 8 * simulate._BLOCK_ENTRIES, (n, w, detectors)


def test_batch_seed_depends_on_point_and_index():
    code, c, link = _setup()
    a = simulate_batch(code, c, link, ("cmd",), 5000, [3, 0, 0])
    b = simulate_batch(code, c, link, ("cmd",), 5000, [3, 1, 0])
    assert a != b


def _small_batches(monkeypatch, batch_frames, min_errors, min_frames):
    monkeypatch.setattr(simulate, "BATCH_FRAMES", batch_frames)
    monkeypatch.setattr(simulate, "MIN_ERRORS", min_errors)
    monkeypatch.setattr(simulate, "MIN_FRAMES", min_frames)


def test_run_point_independent_of_worker_count(monkeypatch):
    _small_batches(monkeypatch, 5_000, 10, 10_000)
    code, c, link = _setup(db=8.0)
    kw = dict(budget=30_000, seed=17, point_index=2)
    solo = run_point(code, c, link, ("cmd", "imd"), workers=1, **kw)
    with ProcessPoolExecutor(4) as pool:
        pooled = run_point(code, c, link, ("cmd", "imd"), workers=4, pool=pool, **kw)
    assert solo == pooled


def test_run_point_reuses_one_pool_across_points(monkeypatch):
    """Two points on one shared pool match the same points run in process."""
    _small_batches(monkeypatch, 5_000, 10, 10_000)
    code, c, link = _setup(db=8.0)
    kw = dict(budget=30_000, seed=17, workers=2)
    local = [run_point(code, c, link, ("cmd", "imd"), point_index=i, **kw) for i in (0, 1)]
    with ProcessPoolExecutor(2) as pool:
        shared = [run_point(code, c, link, ("cmd", "imd"), point_index=i, pool=pool, **kw)
                  for i in (0, 1)]
    assert shared == local
    assert local[0] != local[1]


def test_run_point_without_pool_runs_waves_in_process(monkeypatch):
    """Without a pool, workers=3 runs every batch in this process, in whole
    waves of 3; a stop inside the second wave gives the pool's counters."""
    _small_batches(monkeypatch, 1_000, 50, 4_000)
    code, c, link = _setup(db=0.0)  # every frame is an error: stop at 4000 frames
    kw = dict(budget=20_000, seed=3, point_index=1, workers=3)
    with ProcessPoolExecutor(3) as pool:
        pooled = run_point(code, c, link, ("cmd", "imd"), pool=pool, **kw)
    calls = []
    real = simulate.simulate_batch

    def recorded(*args):
        calls.append((os.getpid(), args[4]))
        return real(*args)

    monkeypatch.setattr(simulate, "simulate_batch", recorded)
    local = run_point(code, c, link, ("cmd", "imd"), **kw)
    assert calls == [(os.getpid(), 1_000)] * 6
    assert local == pooled
    assert local["cmd"].frames == 4_000


def test_run_point_early_stop_and_budget(monkeypatch):
    _small_batches(monkeypatch, 10_000, 50, 20_000)
    code, c, link = _setup(db=0.0)  # every frame is an error
    # A budget far beyond any run costs nothing up front: batches are sized
    # as they are submitted.
    for budget in (200_000, 10**15):
        res = run_point(code, c, link, ("cmd",), budget=budget, seed=1, point_index=0)
        assert res["cmd"].frames == 20_000  # stops at MIN_FRAMES once errors suffice
    with pytest.raises(ValueError):
        run_point(code, c, link, ("cmd",), budget=0, seed=1, point_index=0)


def test_run_point_caps_batch_slot_entries(monkeypatch):
    """A batch holds at most 2^23 symbol entries (frames * w): codes of
    weight up to 167 keep the 50k-frame batches whatever their N, and
    (400, 398) runs 2^23 // 398 = 21076 frames a batch."""
    sizes = []

    def recorded(code, c, link, detectors, n_frames, seed_key):
        sizes.append(n_frames)
        return {det: TrialCounters(frames=n_frames) for det in detectors}

    monkeypatch.setattr(simulate, "simulate_batch", recorded)
    for n, w, budget, expected in [(168, 2, 100_001, [50_000, 50_000, 1]),
                                   (20_000, 2, 50_001, [50_000, 1]),
                                   (400, 398, 50_000, [21_076, 21_076, 7_848])]:
        sizes.clear()
        code, c, link = _setup(n=n, w=w)
        res = run_point(code, c, link, ("cmd",), budget=budget, seed=1, point_index=0,
                        workers=1)
        assert sizes == expected
        assert res["cmd"].frames == budget


def test_trial_counters_statistics():
    t = TrialCounters(frames=1000, sym_errors=100, bit_errors=300, bit_errors_sq=1500,
                      mppm_errors=40, qam_cond_errors=5, qam_cond_opportunities=500)
    assert t.ser() == pytest.approx(0.1)
    assert t.ser_stderr() == pytest.approx(math.sqrt(0.1 * 0.9 / 1000))
    assert t.ber(30) == pytest.approx(300 / 30_000)
    assert t.mppm_ser() == pytest.approx(0.04)
    assert t.qam_cond_ser() == pytest.approx(0.01)
    u = TrialCounters()
    u.merge(t)
    assert u == t


def test_waveform_crosscheck_matches_statistic_means():
    """Noise-free sampled correlators converge to the closed-form means."""
    code, c, link = _setup()
    rng = np.random.default_rng(2)
    fr = generate_frame(rng, code, c)
    r_i, r_q, r_dc = waveform_crosscheck(fr.support, fr.qam_indices, c, link, n_c=4,
                                         samples_per_slot=512)
    amp = math.sqrt(link.t_s / 2.0) * link.i_ph * link.m
    mu = math.sqrt(link.t_s) * link.i_ph
    want_i = np.zeros(link.n_slots)
    want_q = np.zeros(link.n_slots)
    want_dc = np.zeros(link.n_slots)
    for j, slot in enumerate(fr.support):
        want_i[slot] = amp * c.points[fr.qam_indices[j], 0]
        want_q[slot] = amp * c.points[fr.qam_indices[j], 1]
        want_dc[slot] = mu
    assert np.allclose(r_i, want_i, atol=1e-3 * max(amp, 1e-12))
    assert np.allclose(r_q, want_q, atol=1e-3 * max(amp, 1e-12))
    assert np.allclose(r_dc, want_dc, atol=1e-3 * mu)


def test_waveform_crosscheck_validation():
    code, c, link = _setup()
    support, qam = (0, 1, 2, 3, 4, 5), (0,) * 6
    with pytest.raises(ValueError):
        waveform_crosscheck(support, qam, c, link, n_c=1, samples_per_slot=64)
    with pytest.raises(ValueError):
        waveform_crosscheck(support, qam, c, link, n_c=4, samples_per_slot=100)


def test_detectors_disagree_only_through_metric():
    """With huge pattern-metric margins both detectors agree symbol-wise."""
    code, c, link = _setup(db=25.0)
    res = simulate_batch(code, c, link, ("cmd", "imd"), 20_000, [8, 0, 0])
    # at this SNR pattern errors are essentially absent for both detectors
    assert res["cmd"].mppm_errors == 0
    assert res["imd"].mppm_errors == 0


def _argmin_oracle(yi, yq, c, amp):
    return np.array([demap_ml((a / amp, b / amp), c) for a, b in zip(yi, yq)])


@pytest.mark.parametrize("n_q, elements", [
    *(pytest.param(n_q, None, id=str(n_q)) for n_q in range(2, 11)),
    # cross shapes whose argmin runs in several row blocks, the last shorter
    *(pytest.param(n_q, 3000, id=f"{n_q}-blocks") for n_q in (5, 7, 9)),
])
def test_demap_matches_argmin(n_q, elements, monkeypatch):
    """The per-axis slicer of grid shapes, and the argmin of cross shapes,
    decide every point as the brute-force nearest-point search does."""
    if elements is not None:
        monkeypatch.setattr(simulate, "_DEMAP_ELEMENTS", elements)
    c = build_constellation(n_q)
    rng = np.random.default_rng(n_q)
    amp = 0.7
    edge = amp * np.abs(c.points).max()
    inside = rng.uniform(-1.1 * edge, 1.1 * edge, (2, 400))
    outside = rng.uniform(3.0 * edge, 50.0 * edge, (2, 100)) * rng.choice([-1.0, 1.0], (2, 100))
    yi, yq = np.concatenate([inside, outside], axis=1)
    got = _demap(yi.reshape(50, 10), yq.reshape(50, 10), c, amp)
    assert got.shape == (50, 10)
    assert np.array_equal(got.ravel(), _argmin_oracle(yi, yq, c, amp))


@pytest.mark.parametrize("n_q", [2, 3, 4, 6, 8, 10])
def test_slicer_ties_go_to_lower_level(n_q):
    """On a cell boundary both the slicer and the argmin pick the lower level.

    The levels are made integers so that the two distances of a midpoint
    tie exactly in floating point.
    """
    c = build_constellation(n_q)
    scale = (len(c.i_levels) - 1) / c.i_levels[-1]
    c = dataclasses.replace(c, points=np.round(c.points * scale),
                            i_levels=np.round(c.i_levels * scale),
                            q_levels=np.round(c.q_levels * scale))
    cells = c.grid_cells(1.0)
    # every boundary against every level of the other axis, and every corner
    yi = np.concatenate([np.repeat(cells.i_bounds, len(c.q_levels)),
                         np.tile(c.i_levels, len(cells.q_bounds)),
                         np.repeat(cells.i_bounds, len(cells.q_bounds))])
    yq = np.concatenate([np.tile(c.q_levels, len(cells.i_bounds)),
                         np.repeat(cells.q_bounds, len(c.i_levels)),
                         np.tile(cells.q_bounds, len(cells.i_bounds))])
    got = _demap(yi, yq, c, 1.0)
    assert np.array_equal(got, _argmin_oracle(yi, yq, c, 1.0))
    lower_i = np.searchsorted(c.i_levels, yi) - (~np.isin(yi, c.i_levels))
    lower_q = np.searchsorted(c.q_levels, yq) - (~np.isin(yq, c.q_levels))
    assert np.array_equal(c.col_idx[got], lower_i)
    assert np.array_equal(c.row_idx[got], lower_q)


@pytest.mark.parametrize("n_q", [4, 3])
def test_slicer_counters_match_argmin_path(n_q, monkeypatch):
    """simulate_batch counts the same errors with the slicer as with the
    argmin, which the same points labelled as a cross shape take."""
    code, c, link = _setup(db=6.0, n_q=n_q)
    corrected = []

    def spy(support, code, rng):
        corrected.append(len(support))
        return correct_patterns(support, code, rng)

    monkeypatch.setattr(simulate, "correct_patterns", spy)
    grid = simulate_batch(code, c, link, ("cmd", "imd"), 20_000, [11, 0, 0])
    assert sum(corrected) > 0  # the nearest-member correction fired
    cross = simulate_batch(code, dataclasses.replace(c, kind="cross"), link,
                           ("cmd", "imd"), 20_000, [11, 0, 0])
    assert grid == cross
