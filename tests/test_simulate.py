"""Unit tests for the Monte-Carlo simulator and its determinism guarantees."""

import dataclasses
import math

import numpy as np
import pytest

from qam_mppm import simulate
from qam_mppm.constellation import build_constellation, demap_ml
from qam_mppm.link import LinkParams, sigma_from_ebn0
from qam_mppm.mppm import correct_patterns, make_code
from qam_mppm.simulate import (
    FrameTx,
    TrialCounters,
    _demap,
    assemble_bits,
    generate_frame,
    run_point,
    simulate_batch,
    waveform_crosscheck,
    worker_pool,
)


def _setup(db=10.0, n=12, w=6, n_q=4, m=0.5):
    code = make_code(n, w)
    c = build_constellation(n_q)
    base = LinkParams.from_normalized(n, w, m, 1.0)
    return code, c, base.with_sigma2(sigma_from_ebn0(db, base, c))


def test_assemble_bits_layout():
    # rank 0b101 followed by two 2-bit labels 0b11 and 0b01
    word = assemble_bits(np.array(0b101), np.array([0b11, 0b01]), 2)
    assert int(word[0]) == (0b101 << 4) | (0b11 << 2) | 0b01


def test_generate_frame_fields():
    code, c, link = _setup()
    rng = np.random.default_rng(5)
    fr = generate_frame(rng, code, c)
    assert 0 <= fr.pattern_rank < code.size
    assert len(fr.support) == 6
    assert all(0 <= q < c.m_q for q in fr.qam_indices)
    assert fr.bits < 1 << (code.q_mppm + 6 * c.n_q)


def test_noiseless_detection_recovers_frame():
    """Without noise both detectors recover every pattern, symbol and bit."""
    code, c, link = _setup()
    zero = link.with_sigma2(1e-18)
    res = simulate_batch(code, c, zero, ("cmd", "imd"), 2000, [9, 0, 0])
    for det in ("cmd", "imd"):
        t = res[det]
        assert t.frames == 2000
        assert (t.sym_errors, t.bit_errors, t.mppm_errors, t.qam_cond_errors) == (0, 0, 0, 0)


def test_simulate_batch_deterministic():
    code, c, link = _setup()
    a = simulate_batch(code, c, link, ("cmd", "imd"), 5000, [3, 0, 0])
    b = simulate_batch(code, c, link, ("cmd", "imd"), 5000, [3, 0, 0])
    assert a == b
    d = simulate_batch(code, c, link, ("cmd", "imd"), 5000, [4, 0, 0])
    assert a != d


def test_batch_seed_depends_on_point_and_index():
    code, c, link = _setup()
    a = simulate_batch(code, c, link, ("cmd",), 5000, [3, 0, 0])
    b = simulate_batch(code, c, link, ("cmd",), 5000, [3, 1, 0])
    assert a != b


def test_run_point_independent_of_worker_count():
    code, c, link = _setup(db=8.0)
    kw = dict(budget=30_000, seed=17, point_index=2, batch_frames=5_000,
              min_errors=10, min_frames=10_000)
    solo = run_point(code, c, link, ("cmd", "imd"), workers=1, **kw)
    pooled = run_point(code, c, link, ("cmd", "imd"), workers=4, **kw)
    assert solo == pooled


def test_run_point_reuses_one_pool_across_points():
    code, c, link = _setup(db=8.0)
    kw = dict(budget=30_000, seed=17, workers=2, batch_frames=5_000,
              min_errors=10, min_frames=10_000)
    fresh = [run_point(code, c, link, ("cmd", "imd"), point_index=i, **kw) for i in (0, 1)]
    with worker_pool(code, c, 2) as pool:
        shared = [run_point(code, c, link, ("cmd", "imd"), point_index=i, pool=pool, **kw)
                  for i in (0, 1)]
    assert shared == fresh
    assert fresh[0] != fresh[1]


def test_run_point_early_stop_and_budget():
    code, c, link = _setup(db=0.0)  # every frame is an error
    res = run_point(code, c, link, ("cmd",), budget=200_000, seed=1, point_index=0,
                    workers=1, batch_frames=10_000, min_errors=50, min_frames=20_000)
    assert res["cmd"].frames == 20_000  # stops at min_frames once errors suffice
    with pytest.raises(ValueError):
        run_point(code, c, link, ("cmd",), budget=0, seed=1, point_index=0)


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
    r_i, r_q, r_dc = waveform_crosscheck(fr, c, link, n_c=4, samples_per_slot=512)
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
    fr = FrameTx(pattern_rank=0, support=(0, 1, 2, 3, 4, 5),
                 qam_indices=(0,) * 6, bits=0)
    with pytest.raises(ValueError):
        waveform_crosscheck(fr, c, link, n_c=1, samples_per_slot=64)
    with pytest.raises(ValueError):
        waveform_crosscheck(fr, c, link, n_c=4, samples_per_slot=100)


def test_detectors_disagree_only_through_metric():
    """With huge pattern-metric margins both detectors agree symbol-wise."""
    code, c, link = _setup(db=25.0)
    res = simulate_batch(code, c, link, ("cmd", "imd"), 20_000, [8, 0, 0])
    # at this SNR pattern errors are essentially absent for both detectors
    assert res["cmd"].mppm_errors == 0
    assert res["imd"].mppm_errors == 0


def _argmin_oracle(yi, yq, c, amp):
    return np.array([demap_ml((a / amp, b / amp), c) for a, b in zip(yi, yq)])


@pytest.mark.parametrize("n_q", range(2, 11))
def test_demap_matches_argmin(n_q):
    """The per-axis slicer of grid shapes, and the argmin of cross shapes,
    decide every point as the brute-force nearest-point search does."""
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
