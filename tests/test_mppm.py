"""Unit tests for the MPPM pattern codec, correction rule and code geometry."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qam_mppm.analytic import pe_imd
from qam_mppm.constellation import build_constellation
from qam_mppm.link import LinkParams, sigma_from_ebn0
from qam_mppm.mppm import (
    CapacityError,
    bits_per_mppm,
    correct_patterns,
    correction_stats,
    decode_mppm,
    distance_spectrum,
    encode_mppm,
    k_l,
    make_code,
    mppm_ser_ub,
    ne_mppm,
    pattern_from_support,
    rank_support,
    rank_supports,
    unrank,
)
from qam_mppm.mppm import (
    _CORRECTION_CHUNK,
    _classify_positions,
    _nearest_member,
    _nearest_members,
    _single_swaps,
)


@pytest.mark.parametrize(
    "n, w, expected", [(12, 6, 9), (4, 2, 2), (32, 2, 8), (2, 1, 1), (32, 6, 19)]
)
def test_bits_per_mppm_exact_values(n, w, expected):
    assert bits_per_mppm(n, w) == expected
    assert 1 << expected <= math.comb(n, w) < 1 << (expected + 1)


@pytest.mark.parametrize("n, w", [(12, 6), (32, 2), (10, 3), (18, 9), (8, 4), (70, 67)])
def test_rank_unrank_bijection_exhaustive(n, w):
    """Exhaustive bijection over the full weight-w pattern universe."""
    assert math.comb(n, w) <= 100_000
    code = make_code(n, w)
    seen = set()
    for r in range(math.comb(n, w)):
        sup = unrank(r, code)
        assert len(sup) == w
        assert all(0 <= s < n for s in sup)
        assert list(sup) == sorted(set(sup))
        assert rank_support(sup, code) == r
        seen.add(sup)
    assert len(seen) == math.comb(n, w)


def test_rank_supports_near_the_int64_limit():
    """Ranks stay exact when the codec's partial sums exceed int64 but
    C(N, w) does not; larger codes are refused."""
    code = make_code(70, 67)
    assert np.array_equal(rank_supports(code.table, code), np.arange(code.size))
    code = make_code(66, 33)  # C(66, 33) = 7.2e18 < 2^63
    rng = np.random.default_rng(8)
    sups = np.sort(np.array([rng.choice(66, 33, replace=False) for _ in range(50)]), axis=1)
    ranks = rank_supports(sups, code)
    assert np.all(ranks >= 0)
    for sup, r in zip(sups, ranks):
        assert rank_support(sup, code) == r
        assert unrank(int(r), code) == tuple(sup.tolist())
    with pytest.raises(CapacityError, match="2\\^63"):
        make_code(67, 34)


def test_table_matches_unrank():
    """The support table lists the first size patterns in codec order, and
    its bit table marks the same slots."""
    for n, w in [(12, 6), (32, 6), (67, 65), (70, 3)]:
        code = make_code(n, w)
        assert code.table.shape == (code.size, w) and code.table.dtype == np.int16
        for r in (0, 1, 100, code.size - 1):
            assert tuple(code.table[r].tolist()) == unrank(r, code)
        assert np.array_equal(rank_supports(code.table, code), np.arange(code.size))
        if code.table_bits is not None:
            bits = np.bitwise_or.reduce(np.uint64(1) << code.table.astype(np.uint64), axis=1)
            assert np.array_equal(code.table_bits, bits)


def test_rank_supports_vectorized_matches_scalar():
    code = make_code(12, 6)
    rng = np.random.default_rng(3)
    sups = np.sort(
        np.array([rng.choice(12, 6, replace=False) for _ in range(200)]), axis=1
    )
    vec = rank_supports(sups, code)
    for row, r in zip(sups, vec):
        assert rank_support(tuple(row), code) == r


@given(st.integers(0, 511))
@settings(max_examples=80, deadline=None)
def test_encode_decode_roundtrip(word):
    code = make_code(12, 6)
    pattern = encode_mppm(word, code)
    assert pattern.sum() == 6
    assert decode_mppm(pattern, code) == word


def test_decode_rejects_out_of_set():
    code = make_code(12, 6)
    # The lexicographically last weight-6 pattern is expurgated (924 > 512).
    pattern = pattern_from_support(range(6, 12), 12)
    with pytest.raises(ValueError):
        decode_mppm(pattern, code)


def test_correct_pattern_passthrough_and_projection():
    code = make_code(12, 6)
    rng = np.random.default_rng(11)
    # an in-set detection ranks inside the set and is never corrected
    inside = np.flatnonzero(encode_mppm(37, code))[None]
    assert rank_supports(inside, code)[0] == 37
    outside = np.arange(6, 12, dtype=np.int16)[None]
    fixed = correct_patterns(outside, code, rng)
    assert fixed.shape == (1, 6)
    pattern = pattern_from_support(fixed[0], 12)
    assert decode_mppm(pattern, code) >= 0  # now in the usable set
    # projection moves the minimum possible distance
    assert int(np.sum(pattern != pattern_from_support(outside[0], 12))) == 2


def test_correct_patterns_full_scan_fallback():
    """A support with no in-set single-swap neighbor goes to a member at the
    maximum overlap, found by the full scan."""
    code = make_code(9, 5)
    sup = np.array([[4, 5, 6, 7, 8]], dtype=np.int16)
    assert rank_support(sup[0], code) >= code.size
    members = {tuple(int(v) for v in row) for row in code.table}
    assert max(len(set(m) & set(sup[0].tolist())) for m in members) == 3
    rng = np.random.default_rng(4)
    for _ in range(20):
        fixed = correct_patterns(sup, code, rng)
        assert fixed.shape == sup.shape
        assert tuple(int(v) for v in fixed[0]) in members
        assert len(set(fixed[0].tolist()) & set(sup[0].tolist())) == 3
    detected = set(sup[0].tolist())
    nearest = [r for r, m in enumerate(code.table) if len(set(m.tolist()) & detected) == 3]
    assert _nearest_members(sup[0], code).tolist() == nearest
    no_bits = dataclasses.replace(code, table_bits=None)  # the scan for more than 64 slots
    assert _nearest_members(sup[0], no_bits).tolist() == nearest


def _correct_patterns_by_ranking(supports, code, rng):
    """Reference correction: every single swap of every row is built, sorted
    and ranked, and a uniform random usable one is taken."""
    out = supports.copy()
    for lo in range(0, len(supports), _CORRECTION_CHUNK):
        sub = supports[lo : lo + _CORRECTION_CHUNK]
        cands = _single_swaps(sub, code.n_slots)
        ranks = rank_supports(cands.reshape(-1, code.weight), code).reshape(cands.shape[:2])
        ok = ranks < code.size
        u = rng.random(ok.shape)
        u[~ok] = -1.0
        chosen = cands[np.arange(len(sub)), np.argmax(u, axis=1)]
        for row in np.flatnonzero(~ok.any(axis=1)):
            chosen[row] = _nearest_member(sub[row], code, rng)
        out[lo : lo + _CORRECTION_CHUNK] = chosen
    return out


@pytest.mark.parametrize("n, w, table, falls_back", [
    (12, 6, True, False), (32, 6, True, False), (16, 4, True, False),
    (20, 10, True, False), (9, 5, True, True), (9, 5, False, True),
    (67, 65, True, True), (70, 3, True, False), (40, 10, False, False),
])
def test_correct_patterns_matches_ranking_every_swap(n, w, table, falls_back):
    """The membership test picks the same supports and leaves the random
    stream where ranking every single swap leaves it, across chunk
    boundaries, with and without a support table, and on rows without a
    usable single swap."""
    code = make_code(n, w)
    if not table:
        code = dataclasses.replace(code, table=None, table_bits=None)
    rng = np.random.default_rng(n * 100 + w)
    sup = np.sort(rng.random((30_000, n)).argsort(axis=1)[:, :w], axis=1).astype(np.int16)
    sup = np.resize(sup[rank_supports(sup, code) >= code.size], (_CORRECTION_CHUNK + 300, w))
    swaps = _single_swaps(sup, n)
    usable = rank_supports(swaps.reshape(-1, w), code).reshape(swaps.shape[:2]) < code.size
    assert bool(np.any(~usable.any(axis=1))) == falls_back
    rng_fast, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    fixed = correct_patterns(sup, code, rng_fast)
    assert fixed.dtype == sup.dtype
    assert np.array_equal(fixed, _correct_patterns_by_ranking(sup, code, rng_ref))
    assert rng_fast.random() == rng_ref.random()
    assert np.all(rank_supports(fixed, code) < code.size)


def test_k_l_sums_to_one_exactly():
    """Sum over missed-slot counts of the K_l weights is exactly 1 (rational)."""
    for n in range(2, 65):
        for w in range(1, n):
            total = sum(k_l(n, w, l) for l in range(1, min(w, n - w) + 1))
            assert total == Fraction(1)


def test_k_l_range_validation():
    with pytest.raises(ValueError):
        k_l(12, 6, 0)
    with pytest.raises(ValueError):
        k_l(12, 6, 7)


def test_ne_mppm_values():
    assert ne_mppm(1) == pytest.approx(1.0)
    assert ne_mppm(2) == pytest.approx(4.0 / 3.0)
    assert ne_mppm(9) == pytest.approx(9 * 256 / 511)
    with pytest.raises(ValueError):
        ne_mppm(0)


def test_distance_spectrum_pair_count():
    code = make_code(12, 6)
    spec = distance_spectrum(code)
    assert sum(spec.values()) == code.size * (code.size - 1)
    assert all(d2 >= 2 and d2 % 2 == 0 for d2 in spec)


def test_mppm_ser_ub_monotone_in_scale():
    code = make_code(12, 6)
    vals = [mppm_ser_ub(code, s) for s in (0.5, 2.0, 8.0, 32.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert 0.0 <= vals[-1] <= 1.0


def test_correct_patterns_over_64_slots():
    """A code over 64 slots keeps a support table but has no bit table; a
    support without an in-set single swap goes to a uniform member at the
    maximum overlap, drawn from the table."""
    code = make_code(67, 65)
    assert code.table is not None and code.table_bits is None
    sup = np.arange(2, 67, dtype=np.int16)[None]  # slots 0 and 1 idle
    assert rank_support(sup[0], code) >= code.size
    slots = set(sup[0].tolist())
    overlap = [len(set(m) & slots) for m in code.table.tolist()]
    best = {tuple(m) for m, o in zip(code.table.tolist(), overlap) if o == max(overlap)}
    assert max(overlap) == 63 and len(best) > 1
    rng = np.random.default_rng(2)
    drawn = {tuple(correct_patterns(sup, code, rng)[0].tolist()) for _ in range(40)}
    assert drawn <= best and len(drawn) > 1


@pytest.mark.parametrize("n, w", [(12, 6), (32, 2), (10, 4)])
def test_correction_stats_position_budget(n, w):
    """Aligned plus misaligned positions account for every decoded slot."""
    code = make_code(n, w)
    st_ = correction_stats(code)
    assert 0.0 <= st_.rescue_prob <= 1.0
    assert st_.max_swaps == min(w, n - w)
    for l in range(1, st_.max_swaps + 1):
        aligned = st_.align_v[l - 1] + st_.align_p[l - 1]
        mis = sum(sum(row) for row in st_.classes[l - 1])
        assert aligned + mis == pytest.approx(w, abs=1e-9)
        assert 0.0 <= st_.pat_bits[l - 1] <= code.q_mppm


def test_classify_positions_matches_per_position_count():
    """Vectorized position classes equal a direct count, slot by slot."""
    code = make_code(12, 6)
    rng = np.random.default_rng(3)
    tx = code.table[rng.integers(0, code.size, 200)].astype(np.int64)
    raw = np.sort(np.array([rng.choice(12, 6, replace=False) for _ in tx]), axis=1)
    # decoded supports: the raw selection itself or one of its single swaps
    swaps = _single_swaps(raw, 12)
    pick = rng.integers(-1, swaps.shape[1], len(tx))
    dec = np.where((pick < 0)[:, None], raw, swaps[np.arange(len(tx)), pick])
    mask_tx = np.zeros((len(tx), 12), dtype=bool)
    mask_w = np.zeros((len(tx), 12), dtype=bool)
    mask_tx[np.arange(len(tx))[:, None], tx] = True
    mask_w[np.arange(len(tx))[:, None], raw] = True
    a_v, a_p, cls = _classify_positions(tx, dec, mask_tx, mask_w)
    for r in range(len(tx)):
        want_v = want_p = 0
        want_cls = np.zeros((2, 4), dtype=int)
        for k in range(6):
            slot, in_w = dec[r, k], mask_w[r, dec[r, k]]
            if slot == tx[r, k]:
                want_v += int(in_w)
                want_p += int(not in_w)
                continue
            side = int(not mask_w[r, tx[r, k]])
            kind = (2 if in_w else 3) if mask_tx[r, slot] else (0 if in_w else 1)
            want_cls[side, kind] += 1
        assert (a_v[r], a_p[r]) == (want_v, want_p)
        assert (cls[r] == want_cls).all()


def test_correction_stats_matches_event_by_event_enumeration():
    """Every l-swap event of a small code, decoded and classified one by one.

    An out-of-set detection decodes to each nearest member with equal
    weight. In (9, 5) some multi-swap detections have no in-set single-swap
    neighbor, so their nearest members share fewer than w - 1 slots.
    """
    for n, w in [(6, 3), (9, 5)]:
        code = make_code(n, w)
        members = [tuple(int(v) for v in row) for row in code.table]
        rank = {m: i for i, m in enumerate(members)}
        st_ = correction_stats(code)
        for l in range(1, min(w, n - w) + 1):
            total, events = np.zeros(12), 0
            for tx in members:
                idle = [s for s in range(n) if s not in tx]
                for out in itertools.combinations(tx, l):
                    for into in itertools.combinations(idle, l):
                        raw = tuple(sorted(set(tx) - set(out) | set(into)))
                        best = max(len(set(m) & set(raw)) for m in members)
                        decoded = [m for m in members if len(set(m) & set(raw)) == best]
                        for d in decoded:
                            row = np.zeros(12)  # rescue, pattern bits, a_v, a_p, 2x4 classes
                            row[0] = d == tx
                            row[1] = bin(rank[d] ^ rank[tx]).count("1")
                            for k in range(w):
                                if d[k] == tx[k]:
                                    row[2 if d[k] in raw else 3] += 1
                                    continue
                                side = int(tx[k] not in raw)
                                kind = (2 if d[k] in raw else 3) if d[k] in tx else (
                                    0 if d[k] in raw else 1)
                                row[4 + 4 * side + kind] += 1
                            total += row / len(decoded)
                        events += 1
            mean = total / events
            if l == 1:
                assert st_.rescue_prob == pytest.approx(mean[0], abs=1e-12)
            assert st_.pat_bits[l - 1] == pytest.approx(mean[1], abs=1e-12)
            assert st_.align_v[l - 1] == pytest.approx(mean[2], abs=1e-12)
            assert st_.align_p[l - 1] == pytest.approx(mean[3], abs=1e-12)
            assert np.allclose(st_.classes[l - 1], mean[4:].reshape(2, 4), atol=1e-12)
    c = build_constellation(4)
    base = LinkParams.from_normalized(9, 5, 0.5, 1.0)
    link = base.with_sigma2(sigma_from_ebn0(12.0, base, c))
    assert math.isfinite(pe_imd(make_code(9, 5), c, link).pe)


def test_correction_stats_exact_for_small_codes():
    assert correction_stats(make_code(12, 6)).exact
    assert correction_stats(make_code(8, 2)).exact


def test_correction_stats_deterministic():
    a = correction_stats(make_code(12, 6))
    b = correction_stats(make_code(12, 6))
    assert a == b
