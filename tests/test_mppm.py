"""Unit tests for the MPPM pattern codec, correction rule and code geometry."""

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
    unrank_supports,
)
from qam_mppm.mppm import (
    _CORRECTION_CHUNK,
    _classify_positions,
    _nearest_members,
    _usable_swaps,
)


def _lex_supports(code):
    """The usable supports in rank order: the first size weight-w
    combinations, which itertools lists in lexicographic order."""
    lex = itertools.islice(itertools.combinations(range(code.n_slots), code.weight), code.size)
    return np.array(list(lex), dtype=np.int16)


def _max_overlap(support, members):
    """The rows of members (in rank order) sharing the most slots with support."""
    overlap = np.isin(members, support).sum(axis=1)
    return members[overlap == overlap.max()]


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
    assert np.array_equal(rank_supports(_lex_supports(code), code), np.arange(code.size))
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


def test_unrank_supports_matches_enumeration_and_scalar_unrank():
    """The vector unrank gives every usable support in lexicographic order
    where the code is small enough to enumerate, and agrees with the scalar
    unrank and with rank_supports on sampled ranks of every code."""
    for n, w in [(12, 6), (32, 6), (32, 2), (9, 5), (67, 65), (70, 3), (40, 10),
                 (40, 30), (66, 33), (2, 1)]:
        code = make_code(n, w)
        if code.size <= 1 << 20:
            sups = unrank_supports(np.arange(code.size), code)
            assert sups.shape == (code.size, w) and sups.dtype == np.int16
            assert np.array_equal(sups, _lex_supports(code))
        ranks = np.random.default_rng(n * 100 + w).integers(0, code.size, 300)
        ranks = np.concatenate([[0, 1, code.size - 1], ranks])
        sups = unrank_supports(ranks, code)
        assert np.array_equal(rank_supports(sups, code), ranks)
        for r, sup in zip(ranks, sups):
            assert tuple(sup.tolist()) == unrank(int(r), code)


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


@pytest.mark.parametrize("pattern", [
    pattern_from_support(range(5), 12),  # weight 5
    pattern_from_support(range(7), 12),  # weight 7
    pattern_from_support(range(6), 14),  # 14 slots
    np.array([2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
    np.array([-1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]),
    pattern_from_support(range(6), 12)[None],  # one pattern as a (1, 12) array
], ids=["weight-5", "weight-7", "14-slots", "entry-2", "entry-minus-1", "2-d"])
def test_decode_rejects_malformed_patterns(pattern):
    with pytest.raises(ValueError, match="pattern must be"):
        decode_mppm(pattern, make_code(12, 6))


@pytest.mark.parametrize("word", [3.7, 3.0, "3", -1, 512])
def test_encode_rejects_bad_words(word):
    with pytest.raises(ValueError, match="word must be"):
        encode_mppm(word, make_code(12, 6))


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


def _single_swaps(sup, n_slots):
    """All sorted single-swap neighbors: (rows, w*(N-w), w) in (j, k) order."""
    n, w = sup.shape
    mask = np.zeros((n, n_slots), dtype=bool)
    mask[np.arange(n)[:, None], sup] = True
    inact = np.nonzero(~mask)[1].reshape(n, n_slots - w)
    cands = np.repeat(sup[:, None, :], w * (n_slots - w), axis=1)
    cands = cands.reshape(n, w, n_slots - w, w)
    for j in range(w):
        cands[:, j, :, j] = inact
    return np.sort(cands.reshape(n, w * (n_slots - w), w), axis=2)


def _shell_scan(support, code):
    """Usable patterns of the first distance shell that has any, found by
    swapping one slot, then two, ..., each candidate ranked on its own; in
    (removed, added) order."""
    n, w = code.n_slots, code.weight
    support = [int(c) for c in support]
    inactive = [s for s in range(n) if s not in support]
    for shell in range(1, min(w, n - w) + 1):
        cands = []
        for rem in itertools.combinations(support, shell):
            keep = [c for c in support if c not in rem]
            for add in itertools.combinations(inactive, shell):
                cand = tuple(sorted(keep + list(add)))
                if rank_support(cand, code) < code.size:
                    cands.append(cand)
        if cands:
            return cands
    raise AssertionError("no usable pattern")


def _nearest_member_by_scan(support, code, rng, enumerate_members):
    """Reference fallback: a uniform draw over the nearest usable patterns
    in rank order, found by enumerating the usable set or by the shell scan."""
    if enumerate_members:
        members = _max_overlap(support, _lex_supports(code))
    else:
        members = sorted(_shell_scan(support, code), key=lambda m: rank_support(m, code))
    return members[rng.integers(len(members))]


def _falls_back(sup, code):
    """Rows of sorted supports without a usable single swap."""
    swaps = _single_swaps(sup, code.n_slots)
    usable = rank_supports(swaps.reshape(-1, code.weight), code) < code.size
    return ~usable.reshape(swaps.shape[:2]).any(axis=1)


def test_correct_patterns_full_scan_fallback():
    """A support with no in-set single-swap neighbor goes to a member at the
    maximum overlap, found by the full scan."""
    code = make_code(9, 5)
    sup = np.array([[4, 5, 6, 7, 8]], dtype=np.int16)
    assert rank_support(sup[0], code) >= code.size
    members = {tuple(int(v) for v in row) for row in _lex_supports(code)}
    assert max(len(set(m) & set(sup[0].tolist())) for m in members) == 3
    rng = np.random.default_rng(4)
    for _ in range(20):
        fixed = correct_patterns(sup, code, rng)
        assert fixed.shape == sup.shape
        assert tuple(int(v) for v in fixed[0]) in members
        assert len(set(fixed[0].tolist()) & set(sup[0].tolist())) == 3
    detected = set(sup[0].tolist())
    nearest = [m.tolist() for m in _lex_supports(code) if len(set(m.tolist()) & detected) == 3]
    members, counts = _nearest_members(sup, _usable_swaps(sup, code)[0], code)
    assert members.tolist() == nearest and counts.tolist() == [len(nearest)]


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("n, w, n_lone", [(9, 5, 1), (12, 8, 18)])
def test_nearest_members_without_table(n, w, n_lone, block, monkeypatch):
    """One batched shell scan over every support that has no usable single
    swap finds, row by row, the members at the maximum overlap of the
    enumerated usable set, in rank order, and the shell scan's candidates;
    also when a shell is built in many blocks."""
    if block:
        monkeypatch.setattr("qam_mppm.mppm._SHELL_BLOCK", block)
    code = make_code(n, w)
    sups = np.array(list(itertools.combinations(range(n), w)), dtype=np.int16)
    sups = sups[rank_supports(sups, code) >= code.size]
    lone = sups[_falls_back(sups, code)]
    assert len(lone) == n_lone
    members, counts = _nearest_members(lone, _usable_swaps(lone, code)[0], code)
    assert counts.sum() == len(members)
    for sup, near in zip(lone, np.split(members, np.cumsum(counts)[:-1])):
        assert np.array_equal(near, _max_overlap(sup, _lex_supports(code)))
        scanned = sorted(_shell_scan(sup, code), key=lambda m: rank_support(m, code))
        assert near.tolist() == [list(c) for c in scanned]


def _correct_patterns_by_ranking(supports, code, rng, enumerate_members):
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
            chosen[row] = _nearest_member_by_scan(sub[row], code, rng, enumerate_members)
        out[lo : lo + _CORRECTION_CHUNK] = chosen
    return out


def _out_of_set(code, rows, seed):
    """rows sorted out-of-set supports, drawn uniformly and repeated."""
    n, w = code.n_slots, code.weight
    rng = np.random.default_rng(seed)
    sup = np.sort(rng.random((30_000, n)).argsort(axis=1)[:, :w], axis=1).astype(np.int16)
    return np.resize(sup[rank_supports(sup, code) >= code.size], (rows, w))


def _assert_matches_ranking(sup, code, enumerate_members):
    rng_fast, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    fixed = correct_patterns(sup, code, rng_fast)
    assert fixed.dtype == sup.dtype
    assert np.array_equal(fixed, _correct_patterns_by_ranking(sup, code, rng_ref,
                                                              enumerate_members))
    assert rng_fast.random() == rng_ref.random()
    assert np.all(rank_supports(fixed, code) < code.size)


@pytest.mark.parametrize("n, w, enumerate_members, falls_back", [
    (12, 6, True, False), (32, 6, True, False), (16, 4, True, False),
    (20, 10, True, False), (9, 5, True, True), (9, 5, False, True),
    (67, 65, True, True), (70, 3, True, False), (40, 10, False, False),
    (12, 8, False, True),
])
def test_correct_patterns_matches_ranking_every_swap(n, w, enumerate_members, falls_back):
    """The membership test picks the same supports and leaves the random
    stream where ranking every single swap leaves it, across chunk
    boundaries, and on rows without a usable single swap, whose nearest
    members the reference finds by enumerating the usable set or by the
    shell scan."""
    code = make_code(n, w)
    sup = _out_of_set(code, _CORRECTION_CHUNK + 300, n * 100 + w)
    assert bool(np.any(_falls_back(sup, code))) == falls_back
    _assert_matches_ranking(sup, code, enumerate_members)


def test_correct_patterns_tableless_shell_scan():
    """(40, 30) is too large to enumerate, and some of its out-of-set
    supports need two swaps to reach a usable pattern."""
    code = make_code(40, 30)
    assert code.size > 1 << 20
    sup = _out_of_set(code, 40, 4030)
    assert 0 < np.count_nonzero(_falls_back(sup, code)) < len(sup)
    _assert_matches_ranking(sup, code, enumerate_members=False)


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
    sups = _lex_supports(code)
    mask = np.zeros((code.size, code.n_slots), dtype=np.int64)
    mask[np.arange(code.size)[:, None], sups] = 1
    overlap = mask @ mask.T
    d2, count = np.unique(2 * (code.weight - overlap), return_counts=True)
    assert spec == {int(d): int(c) for d, c in zip(d2, count) if d}


def test_mppm_ser_ub_monotone_in_scale():
    code = make_code(12, 6)
    vals = [mppm_ser_ub(code, s) for s in (0.5, 2.0, 8.0, 32.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert 0.0 <= vals[-1] <= 1.0


def test_correct_patterns_over_64_slots():
    """On a code over 64 slots a support without an in-set single swap goes
    to a uniform member at the maximum overlap of the usable set."""
    code = make_code(67, 65)
    sup = np.arange(2, 67, dtype=np.int16)[None]  # slots 0 and 1 idle
    assert rank_support(sup[0], code) >= code.size
    slots = set(sup[0].tolist())
    members = _lex_supports(code).tolist()
    overlap = [len(set(m) & slots) for m in members]
    best = {tuple(m) for m, o in zip(members, overlap) if o == max(overlap)}
    assert max(overlap) == 63 and len(best) > 1
    rng = np.random.default_rng(2)
    drawn = {tuple(correct_patterns(sup, code, rng)[0].tolist()) for _ in range(40)}
    assert drawn <= best and len(drawn) > 1


@pytest.mark.parametrize("n, w", [(12, 6), (32, 2), (10, 4), (2, 1)])
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
    tx = _lex_supports(code)[rng.integers(0, code.size, 200)].astype(np.int64)
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
        members = [tuple(int(v) for v in row) for row in _lex_supports(code)]
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
