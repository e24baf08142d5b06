"""Unit tests for the MPPM pattern codec, correction rule and code geometry."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qam_mppm.analytic import pe_imd
from qam_mppm.constellation import build_constellation
from qam_mppm.link import LinkParams, sigma_from_ebn0
from qam_mppm.mppm import (
    CapacityError,
    bits_per_mppm,
    correct_patterns,
    correction_stats,
    distance_spectrum,
    k_l,
    make_code,
    mppm_ser_ub,
    ne_mppm,
    rank_supports,
    unrank_supports,
)
from qam_mppm.mppm import (
    _SUM_COLUMNS,
    _classify_positions,
    _nearest_members,
    _member_table,
    _swap_events,
    _swapped,
    _usable_swaps,
)

from oracles import listed_swaps, rank_by_columns, rank_support, unrank


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


def test_codes_are_limited_to_int16_slots():
    """Supports are int16 slot indices, so a code has at most 32767 slots:
    (32768, 2) is refused, and (32767, 2) round-trips its last slot."""
    with pytest.raises(CapacityError, match="N <= 32767"):
        make_code(32768, 2)
    code = make_code(32767, 2)
    sup = unrank_supports([32765], code)
    assert sup.tolist() == [[0, 32766]]
    assert rank_supports(sup, code).tolist() == [32765]


def test_slot_limit_is_checked_before_the_binomial(monkeypatch):
    """An oversized N is refused at once, without computing C(N, w)."""
    def no_comb(*args):
        raise AssertionError("math.comb called for a code past the slot limit")

    monkeypatch.setattr(math, "comb", no_comb)
    with pytest.raises(CapacityError, match="N <= 32767"):
        make_code(10**9, 5 * 10**8)


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
        assert np.array_equal(code.last, sups[2])
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


@pytest.mark.parametrize("n, w", [(12, 6), (32, 6), (2000, 1998)])
def test_rank_supports_matches_the_column_loop(n, w):
    """The all-columns gather equals the column-by-column sum bit for bit,
    on random sorted supports of the whole universe, and on none."""
    code = make_code(n, w)
    rng = np.random.default_rng(n + w)
    sups = np.sort(rng.random((300, n)).argsort(axis=1)[:, :w], axis=1).astype(np.int16)
    got = rank_supports(sups, code)
    assert got.dtype == np.int64
    assert np.array_equal(got, rank_by_columns(sups, code))
    assert np.all((got >= 0) & (got < math.comb(n, w)))
    assert rank_supports(sups[:0], code).shape == (0,)


def test_correct_pattern_passthrough_and_projection():
    code = make_code(12, 6)
    rng = np.random.default_rng(11)
    # an in-set detection ranks inside the set and is never corrected
    inside = unrank_supports([37], code)
    assert rank_supports(inside, code)[0] == 37
    outside = np.arange(6, 12, dtype=np.int16)[None]
    fixed = correct_patterns(outside, code, rng)
    assert fixed.shape == (1, 6)
    assert np.all(np.diff(fixed[0]) > 0)  # a sorted support of 6 distinct slots
    assert rank_supports(fixed, code)[0] < code.size  # now in the usable set
    # projection moves the minimum possible distance: one slot swapped
    assert len(np.setdiff1d(fixed[0], outside[0])) == 1


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


def _nearest_member_by_scan(support, code, u, enumerate_members):
    """Reference fallback: member floor(u * count) of the nearest usable
    patterns in rank order, found by enumerating the usable set or by the
    shell scan."""
    if enumerate_members:
        members = _max_overlap(support, _lex_supports(code))
    else:
        members = sorted(_shell_scan(support, code), key=lambda m: rank_support(m, code))
    return members[int(u * len(members))]


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
@pytest.mark.parametrize("n, w, n_lone, rows, deepest", [
    pytest.param(9, 5, 1, 1, 2, id="9-5-1"), pytest.param(12, 8, 18, 18, 2, id="12-8-18"),
    pytest.param(20, 15, 932, 40, 3, id="20-15-932"),
])
def test_nearest_members_without_table(n, w, n_lone, rows, deepest, block, monkeypatch):
    """One batched shell scan over the last rows (in rank order) of the
    supports that have no usable single swap finds, row by row, the members
    at the maximum overlap of the enumerated usable set, in rank order, and
    the shell scan's candidates; also when a shell is built in many blocks.
    The deepest shell these rows reach is 3 for (20, 15)."""
    if block:
        monkeypatch.setattr("qam_mppm.mppm._SHELL_BLOCK", block)
    code = make_code(n, w)
    sups = np.array(list(itertools.combinations(range(n), w)), dtype=np.int16)
    sups = sups[rank_supports(sups, code) >= code.size]
    lone = sups[_falls_back(sups, code)]
    assert len(lone) == n_lone
    lone = lone[-rows:]
    members, counts = _nearest_members(lone, _usable_swaps(lone, code)[0], code)
    assert counts.sum() == len(members)
    usable = _lex_supports(code)
    shells = []
    for sup, near in zip(lone, np.split(members, np.cumsum(counts)[:-1])):
        assert np.array_equal(near, _max_overlap(sup, usable))
        scanned = sorted(_shell_scan(sup, code), key=lambda m: rank_support(m, code))
        assert near.tolist() == [list(c) for c in scanned]
        shells.append(w - np.count_nonzero(np.isin(near[0], sup)))
    assert max(shells) == deepest


@pytest.mark.parametrize("n, w, l", [(9, 5, 1), (12, 6, 1), (9, 5, 2), (12, 8, 2), (12, 6, 3),
                                     (20, 15, 3)])
def test_swapped_matches_listed_swaps(n, w, l):
    """_swapped decodes swap index a * C(N - w, l) + b into the l-combination
    a of the support positions and b of the inactive slots, each numbered by
    its lexicographic rank: every swap of a few supports, taken in shuffled
    order, is the sorted swap that itertools lists at that index."""
    code = make_code(n, w)
    rng = np.random.default_rng(n * 100 + w + l)
    sup = np.sort(rng.random((5, n)).argsort(axis=1)[:, :w], axis=1).astype(np.int16)
    inact = _usable_swaps(sup, code)[0]
    listed = np.array([listed_swaps(s, i, l) for s, i in zip(sup, inact)], dtype=np.int16)
    n_swaps = math.comb(w, l) * math.comb(n - w, l)
    assert listed.shape == (len(sup), n_swaps, w)
    order = rng.permutation(len(sup) * n_swaps)
    row, swap = np.divmod(order, n_swaps)
    got = _swapped(sup, inact, row, swap, l, code)
    assert got.dtype == sup.dtype
    assert np.array_equal(got, listed[row, swap])


def test_nearest_member_scan_is_bounded():
    """(2000, 1998) passes every limit of make_code, but support 2 .. 1999
    has no usable single swap, and shell 2 of its scan would build 3.99e9
    slot entries: CapacityError names the code and the shell within a
    second, where the scan ran for minutes."""
    code = make_code(2000, 1998)
    sup = np.arange(2, 2000, dtype=np.int16)[None]
    assert not _usable_swaps(sup, code)[1].any()
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"\(2000, 1998\).* shell 2"):
        correct_patterns(sup, code, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0


def _correct_patterns_by_ranking(supports, code, rng, enumerate_members):
    """Reference correction: every single swap of every row is built, sorted
    and ranked.  A row reads one uniform u and takes its usable swap
    floor(u * count) in (support position, inactive slot) order; a row with
    none takes a nearest member by u."""
    cands = _single_swaps(supports, code.n_slots)
    ranks = rank_supports(cands.reshape(-1, code.weight), code).reshape(cands.shape[:2])
    ok = ranks < code.size
    u = rng.random(len(supports))
    out = np.empty_like(supports)
    for row, (cand, usable, v) in enumerate(zip(cands, ok, u)):
        if usable.any():
            out[row] = cand[usable][int(v * np.count_nonzero(usable))]
        else:
            out[row] = _nearest_member_by_scan(supports[row], code, v, enumerate_members)
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
    stream where ranking every single swap leaves it, also on rows without
    a usable single swap, whose nearest members the reference finds by
    enumerating the usable set or by the shell scan."""
    code = make_code(n, w)
    sup = _out_of_set(code, 2348, n * 100 + w)
    assert bool(np.any(_falls_back(sup, code))) == falls_back
    _assert_matches_ranking(sup, code, enumerate_members)


@pytest.mark.parametrize("n, w", [(12, 8), (40, 10), (9, 5)])
def test_correct_patterns_in_swap_blocks(n, w, monkeypatch):
    """Usable-swap blocks of 37 rows, the last one shorter, pick the same
    supports and leave the random stream where one block does, also with
    rows that have no usable single swap ((12, 8), (9, 5))."""
    monkeypatch.setattr("qam_mppm.mppm._SWAP_ENTRIES", 37 * w * (n - w))
    code = make_code(n, w)
    sup = _out_of_set(code, 2348, n * 100 + w)
    _assert_matches_ranking(sup, code, enumerate_members=False)


@pytest.mark.parametrize("n, w", [(12, 8), (9, 5), (40, 10)])
def test_correct_patterns_do_not_depend_on_the_row_split(n, w):
    """Rows corrected in several calls, split at arbitrary points and around
    rows without a usable single swap, give the supports of one call and
    leave the generator in the same state: each row reads one uniform."""
    code = make_code(n, w)
    sup = _out_of_set(code, 500, n * 100 + w)
    lone = np.flatnonzero(_falls_back(sup, code))
    assert bool(len(lone)) == ((n, w) != (40, 10))
    cuts = set(np.random.default_rng(n).integers(1, len(sup), 6).tolist())
    cuts |= {i + d for i in lone[:3].tolist() for d in (0, 1)}
    rng_whole, rng_split = np.random.default_rng(3), np.random.default_rng(3)
    whole = correct_patterns(sup, code, rng_whole)
    parts = [correct_patterns(part, code, rng_split) for part in np.split(sup, sorted(cuts))]
    assert np.array_equal(np.concatenate(parts), whole)
    assert rng_whole.random() == rng_split.random()


@pytest.mark.parametrize("rows_per_block", [None, 37])
@pytest.mark.parametrize("n, w, falls_back", [
    (12, 8, True), (9, 5, True), (67, 65, True), (40, 30, True), (32, 6, False),
])
def test_correct_patterns_pick_from_member_table(n, w, falls_back, rows_per_block, monkeypatch):
    """Each out-of-set row reads one uniform u and decodes to member
    floor(u * count) of the members that correction_stats averages over
    (_member_table), in one usable-swap block and in blocks of 37 rows, also
    on rows without a usable single swap; the generator ends one uniform
    per row further on."""
    if rows_per_block:
        monkeypatch.setattr("qam_mppm.mppm._SWAP_ENTRIES", rows_per_block * w * (n - w))
    code = make_code(n, w)
    sup = _out_of_set(code, 300, n * 100 + w)
    assert bool(np.any(_falls_back(sup, code))) == falls_back
    pats, first, which = np.unique(rank_supports(sup, code), return_index=True,
                                   return_inverse=True)
    members, _, counts, starts = _member_table(pats, sup[first], code)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    fixed = correct_patterns(sup, code, rng)
    u = ref.random(len(sup))
    assert np.array_equal(fixed, members[starts[which] + (u * counts[which]).astype(np.int64)])
    assert rng.random() == ref.random()


def test_rank_table_limit_is_checked_before_the_binomial(monkeypatch):
    """(32767, 32766) passes the slot and rank limits, but its rank table
    would hold 2^30 int64 entries (8 GiB), each a Python binomial: it is
    refused at once, without computing any."""
    def no_comb(*args):
        raise AssertionError("math.comb called for a code past the rank-table limit")

    monkeypatch.setattr(math, "comb", no_comb)
    with pytest.raises(CapacityError, match="rank table"):
        make_code(32767, 32766)


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
    codes = (mask_w + 2 * mask_tx).astype(np.uint8)
    pos = _classify_positions(tx, dec, codes, np.arange(len(tx)))
    counts = np.array([np.bincount(p, minlength=16) for p in pos])[:, _SUM_COLUMNS]
    a_v, a_p, cls = counts[:, 8], counts[:, 9], counts[:, :8].reshape(-1, 2, 4)
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


@pytest.mark.parametrize("n, w", [(12, 6), (10, 3)])
def test_sampled_swap_events_match_listed_combinations(n, w, monkeypatch):
    """Sampled events, draw for draw: the drawn indices pick the swapped-out
    positions and swapped-in inactive slots from itertools' lexicographic
    lists, and the generator ends in the same state. (10, 3) has fewer
    swap-out than swap-in combinations, so the two draws cannot trade places."""
    monkeypatch.setattr("qam_mppm.mppm._STATS_EXACT_EVENTS", 0)
    code = make_code(n, w)
    members = _lex_supports(code).astype(np.int64)
    rng = np.random.Generator(np.random.Philox(7))
    ref = np.random.Generator(np.random.Philox(7))
    for l in range(1, min(w, n - w) + 1):
        blocks = list(_swap_events(code, l, rng))
        assert len(blocks) > 1
        tx, sup, det = (np.concatenate(part) for part in zip(*blocks))
        out = np.array(list(itertools.combinations(range(w), l)))
        into = np.array(list(itertools.combinations(range(n - w), l)))
        ref_tx = ref.integers(0, code.size, len(tx))
        jj = out[ref.integers(0, len(out), len(tx))]
        kk = into[ref.integers(0, len(into), len(tx))]
        ref_sup = members[ref_tx]
        inact = np.array([[s for s in range(n) if s not in row] for row in ref_sup.tolist()])
        ref_det = ref_sup.copy()
        rows = np.arange(len(tx))[:, None]
        ref_det[rows, jj] = inact[rows, kk]
        assert (tx == ref_tx).all()
        assert (sup == ref_sup).all()
        assert (det == np.sort(ref_det, axis=1)).all()
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


def test_correction_stats_exact_for_small_codes():
    assert correction_stats(make_code(12, 6)).exact
    assert correction_stats(make_code(8, 2)).exact


def test_correction_stats_deterministic():
    a = correction_stats(make_code(12, 6))
    b = correction_stats(make_code(12, 6))
    assert a == b


def _stats_bits(st_):
    """Every value of a CorrectionStats, as the bytes of its floats."""
    return np.hstack([st_.rescue_prob, st_.pat_bits, st_.align_v, st_.align_p,
                      np.ravel(st_.classes)]).tobytes()


@pytest.mark.parametrize("block", [777, 1000])
def test_correction_stats_do_not_depend_on_the_block_size(block, monkeypatch):
    """The statistics take the events a block at a time and sum them in
    event order, so every block size gives the same values bit for bit.  At
    777 events per block the 924 patterns of (12, 6) are more than one
    block, so each block builds the member table of its own detections."""
    codes = [make_code(12, 6), make_code(9, 5)]
    monkeypatch.setattr("qam_mppm.mppm._STATS_CACHE", {})
    want = [_stats_bits(correction_stats(code)) for code in codes]
    monkeypatch.setattr("qam_mppm.mppm._STATS_CACHE", {})
    monkeypatch.setattr("qam_mppm.mppm._STATS_BLOCK", block)
    assert [_stats_bits(correction_stats(code)) for code in codes] == want


def test_correction_stats_memory_is_bounded(monkeypatch):
    """correction_stats holds one per-event buffer, the four per-event
    means of the largest l's events, and the temporaries of one block: the
    class means are summed as the blocks go.  For (12, 6), l = 3 has
    512 * 20 * 20 events, and one block's temporaries measured 13.4 MiB."""
    monkeypatch.setattr("qam_mppm.mppm._STATS_CACHE", {})
    code = make_code(12, 6)
    events = code.size * math.comb(6, 3) ** 2
    tracemalloc.start()
    try:
        correction_stats(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * events * 8 + 16 * 2**20


# (exact, float.hex of every value) of correction_stats, in field order:
# rescue_prob, pat_bits, align_v, align_p, then classes flattened. (32, 6) is
# sampled for every l and (16, 10) for l >= 2; (9, 5) and (12, 8) hold
# detections that decode to their nearest members.
_STATS_PINNED = {
    (12, 6): (True, (
        "0x1.6e38e38e38e39p-6", "0x1.e4a3b584c1b57p+1", "0x1.17bb2bbc65700p+2",
        "0x1.260c38d5d9431p+2", "0x1.2601fe799254fp+2", "0x1.20ad9e788b820p+2",
        "0x1.1db80c24860c2p+2", "0x1.c31d9cc97c477p+1", "0x1.2a1194c1e3a4bp+1",
        "0x1.88da5c61bee17p+0", "0x1.db48d455fd066p-1", "0x1.b65ac7233e555p-2",
        "0x0.0p+0", "0x1.faffb7ee1c29bp-4", "0x1.ddafcf8f6944bp-3",
        "0x1.5f16af8033a53p-2", "0x1.d559b72d0461ep-2", "0x1.28871a26571a2p-1",
        "0x1.65d8c2aa48c2ap-1", "0x1.60998dc3f1f8bp-1", "0x1.2a9d0965809a6p-5",
        "0x1.80462e7fc4d4dp-1", "0x0.0p+0", "0x1.1e4244ae54ef3p-2",
        "0x1.2b38d498fff2cp-6", "0x1.282520064a058p-1", "0x0.0p+0",
        "0x1.0675c68995e35p+0", "0x1.83b342c88defap-5", "0x1.3083e40bec443p-1",
        "0x1.0783d6685e45bp-8", "0x1.bab4c0c473864p-1", "0x1.1461fce35e8c3p-5",
        "0x1.bad1c87355953p-1", "0x1.c7631626ad066p-9", "0x1.167a695651e86p+0",
        "0x1.507546d4ba881p-5", "0x1.4f77a49a5ca9ap-2", "0x1.24d3755910f37p-7",
        "0x1.af8180c9ee809p+0", "0x1.7133e94e3e3c4p-5", "0x1.d4b13a486c82fp-1",
        "0x1.6b4b73ae31edfp-7", "0x1.d741197e7c3dep-1", "0x1.993a1c5db5065p-6",
        "0x1.d1adc0719cb72p-4", "0x1.9da24e995e17dp-7", "0x1.598796b0f7f26p+1",
        "0x1.85463813fea9ep-5", "0x1.89ccaa041e020p-1", "0x1.a277840803a84p-6",
        "0x1.1abd586f763bcp-1", "0x1.056d2c2817d7ap-7", "0x0.0p+0",
        "0x1.7fe3d3928e81cp-7", "0x1.f00d1bab3ed70p+1", "0x1.1ca32118f8742p-5",
        "0x1.d46c554e88d35p-2", "0x1.b441a73d96f50p-5", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.4c80000000000p+2", "0x0.0p+0", "0x0.0p+0",
        "0x1.b139eaadb9e9ep-4")),
    (32, 2): (True, (
        "0x1.0000000000000p-6", "0x1.cb57d702fcb09p+1", "0x1.043852dd1278ep+2",
        "0x1.6b8e4cab6b875p-1", "0x0.0p+0", "0x1.f567e0b4cee2ep-6",
        "0x1.a703d798a943ap-5", "0x1.1fd489583b200p-2", "0x1.21dbaa1dbaa20p-7",
        "0x0.0p+0", "0x0.0p+0", "0x1.20aa1dbaa1de0p-1", "0x1.119aa4a3c5499p-2",
        "0x1.1b7543b7543d4p-3", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.7d9611a7b9612p+0", "0x1.cb72a248f160ep-2", "0x0.0p+0",
        "0x1.2a9384a2b715ap-7")),
    (32, 6): (False, (
        "0x1.349782761a3f6p-8", "0x1.d71a3a32bec8bp+2", "0x1.14a885e4128dfp+3",
        "0x1.262d47d71fe8ap+3", "0x1.2d6bd28870e1ep+3", "0x1.317c20b42bdd8p+3",
        "0x1.337e83567415dp+3", "0x1.bda454578893ep+1", "0x1.2513559873213p+1",
        "0x1.8313a5a72aa19p+0", "0x1.cf065adba2110p-1", "0x1.ae1b41eab1ce4p-2",
        "0x0.0p+0", "0x1.cb2a34975c3e1p-6", "0x1.b4e3ac1e9c99bp-5",
        "0x1.2c37dd32212acp-4", "0x1.73c3a3af51addp-4", "0x1.b1bf9494ae9c1p-4",
        "0x1.ee84ae8c5c09dp-4", "0x1.670ba8c2346dbp-1", "0x1.10e8490126f60p-9",
        "0x1.a1521d96a81dap-1", "0x0.0p+0", "0x1.1e16deff4e9e2p-2",
        "0x1.5cbe92dff2a8fp-4", "0x1.37036c7f9f79cp-1", "0x0.0p+0",
        "0x1.0e965d7a615d2p+0", "0x1.19ee0c74a8199p-9", "0x1.4d6766d07607dp-1",
        "0x1.26732185341a2p-15", "0x1.bda0b20b4b8cep-1", "0x1.444a32cfd0af3p-3",
        "0x1.d4561a9dc2d95p-1", "0x1.a86be113a37c8p-9", "0x1.210858e2f7796p+0",
        "0x1.8149d110c7348p-10", "0x1.6df9a8934128ep-2", "0x1.5137325a85f24p-14",
        "0x1.b903717d19e13p+0", "0x1.b0a24e9aace99p-3", "0x1.f736fbc8ac137p-1",
        "0x1.44a47c0c32d06p-7", "0x1.f138aded2794dp-1", "0x1.5fd41dc09f1f0p-10",
        "0x1.f802868244e4bp-4", "0x1.0bc580d6e4aefp-13", "0x1.6470477c3cb56p+1",
        "0x1.05ede430d976dp-2", "0x1.b3a1bc1209a04p-1", "0x1.25b7edd5923bep-6",
        "0x1.2889f653a1b88p-1", "0x1.76f476969f205p-11", "0x0.0p+0",
        "0x1.55732bf6e961dp-14", "0x1.043ff0b8f46ffp+2", "0x1.279c51dfe1200p-2",
        "0x1.04bba02b97fc5p-1", "0x1.e7d7d147c58d2p-6", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.6113404ea4a8cp+2", "0x1.45c2c56b12f2cp-2",
        "0x0.0p+0", "0x1.6b40503c5c061p-5")),
    (9, 5): (True, (
        "0x1.8666666666666p-5", "0x1.539da5202376ap+1", "0x1.7bc7c46298049p+1",
        "0x1.9fc063dc0780ap+1", "0x1.b2f5e4cce2b6bp+1", "0x1.77ef27aca9563p+1",
        "0x1.ddebc5a7a6130p+0", "0x1.1c07e830d4440p+0", "0x1.043d70a3d70a5p-1",
        "0x1.be7109f959c43p-3", "0x1.af59dba28acfap-2", "0x1.3bf7b9032fe5fp-1",
        "0x1.9f94538d729f0p-1", "0x1.4167109f959bdp-1", "0x1.5f15f15f15f14p-8",
        "0x1.b83c49960dbddp-2", "0x0.0p+0", "0x1.4283a83a83a85p-2",
        "0x1.0d8c4d21e9648p-5", "0x1.bc92492492492p-2", "0x0.0p+0",
        "0x1.b6b80f655b1d6p-1", "0x1.2492492492491p-10", "0x1.190cad54dd556p-2",
        "0x1.5f15f15f15f15p-11", "0x1.e675d3951415dp-1", "0x1.fd0eb66fd0ed0p-6",
        "0x1.2dc990612b4fap-1", "0x1.0ace213f2b387p-7", "0x1.95b5075075061p-1",
        "0x0.0p+0", "0x1.907a2c7db46f6p-4", "0x1.5f15f15f15f16p-12",
        "0x1.cfddce434a99dp+0", "0x1.b33333333332ep-7", "0x1.1409dfd13045ep-1",
        "0x1.2ebfbb07ba1d3p-6", "0x1.f7851eb851eb8p-2", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.6b23d70a3d70cp+1", "0x0.0p+0", "0x1.507ae147ae148p-2",
        "0x1.73dbf4b81286dp-6")),
    (12, 8): (True, (
        "0x1.ba00000000000p-6", "0x1.aaa16af25d024p+1", "0x1.eeb222a73482cp+1",
        "0x1.07c4ecf8788cep+2", "0x1.1312d64b3fe8fp+2", "0x1.467fe3e217ccap+2",
        "0x1.d9a45eb62fb32p+1", "0x1.61b62be2b6420p+1", "0x1.06010ead5b158p+1",
        "0x1.7432908cf8620p-3", "0x1.615167df0ff78p-2", "0x1.010b430fd2f0ep-1",
        "0x1.51645144b97cap-1", "0x1.7f503351c0c1cp-1", "0x1.f357e9d0c0a62p-6",
        "0x1.1e8af7277d6c3p+0", "0x0.0p+0", "0x1.bc0a0fefb66d7p-3",
        "0x1.571391c77c4b6p-6", "0x1.29383b52986a4p-1", "0x0.0p+0",
        "0x1.3437e421280cep+0", "0x1.068ba51b4ecd2p-5", "0x1.0ee319379ad88p+0",
        "0x1.67e812032de4bp-8", "0x1.5c1aff4837430p-1", "0x1.efff4a1032df4p-6",
        "0x1.e0c21d76a8955p-1", "0x1.7d1a808b490a5p-8", "0x1.6d58067e3cb39p+0",
        "0x1.3a01829b44b31p-6", "0x1.8e3efa3741e5ep-1", "0x1.9a0f4b2463c27p-7",
        "0x1.57757db6622a3p+0", "0x1.985b0d533bdb5p-6", "0x1.1d08f00ee5fc7p+0",
        "0x1.26a11f605d1fdp-6", "0x1.7397f13d4fc1bp+0", "0x0.0p+0",
        "0x1.ef115da6fed82p-2", "0x1.28667f8e96cc0p-6", "0x1.1672b9034da9cp+1",
        "0x0.0p+0", "0x1.20bc27f79f04dp+0", "0x1.3587abed1ccddp-5")),
    (16, 10): (False, (
        "0x1.db9999999999bp-7", "0x1.358b4eff51ef1p+2", "0x1.69c8468aaab6bp+2",
        "0x1.7c7575d3f4054p+2", "0x1.8517486ff00ecp+2", "0x1.8820afd218c6ep+2",
        "0x1.88778b1cb4b8fp+2", "0x1.9c69bb58be69dp+2", "0x1.3240ddce3ed3bp+2",
        "0x1.dab62438a7c86p+1", "0x1.753e90c73edc6p+1", "0x1.20c168840f602p+1",
        "0x1.ae7c63fe4eb64p+0", "0x1.0df50d11c2c6dp-3", "0x1.0a9dc83d31b88p-2",
        "0x1.83bae2e6ca83bp-2", "0x1.ef55264368461p-2", "0x1.2e143ca20a8efp-1",
        "0x1.6695ed4401a96p-1", "0x1.9ac56d8ce238ep-1", "0x1.4f88b20567567p-7",
        "0x1.be574a7289b2bp+0", "0x0.0p+0", "0x1.6ea614d3d3ca3p-3",
        "0x1.b40ab5e6adb11p-6", "0x1.5338e1d764ccdp-1", "0x0.0p+0",
        "0x1.5e71bbb01738cp+0", "0x1.af139e0788682p-7", "0x1.d4df29df53589p+0",
        "0x1.35efee2c02516p-10", "0x1.1f74856ed1f0fp-1", "0x1.5e00d909a03bep-5",
        "0x1.215ebd7addf21p+0", "0x1.4f86f61fa4c4bp-8", "0x1.b8a8d16a4f6dcp+0",
        "0x1.4e368acddf909p-7", "0x1.8e69a75c98196p+0", "0x1.c9a3645a56d48p-9",
        "0x1.22902b3a1d0e5p+0", "0x1.897dd80d99699p-5", "0x1.6cade6e831633p+0",
        "0x1.c3a331c910d64p-7", "0x1.e9340f0a62357p+0", "0x1.d3c42bc8825a7p-8",
        "0x1.29071f64c0d87p+0", "0x1.73ebd696b28e9p-8", "0x1.dad616a497b9ap+0",
        "0x1.56cdc6994f630p-5", "0x1.980c04ae786cfp+0", "0x1.a48b39d2d3039p-6",
        "0x1.eef1aed99ceb3p+0", "0x1.611c413a100cfp-9", "0x1.9a5972fb378b3p-1",
        "0x1.ae38800b85bf9p-8", "0x1.5c745599f686fp+1", "0x1.bcda248f1bee8p-6",
        "0x1.9d8b68051a87dp+0", "0x1.71ccbc76d6856p-5", "0x1.d216e2cb5a219p+0",
        "0x0.0p+0", "0x1.f75bd123cba16p-2", "0x1.95c4ed64431d5p-8",
        "0x1.dab7940f3c12cp+1", "0x0.0p+0", "0x1.861bf682bc9a2p+0",
        "0x1.129eabcca6b83p-4")),
}


def test_correction_stats_values_are_pinned():
    """The correction statistics of exact, sampled and nearest-member codes,
    every value bit for bit."""
    got = {}
    for n, w in _STATS_PINNED:
        st_ = correction_stats(make_code(n, w))
        vals = [st_.rescue_prob, *st_.pat_bits, *st_.align_v, *st_.align_p]
        vals += [v for cl in st_.classes for row in cl for v in row]
        got[n, w] = (st_.exact, tuple(float(v).hex() for v in vals))
    assert got == _STATS_PINNED
