"""MPPM pattern combinatorics: expurgated set, rank/unrank codec, correction.

Patterns are length-N binary vectors of Hamming weight w.  The expurgated
set keeps the first 2^floor(log2 C(N,w)) patterns in lexicographic order of
their sorted support lists, so a pattern's codeword is simply its rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# mppm_ser_ub imports scipy.special.erfc where it runs, so that a
# simulation-only sweep never loads scipy.

# Pattern ranks are int64, so the weight-w universe must stay below this.
_RANK_LIMIT = 1 << 63
# Supports are int16 slot indices, so codes have at most this many slots.
_MAX_SLOTS = int(np.iinfo(np.int16).max)
# Entries w * (N + 1) of a code's int64 rank table (128 MiB), each one
# Python binomial.
_PREFIX_ENTRIES = 1 << 24
# Single swaps (rows * w * (N - w)) per block of the nearest-member
# correction's usable-swap test and pick: bounds their memory (512 KiB of
# int32 counts).  Every row reads one uniform, drawn before the blocks, so
# the stream does not depend on the size.
_SWAP_ENTRIES = 1 << 17
# Slot entries per block of a nearest-member scan: bounds its memory, and
# blocks that fit in cache rank faster than larger ones.
_SHELL_BLOCK = 1 << 18
# Slot entries per row of one shell of a nearest-member scan: bounds its time.
_SCAN_LIMIT = 1 << 27


class CapacityError(RuntimeError):
    """A computation would exceed one of the program's size limits."""


def bits_per_mppm(n_slots: int, weight: int) -> int:
    """floor(log2 C(N, w)) computed in exact integer arithmetic."""
    if not (1 <= weight <= n_slots - 1):
        raise ValueError(f"weight must be in [1, {n_slots - 1}], got {weight}")
    return math.comb(n_slots, weight).bit_length() - 1


@dataclass(frozen=True)
class MppmCode:
    """Expurgated fixed-weight pattern code over N slots.

    size = 2^q patterns are usable.  rank_prefix[j][t] = -C(N-t, w-j), whose
    differences are the lex rank's per-position block sums (see make_code).
    last is the sorted support of the last usable pattern, rank size - 1,
    which the correction's membership tests compare against.
    """

    n_slots: int
    weight: int
    q_mppm: int
    size: int
    rank_prefix: np.ndarray = field(repr=False)
    last: np.ndarray = field(repr=False)


def make_code(n_slots: int, weight: int) -> MppmCode:
    if n_slots < 2:
        raise ValueError("need at least 2 slots")
    n, w = n_slots, weight
    # Before any binomial, which for a huge N would run for minutes.
    if n > _MAX_SLOTS:
        raise CapacityError(f"supports are 16-bit slot indices, so codes need N <= {_MAX_SLOTS}; "
                            f"got N = {n}")
    if 0 < w < n and w * (n + 1) > _PREFIX_ENTRIES:  # else bits_per_mppm refuses w
        raise CapacityError(f"the rank table holds w * (N + 1) entries, at most {_PREFIX_ENTRIES}; "
                            f"({n}, {w}) needs {w * (n + 1)}")
    q = bits_per_mppm(n, w)
    size = 1 << q
    if math.comb(n, w) >= _RANK_LIMIT:
        raise CapacityError(
            "pattern ranks are 64-bit integers, so codes need C(N, w) < 2^63; "
            f"({n}, {w}) has C(N, w) >= 2^{q}"
        )
    prefix = _rank_prefix(n, w)
    return MppmCode(n_slots=n, weight=w, q_mppm=q, size=size, rank_prefix=prefix,
                    last=_unrank([size - 1], n, prefix)[0])


def _rank_prefix(n: int, w: int) -> np.ndarray:
    """rank_prefix[j][t] = -C(n-t, w-j) for t >= j, so that
    rank_prefix[j][b] - rank_prefix[j][a] = sum_{a <= u < b} C(n-1-u, w-1-j),
    the lex rank's block sum.  No entry exceeds C(n-j, w-j) <= C(n, w) in
    magnitude; entries t < j are never read."""
    prefix = np.zeros((w, n + 1), dtype=np.int64)
    for j in range(w):
        prefix[j, j:] = [-math.comb(n - t, w - j) for t in range(j, n + 1)]
    return prefix


def rank_supports(supports: np.ndarray, code: MppmCode) -> np.ndarray:
    """Vectorized lex rank for an (n, w) array of sorted supports.

    The rank is the sum over the columns j of prefix[j, sup[:, j]] -
    prefix[j, sup[:, j - 1] + 1] (prefix[0, 0] for j = 0), gathered for all
    columns at once from the flat table in (w, n) order, so that the sum
    adds whole rows.  int64 sums wrap modulo 2^64, so the total is exact in
    any order: the rank itself is below 2^63.
    """
    flat = code.rank_prefix.ravel()
    col = supports.T
    row = np.arange(code.weight)[:, None] * (code.n_slots + 1)  # prefix[j] is flat[row[j]:]
    at = np.add(col, row, order="C")
    r = np.take(flat, at)
    np.add(col[:-1], row[1:] + 1, out=at[1:])
    r[1:] -= np.take(flat, at[1:])
    return r.sum(axis=0) - flat[0]


def unrank_supports(ranks, code: MppmCode) -> np.ndarray:
    """Vectorized unrank: (n, w) int16 sorted supports of the given ranks.

    The combinatorial number system, one column at a time: column j takes
    the last slot c of j .. N - w + j, over which prefix[j] increases, whose
    block sum from the previous slot + 1 fits in the rank left over.
    """
    return _unrank(ranks, code.n_slots, code.rank_prefix)


def _unrank(ranks, n: int, rank_prefix: np.ndarray) -> np.ndarray:
    """unrank_supports over the weight-len(rank_prefix) subsets of n slots."""
    w = len(rank_prefix)
    left = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(left), w), dtype=np.int16)
    start = np.zeros(len(left), dtype=np.int64)
    for j, prefix in enumerate(rank_prefix):
        target = left + prefix[start]
        c = np.searchsorted(prefix[j : n - w + j + 1], target, side="right") + (j - 1)
        out[:, j] = c
        left, start = target - prefix[c], c + 1
    return out


def _inactive(sup: np.ndarray, n: int) -> np.ndarray:
    """Each row's inactive slots, those of 0 .. n - 1 that the sorted
    support sup[row] does not hold, in increasing order as sup's dtype."""
    mask = np.ones((len(sup), n), dtype=bool)
    mask[np.arange(len(sup))[:, None], sup] = False
    return np.nonzero(mask)[1].reshape(len(sup), n - sup.shape[1]).astype(sup.dtype)


def _usable_swaps(sup: np.ndarray, code: MppmCode):
    """Which single swaps of sorted supports give usable patterns.

    Returns (inact, ok): inact (rows, N - w) lists each row's inactive
    slots in increasing order, and ok (rows, w*(N - w)) marks the swap of
    sup[:, j] for inact[:, k] at column j*(N - w) + k.

    Membership is decided without building the swaps.  The usable patterns
    are those up to the last one, L, in lexicographic order, and a pattern
    A precedes L exactly when the smallest slot of A ^ L (symmetric
    difference) lies in A.  So A is usable when that slot is not in L or
    when A = L.  Swapping slot s out of S and inactive slot k in toggles s
    and k in S ^ L, so the smallest slot of each swap's difference follows
    from the three smallest slots of S ^ L.
    """
    n, w = code.n_slots, code.weight
    in_last = np.zeros(n + 1, dtype=bool)  # slot n stands for an empty difference
    in_last[code.last] = True
    inact = _inactive(sup, n)
    # Three smallest slots of S ^ L, the slots of S not in L and the
    # inactive ones in L (n where it has fewer), then per swap (j, k) the
    # smallest of them that the swap does not toggle away.
    diff = np.concatenate([np.where(in_last[sup], n, sup), np.where(in_last[inact], inact, n),
                           np.full((len(sup), 1), n, dtype=sup.dtype)], axis=1)
    d = np.sort(diff, axis=1)[:, :3, None, None]
    s = sup[:, :, None]
    k = inact[:, None, :]
    first = np.where((d[:, 0] != s) & (d[:, 0] != k), d[:, 0],
                     np.where((d[:, 1] != s) & (d[:, 1] != k), d[:, 1], d[:, 2]))
    # s enters the difference when L holds it, k when L lacks it.
    np.minimum(first, np.where(in_last[s], s, n), out=first)
    np.minimum(first, np.where(in_last[k], n, k), out=first)
    return inact, np.take(~in_last, first).reshape(len(sup), w * (n - w))


def _swapped(sup, inact, row, swap, l, code):
    """Sorted sup[row] with the l support positions of combination a replaced
    by the l slots of inact[row] of combination b, swap = a * C(N - w, l) + b,
    a combination numbered by its lex rank (l = 1: _usable_swaps' order)."""
    n, w = code.n_slots, code.weight
    out, into = np.divmod(swap, math.comb(n - w, l))
    det = np.take(sup, row, axis=0)
    det[np.arange(len(det))[:, None], _unrank(out, w, _rank_prefix(w, l))] = (
        inact[row[:, None], _unrank(into, n - w, _rank_prefix(n - w, l))])
    return np.sort(det, axis=1)


def correct_patterns(supports: np.ndarray, code: MppmCode,
                     rng: np.random.Generator) -> np.ndarray:
    """Vectorized nearest-member correction for out-of-set sorted supports.

    Each row reads one uniform u from rng, in row order, so the picks and the
    stream do not depend on how the rows are split between calls.  A row
    takes member floor(u * count) of its nearest members in _member_table's
    order: its usable single swaps (squared distance 2) in (support
    position, inactive slot) order, or, when it has none, its nearest
    members in rank order.
    """
    u = rng.random(len(supports))
    out = supports.copy()
    step = max(1, _SWAP_ENTRIES // (code.weight * (code.n_slots - code.weight)))
    for lo in range(0, len(out), step):
        sub, v = out[lo : lo + step], u[lo : lo + step]
        inact, ok = _usable_swaps(sub, code)
        seen = np.cumsum(ok, axis=1, dtype=np.int32)
        count = seen[:, -1]
        # The picked swap is the first whose running count passes floor(u * count).
        jk = np.argmax(seen > (v * count).astype(np.int32)[:, None], axis=1)
        rows = np.flatnonzero(count)
        sub[rows] = _swapped(sub, inact, rows, jk[rows], 1, code)
        lone = np.flatnonzero(count == 0)
        if len(lone):
            members, counts = _nearest_members(sub[lone], inact[lone], code)
            sub[lone] = members[np.cumsum(counts) - counts + (v[lone] * counts).astype(np.int64)]
    return out


def _nearest_members(sup: np.ndarray, inact: np.ndarray, code: MppmCode):
    """Usable patterns sharing the most slots with each row of sorted
    supports sup (inactive slots inact): those of the first distance shell
    (swap one slot, then two, ...) that has any, scanned for all rows still
    without members at once, in blocks of about _SHELL_BLOCK slot entries
    (CapacityError past _SCAN_LIMIT).  Returns (members, counts): row i's
    counts[i] members follow those of the rows before it, in rank order.

    A sorted candidate is usable when it equals the last usable pattern L
    or precedes it lexicographically, as in _usable_swaps: at the first
    column where they differ it holds the smaller slot.  Only the usable
    candidates are ranked, to order them."""
    n, w, last = code.n_slots, code.weight, code.last
    found, owner, rank = [sup[:0]], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    pending = np.arange(len(sup))
    for shell in range(1, min(w, n - w) + 1):
        if not len(pending):
            break
        swaps = math.comb(w, shell) * math.comb(n - w, shell)  # per row
        if swaps * w > _SCAN_LIMIT:
            raise CapacityError(f"the nearest-member scan of ({n}, {w}) needs {swaps * w:.3g} slot "
                                f"entries per row in shell {shell}, more than its {_SCAN_LIMIT}")
        step, total = max(1, _SHELL_BLOCK // w), len(pending) * swaps
        for lo in range(0, total, step):
            pair = np.arange(lo, min(lo + step, total))
            row = pending[pair // swaps]
            cands = _swapped(sup, inact, row, pair % swaps, shell, code)
            col = (cands != last).argmax(axis=1)  # 0 where a candidate is L
            usable = cands[np.arange(len(cands)), col] <= last[col]
            if usable.any():
                found.append(cands[usable])
                owner.append(row[usable])
                rank.append(rank_supports(found[-1], code))
        pending = np.setdiff1d(pending, np.concatenate(owner))
    owner = np.concatenate(owner)
    members = np.concatenate(found)[np.lexsort((np.concatenate(rank), owner))]
    return members, np.bincount(owner, minlength=len(sup))


@dataclass(frozen=True)
class CorrectionStats:
    """Code-geometry averages over erroneous sorted-slot patterns.

    All quantities are means over a transmitted pattern drawn from the
    usable set and a uniformly random l-slot swap (l active slots replaced
    by l inactive ones), followed by the nearest-member correction rule.
    Tuples are indexed by l - 1 for l = 1 .. min(w, N - w):

    rescue_prob  probability that a single-swap detection decodes back to
                 the transmitted pattern (multi-swap rescues are impossible
                 because the correction moves Hamming distance 2 while the
                 detected pattern is at distance >= 4),
    pat_bits[l-1]  expected Hamming distance between the transmitted and
                 decoded pattern words (rescues contribute zero),
    align_v/align_p[l-1]  expected number of positions at which the decoded
                 support lists the same slot as the transmitted one, split
                 by the slot's fate in the sort: align_v counts retained
                 signal slots (metric above the selection threshold),
                 align_p displaced signal slots re-included by correction.

    Misaligned positions are tallied in classes[l-1] as a 2x4 count matrix
    indexed by the word source on the transmitted side (retained signal,
    displaced signal) and the slot type on the decoded side (entered noise
    slot, other noise slot, retained signal slot, displaced signal slot).
    These splits let the error-rate machinery pair each side with its
    metric-conditioned symbol-label distribution instead of assuming
    uniform labels.
    """

    rescue_prob: float
    pat_bits: tuple[float, ...]
    align_v: tuple[float, ...]
    align_p: tuple[float, ...]
    classes: tuple[tuple[tuple[float, ...], ...], ...]
    exact: bool

    @property
    def max_swaps(self) -> int:
        return len(self.pat_bits)


_STATS_CACHE: dict[tuple[int, int], CorrectionStats] = {}
_SPECTRUM_LIMIT = 1 << 13
_SPECTRUM_CACHE: dict[tuple[int, int], dict[int, int]] = {}
_STATS_EXACT_EVENTS = 300_000
_STATS_SAMPLES = 20_000
_STATS_SEED = 0x5EED
# Events per block of the correction statistics: bounds their memory.
_STATS_BLOCK = 1 << 13
# A decoded position's code is 4 * t + d: d is the code of the decoded slot,
# t that of the transmitted slot at the same position with bit 1 cleared
# when the two slots differ; a slot's code has bit 0 set when the raw
# selection holds it and bit 1 when the transmitted support does.  Per-event
# sums are taken over these 16 codes, with two that no position takes (8, 9)
# holding rescue and pattern bits.  Columns of the sums, in the order of
# _decode_swap_rows: the misaligned classes 4 * word side + slot side (see
# CorrectionStats), aligned retained (15) and displaced (10) positions,
# rescue and pattern bits.
_SUM_COLUMNS = np.array([5, 4, 7, 6, 1, 0, 3, 2, 15, 10, 8, 9])


def _classify_positions(tx_sup, dec, codes, row):
    """Position codes of decoded supports against the transmitted ones.

    dec is (pairs, w) sorted decoded supports, each compared with the sorted
    transmitted support tx_sup[row] of its event; codes (events, N_slots)
    holds each event's slot codes.  Returns the (pairs, w) uint8 position
    codes described at _SUM_COLUMNS.
    """
    # Row gathers by np.take: fancy indexing copies short rows far slower.
    t = 4 * (np.take_along_axis(codes, tx_sup, axis=1) & 1)
    aligned = (dec == np.take(tx_sup, row, axis=0)).view(np.uint8)
    return (np.take(t, row, axis=0) + 8 * aligned
            + np.take(codes, dec + codes.shape[1] * row[:, None]))


def _member_table(pats, sup, code):
    """The members each detected pattern decodes to: itself when it is in
    the usable set, else its in-set single-swap neighbors, else its nearest
    members (the correction rule).

    pats are distinct pattern ranks and sup their sorted supports.  Returns
    (members, ranks, counts, starts): pattern i's counts[i] members start at
    starts[i], after those of the patterns before it, in (self, j, k) order
    and then the nearest ones.
    """
    inset, outside = np.flatnonzero(pats < code.size), np.flatnonzero(pats >= code.size)
    inact, ok = _usable_swaps(sup[outside], code)
    swap_of, jk = np.nonzero(ok)
    # Without a usable single swap, the correction draws from all nearest
    # members. Such patterns need w > N/2: otherwise moving the first slot
    # to slot 0 gives a usable pattern.
    alone = ~ok.any(axis=1)
    near, n_near = _nearest_members(sup[outside[alone]], inact[alone], code)
    owner = np.concatenate([inset, outside[swap_of], np.repeat(outside[alone], n_near)])
    swaps = _swapped(sup[outside], inact, swap_of, jk, 1, code)
    members = np.concatenate([sup[inset], swaps, near])
    members = members[np.argsort(owner, kind="stable")]
    counts = np.bincount(owner, minlength=len(pats))
    return members, rank_supports(members, code), counts, np.cumsum(counts) - counts


def _decode_swap_rows(tx_rank, tx_sup, det, code, table=None):
    """Per-event expectations over the members a detection decodes to.

    table is the _member_table of every pattern, in rank order; without
    one, that of the block's detected patterns is built here.  Returns
    (events, 12) means: the eight misaligned classes, aligned retained (a_v)
    and displaced (a_p) positions, rescue and pattern bits.  Each is an
    integer sum over the event's members, taken for all events and position
    codes with one bincount, divided by its member count.
    """
    n_rows, n, w = len(det), code.n_slots, code.weight
    which = rank_supports(det, code)
    if table is None:
        pats, first, which = np.unique(which, return_index=True, return_inverse=True)
        table = _member_table(pats, det[first], code)
    members, mem_rank, n_of, first_mem = table
    # Row-major (event, member) pairs over the members of each event's pattern.
    n_mem = n_of[which]
    row = np.repeat(np.arange(n_rows), n_mem)
    mem = np.arange(len(row)) + np.repeat(first_mem[which] - np.cumsum(n_mem) + n_mem, n_mem)
    codes = np.zeros(n_rows * n, dtype=np.uint8)
    base = n * np.arange(n_rows)[:, None]
    codes[tx_sup + base] = 2
    codes[det + base] += 1
    index = np.empty((len(row), w + 2), dtype=np.int64)
    index[:, :w] = _classify_positions(tx_sup, np.take(members, mem, axis=0),
                                       codes.reshape(n_rows, n), row)
    index[:, w:] = (8, 9)  # rescue, pattern bits
    index += 16 * row[:, None]
    weight = np.ones(index.shape)
    tx_of, mem_of = tx_rank[row], mem_rank[mem]
    weight[:, w] = mem_of == tx_of
    weight[:, w + 1] = np.bitwise_count(tx_of ^ mem_of)
    sums = np.bincount(index.ravel(), weight.ravel(), minlength=16 * n_rows)
    return sums.reshape(n_rows, 16)[:, _SUM_COLUMNS] / n_mem[:, None]


def _swap_count(code: MppmCode, l: int) -> tuple[int, bool]:
    """Number of l-swap events the statistics average over, and whether
    they are all of them (at most _STATS_EXACT_EVENTS) or a sample."""
    n, w = code.n_slots, code.weight
    count = code.size * math.comb(w, l) * math.comb(n - w, l)
    return (count, True) if count <= _STATS_EXACT_EVENTS else (_STATS_SAMPLES, False)


def correction_events(code: MppmCode) -> int:
    """Number of events correction_stats averages over, all l together."""
    return sum(_swap_count(code, l)[0]
               for l in range(1, min(code.weight, code.n_slots - code.weight) + 1))


def _swap_events(code: MppmCode, l: int, rng: np.random.Generator):
    """l-swap events in blocks of at most _STATS_BLOCK: transmitted ranks,
    their supports and the sorted detected supports.

    An event is a transmitted rank and a _swapped index.  Exact: all events
    in order of (rank, swap).  Sampled: _STATS_SAMPLES events, the rank and
    the swap's out and in combinations drawn in turn.
    """
    n, w = code.n_slots, code.weight
    n_out, n_in = math.comb(w, l), math.comb(n - w, l)
    count, exact = _swap_count(code, l)
    if not exact:
        draws = (rng.integers(0, code.size, count),
                 rng.integers(0, n_out, count) * n_in + rng.integers(0, n_in, count))
    for lo in range(0, count, _STATS_BLOCK):
        tx, swap = (np.divmod(np.arange(lo, min(lo + _STATS_BLOCK, count)), n_out * n_in)
                    if exact else (d[lo : lo + _STATS_BLOCK] for d in draws))
        ranks, which = np.unique(tx, return_inverse=True)
        sup_u = unrank_supports(ranks, code)
        yield tx, np.take(sup_u, which, axis=0), _swapped(sup_u, _inactive(sup_u, n), which,
                                                           swap, l, code)


def correction_stats(code: MppmCode) -> CorrectionStats:
    """Sorted-detection error geometry averages for the usable set.

    Exact enumeration for small codes; large codes are sampled with a fixed
    internal seed so the result is still deterministic.  Events are decoded
    a block at a time; per l, four of the per-event means are kept in event
    order and the eight class means are summed as the blocks go.
    """
    key = (code.n_slots, code.weight)
    if key in _STATS_CACHE:
        return _STATS_CACHE[key]
    if code.q_mppm > 20:
        raise CapacityError(
            "correction statistics are computed only for codes of at most 2^20 patterns; "
            f"({code.n_slots}, {code.weight}) has 2^{code.q_mppm}"
        )
    n, w = code.n_slots, code.weight
    rng = np.random.Generator(np.random.Philox(_STATS_SEED))
    # A code of at most _STATS_BLOCK patterns builds the members of all of
    # them once; a larger one builds those of each block's detected patterns.
    table = None
    if math.comb(n, w) <= _STATS_BLOCK:
        every = np.arange(math.comb(n, w))
        table = _member_table(every, unrank_supports(every, code), code)
    exact = True
    rescue = 0.0
    pat_bits: list[float] = []
    align_v: list[float] = []
    align_p: list[float] = []
    classes: list[tuple] = []
    swaps = [_swap_count(code, l) for l in range(1, min(w, n - w) + 1)]
    # The mean of a contiguous row is a pairwise sum, so a_v, a_p, rescue and
    # pattern bits keep every event's value: each l writes them into one
    # buffer sized for the largest l, so no l's arrays outlive it.
    # Allocating and freeing them per l instead left about 20 MB of freed
    # heap resident after the call (glibc raises its mmap threshold as large
    # blocks are freed).  The class means need only a running sum: numpy
    # sums axis 0 of a C-ordered (rows, 8) array one row at a time, so adding
    # the running sum into a block's first row and reducing the block adds
    # every event in order, as one reduction over all of them would.
    largest = max(count for count, _ in swaps)
    event_buf = np.empty((4, largest))  # a_v, a_p, rescue, pattern bits
    for l, (count, exact_l) in enumerate(swaps, start=1):
        exact = exact and exact_l
        per_event = event_buf[:, :count]
        cls_sum = np.zeros(8)
        lo = 0
        for tx, sup, det in _swap_events(code, l, rng):
            means = _decode_swap_rows(tx, sup, det, code, table)
            # means is F-ordered; reduced as it is, its columns sum pairwise.
            block = np.ascontiguousarray(means[:, :8])
            block[0] += cls_sum
            cls_sum = np.add.reduce(block, axis=0)
            per_event[:, lo : lo + len(tx)] = means[:, 8:].T
            lo += len(tx)
        av, ap, resc, pb = per_event
        if l == 1:
            rescue = float(resc.mean())
        pat_bits.append(float(pb.mean()))
        align_v.append(float(av.mean()))
        align_p.append(float(ap.mean()))
        classes.append(
            tuple(tuple(float(v) for v in row) for row in (cls_sum / count).reshape(2, 4))
        )

    stats = CorrectionStats(
        rescue_prob=rescue,
        pat_bits=tuple(pat_bits),
        align_v=tuple(align_v),
        align_p=tuple(align_p),
        classes=tuple(classes),
        exact=exact,
    )
    _STATS_CACHE[key] = stats
    return stats


def k_l(n_slots: int, weight: int, missed: int) -> Fraction:
    """Weight of the event that an erroneous pattern misses exactly l slots."""
    if not (1 <= missed <= min(weight, n_slots - weight)):
        raise ValueError("missed-slot count out of range")
    return Fraction(
        math.comb(weight, missed) * math.comb(n_slots - weight, missed),
        math.comb(n_slots, weight) - 1,
    )


def ne_mppm(q_mppm: int) -> float:
    """Expected erroneous pattern bits per pattern detection error."""
    if q_mppm < 1:
        raise ValueError("q_mppm must be >= 1")
    return q_mppm * (1 << (q_mppm - 1)) / ((1 << q_mppm) - 1)


def distance_spectrum(code: MppmCode) -> dict[int, int]:
    """Ordered pair counts by squared distance over the usable set.

    Computed once per (N, w).  Raises CapacityError for codes of more than
    8192 patterns or more than 64 slots (a pattern's slots are one uint64).
    """
    key = (code.n_slots, code.weight)
    if key in _SPECTRUM_CACHE:
        return _SPECTRUM_CACHE[key]
    if code.n_slots > 64 or code.size > _SPECTRUM_LIMIT:
        raise CapacityError(
            f"the distance spectrum is computed only for codes of at most {_SPECTRUM_LIMIT} "
            f"patterns and 64 slots; ({code.n_slots}, {code.weight}) has {code.size} patterns"
        )
    sup = unrank_supports(np.arange(code.size), code).astype(np.uint64)
    bits = np.bitwise_or.reduce(np.uint64(1) << sup, axis=1)
    spectrum: dict[int, int] = {}
    block = 1024
    for lo in range(0, code.size, block):
        overlap = np.bitwise_count(bits[lo : lo + block, None] & bits[None, :])
        d2 = 2 * (code.weight - overlap.astype(np.int64))
        vals, counts = np.unique(d2, return_counts=True)
        for v, cnt in zip(vals, counts):
            spectrum[int(v)] = spectrum.get(int(v), 0) + int(cnt)
    spectrum.pop(0, None)  # self pairs
    _SPECTRUM_CACHE[key] = spectrum
    return spectrum


def mppm_ser_ub(code: MppmCode, scale: float) -> float:
    """Union bound on the pattern symbol error probability, clamped to 1.

    scale is T_s*I_ph^2 / sigma_n^2; pairwise terms erfc(sqrt(scale*d^2/8))
    are averaged over transmitted patterns of the usable set.
    """
    from scipy.special import erfc

    if scale < 0:
        raise ValueError("scale must be >= 0")
    spec = distance_spectrum(code)
    total = 0.0
    for d2, cnt in spec.items():
        total += cnt * erfc(np.sqrt(scale * d2 / 8.0))
    val = total / (2.0 * code.size)
    return float(min(val, 1.0))
