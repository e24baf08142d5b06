"""MPPM pattern combinatorics: expurgated set, rank/unrank codec, correction.

Patterns are length-N binary vectors of Hamming weight w.  The expurgated
set keeps the first 2^floor(log2 C(N,w)) patterns in lexicographic order of
their sorted support lists, so a pattern's codeword is simply its rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import erfc

# Pattern ranks are int64, so the weight-w universe must stay below this.
_RANK_LIMIT = 1 << 63
# Rows per vectorized single-swap candidate block.
_CORRECTION_CHUNK = 2048
# Slot entries per block of a nearest-member scan: bounds its memory, and
# blocks that fit in cache rank faster than larger ones.
_SHELL_BLOCK = 1 << 18


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
    """

    n_slots: int
    weight: int
    q_mppm: int
    size: int
    rank_prefix: np.ndarray = field(repr=False)


def make_code(n_slots: int, weight: int) -> MppmCode:
    if n_slots < 2:
        raise ValueError("need at least 2 slots")
    q = bits_per_mppm(n_slots, weight)
    size = 1 << q
    n, w = n_slots, weight
    if math.comb(n, w) >= _RANK_LIMIT:
        raise CapacityError(
            "pattern ranks are 64-bit integers, so codes need C(N, w) < 2^63; "
            f"({n}, {w}) has C(N, w) >= 2^{q}"
        )
    # rank_prefix[j][t] = -C(n-t, w-j) for t >= j, so that
    # rank_prefix[j][b] - rank_prefix[j][a] = sum_{a <= u < b} C(n-1-u, w-1-j),
    # the lex rank's block sum.  No entry exceeds C(n-j, w-j) <= C(n, w) in
    # magnitude; entries t < j are never read.
    prefix = np.zeros((w, n + 1), dtype=np.int64)
    for j in range(w):
        prefix[j, j:] = [-math.comb(n - t, w - j) for t in range(j, n + 1)]
    return MppmCode(n_slots=n, weight=w, q_mppm=q, size=size, rank_prefix=prefix)


def rank_support(support, code: MppmCode) -> int:
    """Lexicographic rank of a sorted support list among all weight-w patterns."""
    r = 0
    prev = -1
    for j, c in enumerate(support):
        r += int(code.rank_prefix[j, c]) - int(code.rank_prefix[j, prev + 1])
        prev = c
    return r


def rank_supports(supports: np.ndarray, code: MppmCode) -> np.ndarray:
    """Vectorized lex rank for an (n, w) array of sorted supports."""
    sup = supports.astype(np.int64)
    prefix = code.rank_prefix
    r = prefix[0, sup[:, 0]] - prefix[0, 0]
    for j in range(1, code.weight):
        r += prefix[j, sup[:, j]] - prefix[j, sup[:, j - 1] + 1]
    return r


def unrank(r: int, code: MppmCode) -> tuple[int, ...]:
    """Sorted support of the pattern with lexicographic rank r."""
    n, w = code.n_slots, code.weight
    support = []
    c = 0
    for j in range(w):
        while True:
            block = math.comb(n - 1 - c, w - 1 - j)
            if r < block:
                break
            r -= block
            c += 1
        support.append(c)
        c += 1
    return tuple(support)


def unrank_supports(ranks, code: MppmCode) -> np.ndarray:
    """Vectorized unrank: (n, w) int16 sorted supports of the given ranks.

    The combinatorial number system, one column at a time: column j takes
    the last slot c of j .. N - w + j, over which prefix[j] increases, whose
    block sum from the previous slot + 1 fits in the rank left over.
    """
    n, w = code.n_slots, code.weight
    left = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(left), w), dtype=np.int16)
    start = np.zeros(len(left), dtype=np.int64)
    for j, prefix in enumerate(code.rank_prefix):
        target = left + prefix[start]
        c = np.searchsorted(prefix[j : n - w + j + 1], target, side="right") + (j - 1)
        out[:, j] = c
        left, start = target - prefix[c], c + 1
    return out


def pattern_from_support(support, n_slots: int) -> np.ndarray:
    p = np.zeros(n_slots, dtype=np.uint8)
    p[list(support)] = 1
    return p


def encode_mppm(word: int, code: MppmCode) -> np.ndarray:
    """Pattern carrying the given q_mppm-bit word (unrank of the word)."""
    if not isinstance(word, (int, np.integer)) or not 0 <= word < code.size:
        raise ValueError(f"word must be an integer in [0, {code.size}), got {word!r}")
    return pattern_from_support(unrank_supports([word], code)[0], code.n_slots)


def decode_mppm(pattern: np.ndarray, code: MppmCode) -> int:
    """Rank of an expurgated-set pattern, i.e. its bit word."""
    pattern = np.asarray(pattern)
    support = np.flatnonzero(pattern)
    if (pattern.shape != (code.n_slots,) or len(support) != code.weight
            or not np.isin(pattern, (0, 1)).all()):
        raise ValueError(f"pattern must be {code.n_slots} slots of 0/1 with {code.weight} ones")
    r = rank_support(support, code)
    if r >= code.size:
        raise ValueError("pattern not in the expurgated set")
    return r


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
    in_last[unrank_supports([code.size - 1], code)[0]] = True
    mask = np.zeros((len(sup), n), dtype=bool)
    mask[np.arange(len(sup))[:, None], sup] = True
    inact = np.nonzero(~mask)[1].reshape(len(sup), n - w).astype(sup.dtype)
    # Three smallest slots of S ^ L (n where it has fewer), then per swap
    # (j, k) the smallest of them that the swap does not toggle away.
    d = np.sort(np.where(mask ^ in_last[:n], np.arange(n, dtype=sup.dtype), n), axis=1)[:, :3]
    d = np.pad(d, ((0, 0), (0, 3 - d.shape[1])), constant_values=n)[:, :, None, None]
    s = sup[:, :, None]
    k = inact[:, None, :]
    first = np.where((d[:, 0] != s) & (d[:, 0] != k), d[:, 0],
                     np.where((d[:, 1] != s) & (d[:, 1] != k), d[:, 1], d[:, 2]))
    # s enters the difference when L holds it, k when L lacks it.
    first = np.minimum(first, np.where(in_last[s], s, n))
    first = np.minimum(first, np.where(in_last[k], n, k))
    return inact, ~in_last[first].reshape(len(sup), w * (n - w))


def correct_patterns(supports: np.ndarray, code: MppmCode,
                     rng: np.random.Generator) -> np.ndarray:
    """Vectorized nearest-member correction for out-of-set sorted supports.

    A uniform random usable single swap (squared distance 2) is taken; rows
    with none take a uniform random member among all the nearest ones.
    """
    n, w = code.n_slots, code.weight
    out = supports.copy()
    for lo in range(0, len(supports), _CORRECTION_CHUNK):
        sub = supports[lo : lo + _CORRECTION_CHUNK]
        rows = np.arange(len(sub))
        inact, ok = _usable_swaps(sub, code)
        u = rng.random(ok.shape)
        u[~ok] = -1.0
        pick = np.argmax(u, axis=1)
        chosen = sub.copy()
        chosen[rows, pick // (n - w)] = inact[rows, pick % (n - w)]
        chosen.sort(axis=1)
        lone = np.flatnonzero(~ok.any(axis=1))
        members, counts = _nearest_members(sub[lone], inact[lone], code)
        for row, first, count in zip(lone, np.cumsum(counts) - counts, counts):
            chosen[row] = members[first + rng.integers(count)]
        out[lo : lo + _CORRECTION_CHUNK] = chosen
    return out


def _nearest_members(sup: np.ndarray, inact: np.ndarray, code: MppmCode):
    """Usable patterns sharing the most slots with each row of sorted
    supports sup (inactive slots inact): those of the first distance shell
    (swap one slot, then two, ...) that has any, scanned for all rows still
    without members at once, in blocks of about _SHELL_BLOCK slot entries.
    Returns (members, counts): row i's counts[i] members follow those of the
    rows before it, in rank order.

    A sorted candidate is usable when it equals the last usable pattern L
    or precedes it lexicographically, as in _usable_swaps: at the first
    column where they differ it holds the smaller slot.  Only the usable
    candidates are ranked, to order them."""
    n, w = code.n_slots, code.weight
    last = unrank_supports([code.size - 1], code)[0]
    found, owner, rank = [sup[:0]], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    pending = np.arange(len(sup))
    for shell in range(1, min(w, n - w) + 1):
        if not len(pending):
            break
        rem = np.array(list(itertools.combinations(range(w), shell)))
        add = np.array(list(itertools.combinations(range(n - w), shell)))
        pairs = np.arange(len(pending) * len(rem))  # (row, removed slots)
        for pair in np.array_split(pairs, 1 + len(pairs) * len(add) * w // _SHELL_BLOCK):
            row, part = pending[pair // len(rem)], rem[pair % len(rem)]
            cands = np.repeat(sup[row, None], len(add), axis=1)
            cands[np.arange(len(pair))[:, None, None], np.arange(len(add))[:, None],
                  part[:, None]] = inact[row][:, add]
            cands = np.sort(cands.reshape(-1, w), axis=1)
            col = (cands != last).argmax(axis=1)  # 0 where a candidate is L
            usable = cands[np.arange(len(cands)), col] <= last[col]
            found.append(cands[usable])
            owner.append(np.repeat(row, len(add))[usable])
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


def _classify_positions(tx_sup, det, mask_tx, mask_w):
    """Position classes of decoded supports against the transmitted ones.

    tx_sup and det are (rows, w) sorted supports; mask_tx / mask_w are
    (rows, N_slots) membership masks for the transmitted support and the
    raw sorted selection.  Returns per row: aligned counts split by
    retained vs displaced slots and a (2, 4) misaligned class count matrix
    (word side: retained/displaced; slot side: entered noise / other
    noise / retained signal / displaced signal).
    """
    n_rows, n_slots = mask_tx.shape
    row_base = n_slots * np.arange(n_rows)[:, None]
    # slot side per slot: 0 entered noise, 1 other noise, 2 retained, 3 displaced
    slot_of = 2 * mask_tx + ~mask_w
    tx_disp = ~np.take(mask_w, tx_sup + row_base)
    # class of each position: 4 * word side + slot side when misaligned,
    # 8 (retained) or 9 (displaced) when aligned; counted per row
    cls = np.where(det == tx_sup, 6, 4 * tx_disp)
    cls += np.take(slot_of, det + row_base) + 10 * np.arange(n_rows)[:, None]
    counts = np.bincount(cls.ravel(), minlength=10 * n_rows).reshape(n_rows, 10)
    return counts[:, 8], counts[:, 9], counts[:, :8].reshape(n_rows, 2, 4)


def _decode_swap_rows(tx_sup, tx_rank, cands, code):
    """Per-row decoded-pattern expectations for detected candidates.

    Returns (rescue, pat_bits, align_v, align_p, classes) row means over
    the members a detection decodes to: itself when it is in the usable
    set, else its in-set single-swap neighbors, else its nearest members
    (the correction rule).
    """
    n_rows = len(cands)
    n, w = code.n_slots, code.weight
    r = rank_supports(cands, code)
    rows_all = np.arange(n_rows)[:, None]
    mask_tx = np.zeros((n_rows, code.n_slots), dtype=bool)
    mask_tx[rows_all, tx_sup] = True
    mask_w = np.zeros((n_rows, code.n_slots), dtype=bool)
    mask_w[rows_all, cands] = True
    rescue = np.zeros(n_rows)
    pat = np.zeros(n_rows)
    a_v = np.zeros(n_rows)
    a_p = np.zeros(n_rows)
    classes = np.zeros((n_rows, 2, 4))
    # Rows grouped by detected pattern: members are built once per
    # distinct pattern of a chunk.
    order = np.argsort(r, kind="stable")
    for lo in range(0, n_rows, _CORRECTION_CHUNK):
        rows = order[lo : lo + _CORRECTION_CHUNK]
        pats, first, which = np.unique(r[rows], return_index=True, return_inverse=True)
        sup = cands[rows[first]]
        inset, outside = np.flatnonzero(pats < code.size), np.flatnonzero(pats >= code.size)
        inact, ok = _usable_swaps(sup[outside], code)
        swap_of, jk = np.nonzero(ok)
        swaps = sup[outside[swap_of]]
        swaps[np.arange(len(jk)), jk // (n - w)] = inact[swap_of, jk % (n - w)]
        # Without a usable single swap, the correction draws from all
        # nearest members. Such patterns need w > N/2: otherwise moving the
        # first slot to slot 0 gives a usable pattern.
        lone = outside[~ok.any(axis=1)]
        near, n_near = _nearest_members(sup[lone], inact[~ok.any(axis=1)], code)
        # Members per pattern in (self, j, k) order, then the nearest ones.
        owner = np.concatenate([inset, outside[swap_of], np.repeat(lone, n_near)])
        by_owner = np.argsort(owner, kind="stable")
        mem_sup = np.concatenate([sup[inset], np.sort(swaps, axis=1), near])[by_owner]
        mem_rank = rank_supports(mem_sup, code)
        # Row-major (row, member) pairs over the members of each row's pattern.
        n_of = np.bincount(owner, minlength=len(pats))
        n_mem = n_of[which]
        row = np.repeat(np.arange(len(rows)), n_mem)
        first_mem = np.cumsum(n_of) - n_of
        mem = np.arange(len(row)) + np.repeat(first_mem[which] - np.cumsum(n_mem) + n_mem, n_mem)
        tx_of = rows[row]
        av, ap, cl = _classify_positions(tx_sup[tx_of], mem_sup[mem],
                                         mask_tx[tx_of], mask_w[tx_of])

        def mean(v):
            return np.bincount(row, weights=v, minlength=len(rows)) / n_mem

        rescue[rows] = mean(av + ap == w)
        pat[rows] = mean(np.bitwise_count((tx_rank[tx_of] ^ mem_rank[mem]).astype(np.uint64)))
        a_v[rows] = mean(av)
        a_p[rows] = mean(ap)
        classes[rows] = np.stack([mean(c) for c in cl.reshape(-1, 8).T], axis=1).reshape(-1, 2, 4)
    return rescue, pat, a_v, a_p, classes


def _swap_events(code: MppmCode, l: int, rng: np.random.Generator):
    """l-swap events: transmitted ranks, their supports and the sorted
    detected supports, all events when there are at most
    _STATS_EXACT_EVENTS of them (exact) and a sample of them otherwise."""
    n, w, size = code.n_slots, code.weight, code.size
    jp = np.array(list(itertools.combinations(range(w), l)))
    kp = np.array(list(itertools.combinations(range(n - w), l)))
    exact = size * len(jp) * len(kp) <= _STATS_EXACT_EVENTS
    if exact:
        per = len(jp) * len(kp)
        tx_l = np.repeat(np.arange(size, dtype=np.int64), per)
        sup = np.repeat(unrank_supports(np.arange(size), code).astype(np.int64), per, axis=0)
        jj = np.tile(np.repeat(jp, len(kp), axis=0), (size, 1))
        kk = np.tile(np.tile(kp, (len(jp), 1)), (size, 1))
    else:
        tx_l = rng.integers(0, size, _STATS_SAMPLES)
        jj = jp[rng.integers(0, len(jp), _STATS_SAMPLES)]
        kk = kp[rng.integers(0, len(kp), _STATS_SAMPLES)]
        sup = unrank_supports(tx_l, code).astype(np.int64)
    mask = np.zeros((len(sup), n), dtype=bool)
    rows = np.arange(len(sup))
    mask[rows[:, None], sup] = True
    inact = np.nonzero(~mask)[1].reshape(len(sup), n - w)
    det = sup.copy()
    det[rows[:, None], jj] = inact[rows[:, None], kk]
    return tx_l, sup, np.sort(det, axis=1), exact


def correction_stats(code: MppmCode) -> CorrectionStats:
    """Sorted-detection error geometry averages for the usable set.

    Exact enumeration for small codes; large codes are sampled with a fixed
    internal seed so the result is still deterministic.
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
    exact = True
    rescue = 0.0
    pat_bits: list[float] = []
    align_v: list[float] = []
    align_p: list[float] = []
    classes: list[tuple] = []
    for l in range(1, min(w, n - w) + 1):
        tx_l, sup, det, exact_l = _swap_events(code, l, rng)
        exact = exact and exact_l
        resc, pb, av, ap, cl = _decode_swap_rows(sup, tx_l, det, code)
        if l == 1:
            rescue = float(resc.mean())
        pat_bits.append(float(pb.mean()))
        align_v.append(float(av.mean()))
        align_p.append(float(ap.mean()))
        classes.append(
            tuple(tuple(float(v) for v in row) for row in cl.mean(axis=0))
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
    if scale < 0:
        raise ValueError("scale must be >= 0")
    spec = distance_spectrum(code)
    total = 0.0
    for d2, cnt in spec.items():
        total += cnt * erfc(np.sqrt(scale * d2 / 8.0))
    val = total / (2.0 * code.size)
    return float(min(val, 1.0))
