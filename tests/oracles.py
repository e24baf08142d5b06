"""Helpers that only the tests call."""

import itertools
import math

import numpy as np

from qam_mppm.constellation import Constellation
from qam_mppm.link import LinkParams, frame_energies
from qam_mppm.mppm import MppmCode, correct_patterns
from qam_mppm.simulate import TrialCounters


def ebn0_at_target(ebn0_db: np.ndarray, values: np.ndarray, target: float) -> float:
    """Log-linear interpolation of the abscissa where a falling curve hits target."""
    v = np.asarray(values, dtype=float)
    x = np.asarray(ebn0_db, dtype=float)
    logs = np.log10(np.maximum(v, 1e-300))
    lt = math.log10(target)
    for i in range(len(v) - 1):
        a, b = logs[i], logs[i + 1]
        if (a - lt) * (b - lt) <= 0 and a != b:
            return float(x[i] + (x[i + 1] - x[i]) * (lt - a) / (b - a))
    raise ValueError("curve does not cross the target level on the grid")


def rank_support(support, code: MppmCode) -> int:
    """Lexicographic rank of a sorted support list among all weight-w patterns."""
    r = 0
    prev = -1
    for j, c in enumerate(support):
        r += int(code.rank_prefix[j, c]) - int(code.rank_prefix[j, prev + 1])
        prev = c
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


def listed_swaps(support, inactive, l: int) -> list[tuple[int, ...]]:
    """Every sorted l-swap of a support: the active slots at each
    l-combination of its positions replaced by the inactive slots at each
    l-combination of inactive's, in (removed, added) order of itertools'
    lexicographic combinations."""
    support = [int(s) for s in support]
    out = []
    for rem in itertools.combinations(range(len(support)), l):
        keep = [s for j, s in enumerate(support) if j not in rem]
        for add in itertools.combinations([int(s) for s in inactive], l):
            out.append(tuple(sorted(keep + list(add))))
    return out


def disk_cell_mass(mean, sigma: float, radius: float, col, row) -> float:
    """Mass of the decision cell col x row ((lo, hi) pairs, infinite bounds
    allowed) of a 2-D Gaussian with mean (mean_i, mean_q) and standard
    deviation sigma per axis, inside the disk of the given radius about the
    origin.

    Adaptive quad over u of the column density times the row mass between
    the row bounds clipped at the chord heights +-g(u), g = sqrt(r^2 - u^2).
    The integrand has a kink wherever the clip switches between a row bound
    b and the chord, at u = +-sqrt(r^2 - b^2), so these are breakpoints, as
    is mean_i.  The range stops 40 sigma from mean_i, where the density has
    underflowed.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    mean_i, mean_q = mean
    lo = max(col[0], -radius, mean_i - 40.0 * sigma)
    hi = min(col[1], radius, mean_i + 40.0 * sigma)
    if not lo < hi:
        return 0.0

    def integrand(u):
        g = math.sqrt(max(radius * radius - u * u, 0.0))
        top, bottom = min(row[1], g), max(row[0], -g)
        if top <= bottom:
            return 0.0
        dens = math.exp(-0.5 * ((u - mean_i) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return dens * (ndtr((top - mean_q) / sigma) - ndtr((bottom - mean_q) / sigma))

    cuts = {mean_i} | {side * math.sqrt(radius * radius - b * b)
                       for b in row if abs(b) < radius for side in (-1.0, 1.0)}
    points = sorted(u for u in cuts if lo < u < hi)
    return quad(integrand, lo, hi, points=points or None, epsabs=1e-15, epsrel=1e-13,
                limit=500)[0]


def demap_ml(point, c: Constellation) -> int:
    """Index of the closest constellation point (ties: lowest index)."""
    p = np.asarray(point, dtype=float)
    d2 = np.sum((c.points - p) ** 2, axis=1)
    return int(np.argmin(d2))


def qam_avg_ser(es_n0: float, c: Constellation) -> float:
    """Average symbol error probability of a square constellation at the
    given Es_qam/N0 ratio: the two-PAM product expression."""
    m = c.m_q
    q = 0.5 * math.erfc(math.sqrt(3.0 * es_n0 / (m - 1) / 2.0))
    p_pam = 2.0 * (1.0 - 1.0 / math.sqrt(m)) * q
    return 1.0 - (1.0 - p_pam) ** 2


def ebn0_db_from_sigma(sigma2: float, params: LinkParams, constellation) -> float:
    """Eb/N0 (dB) of a link with noise variance sigma2: sigma_from_ebn0's inverse."""
    _, _, e_b = frame_energies(params, constellation)
    return 10.0 * math.log10(e_b / (2.0 * sigma2))


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


def replay_batch(code: MppmCode, c: Constellation, link: LinkParams,
                 detectors, n_frames: int, seed_key) -> dict[str, TrialCounters]:
    """Reference simulator for simulate.simulate_batch on the same streams.

    The batch generator draws the ranks and the symbols; five streams are
    spawned from the batch's seed sequence for r_i, r_q, r_dc and the CMD
    and IMD corrections, and each statistic is drawn whole, as (frames, N).
    Each frame's top w slots come from a full sort; the out-of-set rows of
    each detector go to correct_patterns in row order, which reads one
    uniform per row; ranks, decisions and bit counts are taken one frame at
    a time in Python integers.
    """
    n, w = code.n_slots, code.weight
    seq = np.random.SeedSequence(seed_key)
    rng = np.random.Generator(np.random.Philox(seq))
    tx_rank = rng.integers(0, code.size, n_frames)
    tx_idx = rng.integers(0, c.m_q, (n_frames, w))
    streams = dict(zip(("r_i", "r_q", "r_dc", "cmd", "imd"),
                       (np.random.Generator(np.random.Philox(s)) for s in seq.spawn(5))))
    amp = math.sqrt(link.t_s / 2.0) * link.i_ph * link.m
    mu = math.sqrt(link.t_s) * link.i_ph
    sigma = math.sqrt(link.sigma2)
    tx_support = [unrank(int(r), code) for r in tx_rank]

    def statistic(role, mean_of):
        r = streams[role].standard_normal((n_frames, n)) * sigma
        for f, support in enumerate(tx_support):
            for slot, k in zip(support, tx_idx[f]):
                r[f, slot] += mean_of(int(k))
        return r

    r_i = statistic("r_i", lambda k: amp * c.points[k, 0])
    r_q = statistic("r_q", lambda k: amp * c.points[k, 1])
    metrics = {"cmd": r_i ** 2 + r_q ** 2}
    if "imd" in detectors:
        metrics["imd"] = statistic("r_dc", lambda k: mu)

    def word(rank, idx):
        v = int(rank)
        for k in idx:
            v = (v << c.n_q) | int(c.labels[k])
        return v

    out = {}
    for det in detectors:
        det_sup = np.array([sorted(sorted(range(n), key=lambda s: row[s])[n - w:])
                            for row in metrics[det]], dtype=np.int16)
        bad = [f for f in range(n_frames) if rank_support(det_sup[f], code) >= code.size]
        if bad:
            det_sup[bad] = correct_patterns(det_sup[bad], code, streams[det])
        t = TrialCounters()
        for f in range(n_frames):
            support = [int(s) for s in det_sup[f]]
            rank = rank_support(support, code)
            idx = [demap_ml((r_i[f, s] / amp, r_q[f, s] / amp), c) for s in support]
            sent = dict(zip(tx_support[f], (int(k) for k in tx_idx[f])))
            d = bin(word(tx_rank[f], tx_idx[f]) ^ word(rank, idx)).count("1")
            # (sent, decided) symbol of each detected slot that was sent
            pairs = [(sent[s], k) for s, k in zip(support, idx) if s in sent]
            t.frames += 1
            t.sym_errors += d > 0
            t.bit_errors += d
            t.bit_errors_sq += d * d
            t.mppm_errors += rank != tx_rank[f]
            t.qam_cond_errors += sum(a != b for a, b in pairs)
            t.qam_cond_opportunities += len(pairs)
        out[det] = t
    return out
