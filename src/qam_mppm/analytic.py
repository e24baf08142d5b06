"""Closed-form / quadrature evaluation of frame error probabilities.

Four evaluation routes are supported: joint-average and separate-average
numerical integration for the power-metric detector (CMD/JA, CMD/SA), and
numerical integration or union bound for the matched-filter detector
(IMD/NI, IMD/UB).

The headline SER/BER values use an event decomposition over the number of
noise slots entering the sorted top-w selection.  For the power-metric
detector the slot-ordering statistic and the QAM decision share the same
noise, so correctness probabilities and expected erroneous bits are
evaluated jointly (decision cell intersected with the metric disk); the
nearest-member pattern correction is accounted for through code-geometry
averages (rescue probability, pattern-word Hamming distances, support
alignment).  The literal textbook compositions are retained as cross-check
modes.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr

from . import distributions as dist
from .constellation import Constellation, qam_bit_errors_exact, qam_ser_exact
from .link import LinkParams, total_bits
from .mppm import CapacityError, MppmCode, correction_stats, k_l, mppm_ser_ub, ne_mppm

_COMBINATION_BUDGET = 10**7
_DOMAIN_SIGMAS = 12.0
_GL_NODES = np.polynomial.legendre.leggauss(96)
_GL_ARC = np.polynomial.legendre.leggauss(16)


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class AnalyticResult:
    pe: float
    pb: float
    pc_mppm: float
    pe_qam: float
    quad_error: float


def qam_scale(link: LinkParams) -> float:
    """Ratio T_s*I_ph^2*m^2 / sigma_n^2 driving the QAM error probabilities."""
    return link.slot_energy * link.m**2 / link.sigma2


def per_symbol_errors(link: LinkParams, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol (symbol error probability, expected erroneous bits)."""
    s = qam_scale(link)
    return qam_ser_exact(s, c), qam_bit_errors_exact(s, c)


def _integrate(fn, lo, hi, tol):
    # roundoff warnings are redundant with the explicit residual check below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, lo, hi, epsabs=tol, epsrel=1e-9, limit=400)
    if not np.isfinite(val) or err > max(100 * tol, 1e-7):
        raise QuadratureError(f"integral residual {err:.2e} exceeds tolerance")
    return val, err


def pc_mppm_cmd_joint(omegas, n_slots: int, weight: int, sigma2: float,
                      tol: float = 1e-10) -> float:
    """Correct-sorting probability for a fixed set of signal-slot offsets.

    Integrates the density of the weakest signal-slot metric against the
    probability that all non-signal metrics stay below it.  Invariant under
    permutations of the offsets.
    """
    omegas = [float(o) for o in omegas]
    if len(omegas) != weight:
        raise ValueError("need exactly w noncentrality values")
    if any(o < 0 for o in omegas):
        raise ValueError("noncentralities must be >= 0")
    uniq: dict[float, int] = {}
    for o in omegas:
        key = round(o, 14)
        uniq[key] = uniq.get(key, 0) + 1
    oms = list(uniq.keys())
    cnts = list(uniq.values())
    n_noise = n_slots - weight
    sigma = math.sqrt(sigma2)
    x_max = (max(math.sqrt(max(oms)), 0.0) + _DOMAIN_SIGMAS * sigma) ** 2

    def integrand(x):
        q = [1.0 - dist.F_sl_cmd(x, o, sigma2) for o in oms]
        f = [dist.f_sl_cmd(x, o, sigma2) for o in oms]
        total = 0.0
        for r in range(len(oms)):
            prod = f[r] * cnts[r]
            for r2 in range(len(oms)):
                p = cnts[r2] - 1 if r2 == r else cnts[r2]
                if p:
                    prod *= q[r2] ** p
            total += prod
        return total * dist.F_nsl_cmd(x, sigma2) ** n_noise

    val, _ = _integrate(integrand, 0.0, x_max, tol)
    return min(max(val, 0.0), 1.0)


def pc_mppm_cmd_sa(code: MppmCode, c: Constellation, link: LinkParams,
                   tol: float = 1e-10) -> float:
    """Separate-average correct-sorting probability (mixture distributions)."""
    energies, groups = c.energy_rings()
    base = link.slot_energy * link.m**2 / 2.0
    oms = [base * e for e in energies]
    wgt = [len(g) / c.m_q for g in groups]
    w = link.weight
    n_noise = link.n_slots - link.weight
    sigma = math.sqrt(link.sigma2)
    x_max = (math.sqrt(max(oms)) + _DOMAIN_SIGMAS * sigma) ** 2

    def integrand(x):
        fbar = sum(a * dist.f_sl_cmd(x, o, link.sigma2) for a, o in zip(wgt, oms))
        qbar = sum(a * (1.0 - dist.F_sl_cmd(x, o, link.sigma2)) for a, o in zip(wgt, oms))
        return w * fbar * qbar ** (w - 1) * dist.F_nsl_cmd(x, link.sigma2) ** n_noise

    val, _ = _integrate(integrand, 0.0, x_max, tol)
    return min(max(val, 0.0), 1.0)


def pc_mppm_imd(code: MppmCode, link: LinkParams, tol: float = 1e-10,
                mode: str = "direct") -> float:
    """Correct-sorting probability for the matched-filter detector.

    The default integrates the order-statistic product form directly; the
    'binomial' mode evaluates the alternating expanded sum as a cross-check
    (unstable for many noise slots, hence guarded).
    """
    mu = math.sqrt(link.t_s) * link.i_ph
    s2 = link.sigma2
    sigma = math.sqrt(s2)
    w = link.weight
    n_noise = link.n_slots - link.weight
    lo = min(0.0, mu) - _DOMAIN_SIGMAS * sigma
    hi = mu + _DOMAIN_SIGMAS * sigma

    if mode == "direct":
        def integrand(x):
            return (
                w
                * dist.f_sl_imd(x, mu, s2)
                * (1.0 - dist.F_sl_imd(x, mu, s2)) ** (w - 1)
                * dist.F_nsl_imd(x, s2) ** n_noise
            )

        val, _ = _integrate(integrand, lo, hi, tol)
        return min(max(val, 0.0), 1.0)

    if mode != "binomial":
        raise ValueError("mode must be 'direct' or 'binomial'")
    if n_noise > 16:
        raise ValueError("binomial expansion unstable beyond 16 noise slots")
    total = 0.0
    for k in range(n_noise + 1):
        def term(x, k=k):
            half_sl = 0.5 * math.erfc((x - mu) / math.sqrt(2.0 * s2))
            half_nsl = 0.5 * math.erfc(x / math.sqrt(2.0 * s2))
            return dist.f_sl_imd(x, mu, s2) * half_sl ** (w - 1) * half_nsl**k

        val, _ = _integrate(term, lo, hi, tol)
        total += math.comb(n_noise, k) * (-1.0) ** k * val
    return min(max(w * total, 0.0), 1.0)


class _Threshold(NamedTuple):
    """Slot-model quantities at one threshold y (see _SlotModel._entry)."""

    s: float  # survival
    g: float  # correct-decision survival
    t: float  # bit-weighted survival
    at_rate: float  # expected erroneous bits of a signal slot with metric y
    gram: tuple | None  # Gray-bit conditioning of the coupled model (mis_bits)
    f_nsl: float
    F_nsl: float
    signal_pdf: float


class _SlotModel:
    """Slot-metric survival/decision functions for one detector and link.

    survival(y) is the mean probability that a signal-slot metric exceeds y;
    corr_survival(y) additionally requires a correct QAM decision, and
    bits_survival(y) weights decisions by their Gray bit-error count.  For
    the power-metric detector on grid constellations these are coupled
    through the joint distribution of the I/Q statistics; for the
    matched-filter detector the metric is independent of the decision so
    both factorize exactly.
    """

    def __init__(self, c: Constellation, link: LinkParams, detector: str):
        self.c = c
        self.link = link
        self.detector = detector
        self.s2 = link.sigma2
        self.sigma = math.sqrt(link.sigma2)
        pe_sym, nb_sym = per_symbol_errors(link, c)
        self.pe_bar = float(np.mean(np.minimum(pe_sym, 1.0)))
        self.nb_bar = float(np.mean(nb_sym))
        self.pbar = 1.0 - self.pe_bar
        self._cache: dict[float, tuple] = {}
        if detector == "imd":
            self.mu = math.sqrt(link.t_s) * link.i_ph
            self.lo = -_DOMAIN_SIGMAS * self.sigma
            self.hi = self.mu + _DOMAIN_SIGMAS * self.sigma
            self.coupled = False
            return
        if detector != "cmd":
            raise ValueError("detector must be 'cmd' or 'imd'")
        base = link.slot_energy * link.m**2 / 2.0
        self.lo = 0.0
        self.hi = (math.sqrt(base * float(c.energies.max())) + _DOMAIN_SIGMAS * self.sigma) ** 2
        energies, groups = c.energy_rings()
        self._mix_w = np.array([len(g) / c.m_q for g in groups])
        self._mix_om = base * energies
        self.coupled = c.is_grid
        if not self.coupled:
            return
        amp = math.sqrt(link.t_s / 2.0) * link.i_ph * link.m
        ci, ri = c.col_idx, c.row_idx
        # Statistic means per I/Q level; a source's means are its levels'.
        self._lv_i = amp * c.i_levels
        self._lv_q = amp * c.q_levels
        self._m_i = self._lv_i[ci]
        self._m_q = self._lv_q[ri]
        self._cells = c.grid_cells(amp)

        def cell_bounds(mids):
            return np.concatenate([[-np.inf], mids]), np.concatenate([mids, [np.inf]])

        self._col_lo, self._col_hi = cell_bounds(self._cells.i_bounds)
        self._row_lo, self._row_hi = cell_bounds(self._cells.q_bounds)
        # Levels with the zero mean of a noise slot appended as one more
        # level, and each source's level (the noise slot last).
        self._lv_i0 = np.append(self._lv_i, 0.0)
        self._lv_q0 = np.append(self._lv_q, 0.0)
        self._src_i = np.append(ci, len(self._lv_i))
        self._src_q = np.append(ri, len(self._lv_q))
        # Normal CDF of each row bound per Q level, (levels, rows).
        self._cdf_row_hi = ndtr((self._row_hi[None, :] - self._lv_q0[:, None]) / self.sigma)
        self._cdf_row_lo = ndtr((self._row_lo[None, :] - self._lv_q0[:, None]) / self.sigma)
        # Rectangle probabilities per (source symbol, decision cell) and the
        # Gray-label Hamming weights between them.
        pc_i = ndtr((self._col_hi[None, :] - self._m_i[:, None]) / self.sigma) - ndtr(
            (self._col_lo[None, :] - self._m_i[:, None]) / self.sigma
        )
        pc_q = ndtr((self._row_hi[None, :] - self._m_q[:, None]) / self.sigma) - ndtr(
            (self._row_lo[None, :] - self._m_q[:, None]) / self.sigma
        )
        self._p_rect = pc_i[:, ci] * pc_q[:, ri]  # (M, M)
        ham = np.bitwise_count(
            (c.labels[:, None] ^ c.labels[None, :]).astype(np.uint64)
        ).astype(float)
        self._ham = ham
        self._bits_mat = (
            (c.labels[None, :] >> np.arange(c.n_q)[:, None]) & 1
        ).astype(float)  # (n_q, M)
        r0_i = ndtr(self._col_hi / self.sigma) - ndtr(self._col_lo / self.sigma)
        r0_q = ndtr(self._row_hi / self.sigma) - ndtr(self._row_lo / self.sigma)
        self._rect0 = r0_i[ci] * r0_q[ri]  # zero-mean cell masses

    # -- one record per threshold -------------------------------------------
    def _entry(self, y: float) -> _Threshold:
        """Everything the event integrands read at threshold y.

        quad revisits the same nodes across the event integrals, so each
        distinct y is evaluated once.  The distribution functions are looked
        up through ``dist`` at call time.
        """
        got = self._cache.get(y)
        if got is None:
            s, g, t, extra = (self._values_coupled(y) if self.coupled
                              else self._values_uncoupled(y))
            at_rate, gram = self.nb_bar, None
            if extra is not None:
                # Bit-one probabilities of the transmitted words
                # W = (bp_tx[0], bp_tx[1], bp_at_tx) and the demaps
                # D = (bp_det[0..4], bp_at_det), as for mis_bits: the Gram
                # matrix W D^T and the row sums of W and D.
                bp_tx, bp_det, bp_at_tx, bp_at_det, at_rate = extra
                words = np.vstack((bp_tx, bp_at_tx))
                demaps = np.vstack((bp_det, bp_at_det))
                gram = ((words @ demaps.T).tolist(), words.sum(axis=1).tolist(),
                        demaps.sum(axis=1).tolist())
            if self.detector == "cmd":
                nsl = dist.f_nsl_cmd(y, self.s2), dist.F_nsl_cmd(y, self.s2)
                pdf = sum(
                    a * dist.f_sl_cmd(y, o, self.s2)
                    for a, o in zip(self._mix_w, self._mix_om)
                )
            else:
                nsl = dist.f_nsl_imd(y, self.s2), dist.F_nsl_imd(y, self.s2)
                pdf = dist.f_sl_imd(y, self.mu, self.s2)
            got = self._cache[y] = _Threshold(s, g, t, at_rate, gram, *nsl, pdf)
        return got

    # -- non-signal slot metric --------------------------------------------
    def f_nsl(self, y: float) -> float:
        return self._entry(y).f_nsl

    def F_nsl(self, y: float) -> float:
        return self._entry(y).F_nsl

    # -- signal slot metric/decision ---------------------------------------
    def _values_uncoupled(self, y: float):
        if self.detector == "imd":
            s = 1.0 - dist.F_sl_imd(y, self.mu, self.s2)
        else:
            s = sum(
                a * (1.0 - dist.F_sl_cmd(y, o, self.s2))
                for a, o in zip(self._mix_w, self._mix_om)
            )
        return s, self.pbar * s, self.nb_bar * s, None

    def _circle_arcs(self, radius: float):
        """Arc partition of the circle into constant-decision segments.

        Decision boundaries are axis-aligned lines, so the circle splits
        into arcs; returns (start angles, spans, decision symbol per arc).
        """
        angles = [0.0]
        for b in self._cells.i_bounds:
            if abs(b) < radius:
                t = math.acos(b / radius)
                angles.extend((t, 2 * math.pi - t))
        for b in self._cells.q_bounds:
            if abs(b) < radius:
                t = math.asin(b / radius)
                angles.extend((t % (2 * math.pi), (math.pi - t) % (2 * math.pi)))
        angles = np.sort(np.array(angles))
        spans = np.diff(np.append(angles, angles[0] + 2 * math.pi))
        mid = angles + spans / 2.0
        return angles, spans, self._cells.decide(radius * np.cos(mid), radius * np.sin(mid))

    def _circle_demap(self, arcs) -> np.ndarray:
        """Decision-cell distribution of a point uniform on a circle, from
        the circle's arc partition."""
        _, spans, syms = arcs
        q = np.zeros(self.c.m_q)
        np.add.at(q, syms, spans / (2 * math.pi))
        return q

    def _circle_density(self, r: float, arcs):
        """Joint density of (decision cell, metric) at metric value r**2.

        Returns the (M sources, M cells) matrix of d/dy P(decide cell,
        X <= y | source): the line integral of each source Gaussian along
        the threshold circle of radius r, split by the decision arcs of its
        partition.  In polar form the metric density at angle theta is
        phi(r cos t, r sin t) / 2.
        """
        angles, spans, syms = arcs
        nodes, wts = _GL_ARC
        theta = angles[:, None] + spans[:, None] * (nodes[None, :] + 1.0) / 2.0
        px = r * np.cos(theta)
        py = r * np.sin(theta)
        # (M, arcs, K)
        d2 = (px[None] - self._m_i[:, None, None]) ** 2 + (
            py[None] - self._m_q[:, None, None]
        ) ** 2
        phi = np.exp(-d2 / (2 * self.s2)) / (2 * math.pi * self.s2)
        arc_int = 0.5 * (spans / 2.0)[None, :] * np.sum(wts * phi, axis=2)
        f = np.zeros((self.c.m_q, self.c.m_q))
        np.add.at(f.swapaxes(0, 1), syms, arc_int.T)
        return f

    def _values_coupled(self, y: float):
        c = self.c
        sig = self.sigma
        r = math.sqrt(max(y, 0.0))
        nodes, wts = _GL_NODES
        lo_u = np.maximum(self._col_lo, -r)
        hi_u = np.minimum(self._col_hi, r)
        span = np.maximum(hi_u - lo_u, 0.0)  # (cols,)
        u = 0.5 * span[:, None] * nodes[None, :] + 0.5 * (lo_u + hi_u)[:, None]
        g = np.sqrt(np.maximum(r * r - u * u, 0.0))  # (cols, K)
        # A disk-clipped row extent stops at its row bound or at the chord
        # +-g, so its normal CDF per Q level comes from the row-bound table
        # or from one ndtr per level and chord node: (levels, rows, cols, K).
        lv = self._lv_q0[:, None, None]
        cdf_hi = np.where(self._row_hi[:, None, None] < g, self._cdf_row_hi[:, :, None, None],
                          ndtr((g - lv) / sig)[:, None])
        cdf_lo = np.where(self._row_lo[:, None, None] > -g, self._cdf_row_lo[:, :, None, None],
                          ndtr((-g - lv) / sig)[:, None])
        inner = np.maximum(cdf_hi - cdf_lo, 0.0)
        dens = np.exp(-((u[None, :, :] - self._lv_i0[:, None, None]) ** 2) / (2 * self.s2))
        dens /= math.sqrt(2 * math.pi * self.s2)
        # A source's disk-clipped masses are its levels': (M + 1, rows, cols),
        # the zero-mean (pure noise) slot last.
        disk = 0.5 * span * np.sum(wts * dens[self._src_i][:, None] * inner[self._src_q], axis=3)
        m = c.m_q
        ri, ci = c.row_idx, c.col_idx
        # J[s, cell] = P(land in cell AND metric above y)
        j = np.clip(self._p_rect - disk[:m, ri, ci], 0.0, None)
        surv = j.sum(axis=1)  # per-source survival
        s_bar = float(surv.mean())
        g_bar = float(np.mean(j[np.arange(m), np.arange(m)]))
        t_bar = float(np.mean(np.sum(self._ham * j, axis=1)))
        noise_lo = disk[m, ri, ci]  # noise-slot cell masses inside the disk

        arcs = self._circle_arcs(r)
        # at-threshold signal slot: metric-density-resolved conditioning
        f_at = self._circle_density(r, arcs)
        f_tot = f_at.sum()
        # The nine distributions that condition the Gray bits, each
        # normalised (uniform when it has no mass).
        dists = np.stack([
            surv,
            1.0 - surv,
            self._circle_demap(arcs) if r > 0.0 else np.full(m, 1.0 / m),
            noise_lo,
            j.sum(axis=0),
            (self._p_rect - j).sum(axis=0),
            self._rect0 - noise_lo,
            f_at.sum(axis=1),
            f_at.sum(axis=0),
        ])
        np.clip(dists, 0.0, None, out=dists)
        tot = dists.sum(axis=1, keepdims=True)
        dists = np.divide(dists, tot, out=np.full_like(dists, 1.0 / m), where=tot > 0.0)
        bp = np.array([self._bits_mat @ v for v in dists])  # (9, n_q)
        if f_tot > 0.0:
            rate_at = float(np.sum(self._ham * f_at)) / f_tot
            bp_at_tx, bp_at_det = bp[7], bp[8]
        else:
            rate_at = self.nb_bar
            bp_at_tx, bp_at_det = bp[0], bp[4]
        return s_bar, g_bar, t_bar, (bp[0:2], bp[2:7], bp_at_tx, bp_at_det, rate_at)

    def values(self, y: float) -> tuple[float, float, float]:
        """(survival, correct-decision survival, bit-weighted survival) at y."""
        return self._entry(y)[:3]

    def aligned_rates(self, y: float) -> tuple[float, float]:
        """Expected erroneous bits of an aligned slot, split by slot fate.

        First value conditions the slot metric above y (retained in the
        sorted selection), second below y (displaced, re-included by the
        correction).  For the matched-filter detector the metric carries no
        information about the decision, so both equal the unconditional
        mean.
        """
        if not self.coupled:
            return self.nb_bar, self.nb_bar
        e = self._entry(y)
        s, t = e.s, e.t
        rate_v = t / s if s > 1e-300 else self.nb_bar
        rate_p = (self.nb_bar - t) / (1.0 - s) if s < 1.0 - 1e-12 else self.nb_bar
        return min(max(rate_v, 0.0), float(self.c.n_q)), min(max(rate_p, 0.0),
                                                             float(self.c.n_q))

    def at_rate(self, y: float) -> float:
        """Expected erroneous bits of a signal slot with metric exactly y."""
        return self._entry(y).at_rate

    def signal_pdf(self, y: float) -> float:
        """Marginal metric density of a signal slot (symbol averaged)."""
        return self._entry(y).signal_pdf

    def mis_bits(self, y: float, classes: np.ndarray, circle_frac: float,
                 at_frac: float = 0.0) -> float:
        """Expected erroneous bits over misaligned positions at threshold y.

        classes is the (2, 4) count matrix from the code-geometry averages
        for an l-swap event; each class pairs a transmitted-side word
        distribution with a decoded-side demap distribution, both
        conditioned on the slot metrics implied by the sorting event.
        circle_frac is the fraction of the entered noise slots sitting
        exactly at the threshold (on the circle); the rest are conditioned
        above it.  at_frac is the probability that a given retained signal
        slot is the one pinned at the threshold (nonzero only when the
        threshold metric is a signal slot).  Cross-Hamming factorizes per
        Gray bit.
        """
        gram = self._entry(y).gram
        if gram is None:
            return float(np.sum(classes)) * self.c.n_q / 2.0
        # Rows and columns are affine in at_frac/circle_frac over three word
        # and six demap distributions, so their cross terms come from the
        # Gram matrix.  Rows: the retained word (1 - a) W0 + a W2 and the
        # displaced word W1.
        gm, s_w, s_d = gram
        a, b = at_frac, circle_frac

        def cols(v):  # columns: b D0 + (1 - b) D4, D1, (1 - a) D2 + a D5, D3
            return (b * v[0] + (1.0 - b) * v[4], v[1], (1.0 - a) * v[2] + a * v[5], v[3])

        retained = [(1.0 - a) * x + a * z for x, z in zip(gm[0], gm[2])]
        rows = (((1.0 - a) * s_w[0] + a * s_w[2], retained), (s_w[1], gm[1]))
        s_d = cols(s_d)
        total = 0.0
        for counts, (s_t, cross) in zip(np.asarray(classes, dtype=float).tolist(), rows):
            # H[t, d] = sum_bits p + q - 2 p q
            for n, s_c, x in zip(counts, s_d, cols(cross)):
                total += n * (s_t + s_c - 2.0 * x)
        return total


def _event_quantities(model: _SlotModel, code: MppmCode, tol: float,
                      stats) -> dict:
    """Probabilities and bit expectations of the top-w sorting events.

    Events are indexed by the number of noise slots entering the sorted
    selection (0, 1, 2, >=3), derived from the order statistics of the
    noise-slot metrics against the signal-slot survival functions.  QAM bit
    expectations for the swap events average the metric-conditioned aligned
    and misaligned rates over the event's threshold distribution.
    """
    n, w = code.n_slots, code.weight
    nn = n - w
    lo, hi = model.lo, model.hi
    errs = []

    def integral(fn):
        val, err = _integrate(fn, lo, hi, tol)
        errs.append(err)
        return val

    def s_(y):
        return model.values(y)[0]

    # P(no noise slot in the selection), plain and decision-coupled, and the
    # expected erroneous QAM bits accumulated in that event.
    a0 = nn * integral(lambda y: model.f_nsl(y) * model.F_nsl(y) ** (nn - 1) * s_(y) ** w)
    a_dec = nn * integral(
        lambda y: model.f_nsl(y) * model.F_nsl(y) ** (nn - 1) * model.values(y)[1] ** w
    )
    e0_bits = w * nn * integral(
        lambda y: model.f_nsl(y)
        * model.F_nsl(y) ** (nn - 1)
        * model.values(y)[2]
        * s_(y) ** (w - 1)
    )

    # decision-coupled analogues of P(>=1), P(>=2) for the rescue term
    pbar = model.pbar

    def dec_ge1(y):
        return max(pbar**w - model.values(y)[1] ** w, 0.0)

    def dec_ge2(y):
        s, g, _ = model.values(y)
        return max(pbar**w - g**w - w * (pbar - g) * g ** (w - 1), 0.0)

    g1d = nn * integral(lambda y: model.f_nsl(y) * model.F_nsl(y) ** (nn - 1) * dec_ge1(y))
    g2d = 0.0
    if nn >= 2 and w >= 2:
        g2d = nn * (nn - 1) * integral(
            lambda y: model.f_nsl(y)
            * model.F_nsl(y) ** (nn - 2)
            * (1.0 - model.F_nsl(y))
            * dec_ge2(y)
        )

    # Exact event-l decomposition over the threshold metric (the w-th
    # largest): either the weakest retained signal sits at the threshold
    # with all l entered noise slots above it (case A), or the weakest
    # entered noise slot does, with the rest of the entered noise above
    # (case B).  Event probabilities and per-event QAM bit expectations are
    # single integrals over the threshold in this decomposition.
    l_max = min(w, nn)
    p1 = 0.0
    swap_bits_total = 0.0
    for l in range(1, l_max + 1):
        c_a = w * math.comb(w - 1, l) * math.comb(nn, l) if l <= w - 1 else 0.0
        c_b = nn * math.comb(nn - 1, l - 1) * math.comb(w, l)

        def dens_a(y, l=l, c_a=c_a):
            s = s_(y)
            fy = model.F_nsl(y)
            return (
                c_a
                * model.signal_pdf(y)
                * s ** (w - l - 1)
                * (1.0 - s) ** l
                * (1.0 - fy) ** l
                * fy ** (nn - l)
            )

        def dens_b(y, l=l, c_b=c_b):
            s = s_(y)
            fy = model.F_nsl(y)
            return (
                c_b
                * model.f_nsl(y)
                * fy ** (nn - l)
                * (1.0 - fy) ** (l - 1)
                * (1.0 - s) ** l
                * s ** (w - l)
            )

        p_a = integral(dens_a) if c_a else 0.0
        p_b = integral(dens_b)
        p_l = p_a + p_b
        if l == 1:
            p1 = p_l
        li = min(l, stats.max_swaps) - 1
        av, ap = stats.align_v[li], stats.align_p[li]
        cls = np.asarray(stats.classes[li])
        if p_l <= max(tol, 1e-280):
            qam_l = (av + ap) * model.nb_bar + float(cls.sum()) * model.c.n_q / 2.0
            swap_bits_total += p_l * (stats.pat_bits[li] + qam_l)
            if p_l == 0.0:
                break
            continue

        # Bound per l: a closure reading the loop's names would see the last
        # l's densities if it ran after the loop moved on.
        def bits_at(y, cls=cls, av=av, ap=ap, l=l, c_a=c_a, dens_a=dens_a, dens_b=dens_b):
            rv, rp = model.aligned_rates(y)
            bits_b = av * rv + ap * rp + model.mis_bits(y, cls, 1.0 / l)
            out = dens_b(y) * bits_b
            if c_a:
                # one retained signal slot is pinned at the threshold
                at = 1.0 / (w - l)
                rv_a = (1.0 - at) * rv + at * model.at_rate(y)
                bits_a = av * rv_a + ap * rp + model.mis_bits(y, cls, 0.0, at)
                out += dens_a(y) * bits_a
            return out

        qam_l = integral(bits_at) / p_l
        swap_bits_total += p_l * (stats.pat_bits[li] + qam_l)

    return {
        "a0": a0,
        "a_dec": a_dec,
        "e0_bits": e0_bits,
        "swap_bits": swap_bits_total,
        "p1": p1,
        "rescue_dec": max(g1d - g2d, 0.0),
        "rescue_plain": p1,
        "quad_error": max(errs) if errs else 0.0,
    }


def _assemble(model: _SlotModel, code: MppmCode, ev: dict,
              st) -> AnalyticResult:
    """Combine event quantities and code geometry into SER/BER."""
    w = code.weight
    n_q = model.c.n_q
    q_total = code.q_mppm + w * n_q
    rho = st.rescue_prob
    pe = 1.0 - ev["a_dec"] - rho * ev["rescue_dec"]
    pc_mppm = ev["a0"] + rho * ev["rescue_plain"]
    bits = ev["e0_bits"] + ev["swap_bits"]
    pb = bits / q_total
    return AnalyticResult(
        pe=min(max(pe, 0.0), 1.0),
        pb=min(max(pb, 0.0), 1.0),
        pc_mppm=min(max(pc_mppm, 0.0), 1.0),
        pe_qam=model.pe_bar,
        quad_error=ev["quad_error"],
    )


def _ring_stats(c: Constellation, link: LinkParams):
    """Per-energy-ring occupation probabilities and symbol-error means."""
    energies, groups = c.energy_rings()
    base = link.slot_energy * link.m**2 / 2.0
    pe, nb = per_symbol_errors(link, c)
    probs = np.array([len(g) / c.m_q for g in groups])
    omegas = np.array([base * e for e in energies])
    mean_corr = np.array([np.mean(1.0 - np.minimum(pe[g], 1.0)) for g in groups])
    mean_nb = np.array([np.mean(nb[g]) for g in groups])
    return probs, omegas, mean_corr, mean_nb


def _joint_expectations(code: MppmCode, c: Constellation, link: LinkParams, tol: float):
    """Expectations over the per-frame QAM symbol draw, ring-grouped.

    Conditioned on the ring occupation counts, symbols are independent and
    uniform inside their rings, so products and sums factorize per ring and
    only one sorting integral per distinct count vector is needed.
    """
    _check_ja_budget(c, link)
    probs, omegas, mean_corr, mean_nb = _ring_stats(c, link)
    w = link.weight
    n_rings = len(probs)
    acc = {"pc_joint": 0.0, "pcm": 0.0, "pcm_nb": 0.0, "em_nb": 0.0, "em": 0.0}
    for combo in itertools.combinations_with_replacement(range(n_rings), w):
        counts = np.bincount(combo, minlength=n_rings)
        weight = math.factorial(w)
        for cnt in counts:
            weight //= math.factorial(int(cnt))
        p = weight * np.prod(probs**counts)
        om_list = [omegas[r] for r in combo]
        pcm = pc_mppm_cmd_joint(om_list, link.n_slots, link.weight, link.sigma2, tol)
        corr = float(np.prod(mean_corr**counts))
        nb_sum = float(np.dot(counts, mean_nb))
        acc["pc_joint"] += p * pcm * corr
        acc["pcm"] += p * pcm
        acc["pcm_nb"] += p * pcm * nb_sum
        acc["em_nb"] += p * (1.0 - pcm) * nb_sum
        acc["em"] += p * (1.0 - pcm)
    return acc


def _check_ja_budget(c: Constellation, link: LinkParams) -> None:
    if math.comb(c.m_q + link.weight - 1, link.weight) > _COMBINATION_BUDGET:
        raise CapacityError(
            "joint-average combination budget exceeded; use the separate-average route"
        )


def _pb_from_terms(code: MppmCode, c: Constellation, link: LinkParams,
                   term_correct: float, term_wrong_nb: float, term_wrong: float) -> float:
    """Textbook bit accounting from the three composition terms.

    term_correct: E[Pc_mppm * (expected QAM bit errors)],
    term_wrong_nb: E[(1 - Pc_mppm) * (expected QAM bit errors)],
    term_wrong: E[1 - Pc_mppm].  Wrong patterns are treated as uniform over
    the remaining set (the K_l weights), which overstates the scrambling of
    real sorting errors; kept as the composition cross-check mode.
    """
    q_total = total_bits(link.n_slots, link.weight, c.n_q)
    w, n = link.weight, link.n_slots
    miss = 0.0
    for l in range(1, min(w, n - w) + 1):
        kl = float(k_l(n, w, l))
        miss += kl * ((w - l) / w * term_wrong_nb + c.n_q / 2.0 * l * term_wrong)
    pb = (term_correct + ne_mppm(code.q_mppm) * term_wrong + miss) / q_total
    return min(max(pb, 0.0), 1.0)


def pe_cmd_ja(code: MppmCode, c: Constellation, link: LinkParams,
              tol: float = 1e-10) -> AnalyticResult:
    """CMD error probabilities, joint-average route.

    The events model is the separate-average one (see pe_cmd_sa); only the
    joint-average combination budget is enforced on top of it.
    """
    _check_ja_budget(c, link)
    return pe_cmd_sa(code, c, link, tol)


def pe_cmd_sa(code: MppmCode, c: Constellation, link: LinkParams,
              tol: float = 1e-10) -> AnalyticResult:
    """CMD error probabilities, separate-average route.

    The decision-coupled event expectations factorize exactly over the
    i.i.d. symbol draw, so the joint and separate averages coincide here;
    the split is kept for the composition cross-check modes where the
    distinction is real.
    """
    model = _SlotModel(c, link, "cmd")
    st = correction_stats(code)
    ev = _event_quantities(model, code, tol, st)
    return _assemble(model, code, ev, st)


def pe_cmd_composition(code: MppmCode, c: Constellation, link: LinkParams,
                       tol: float = 1e-10, method: str = "ja") -> AnalyticResult:
    """Uncoupled composition P_e = 1 - E[Pc_sort*Pc_QAM] (cross-check mode)."""
    if method == "sa":
        return _compose_separate(code, c, link, pc_mppm_cmd_sa(code, c, link, tol), tol)
    if method != "ja":
        raise ValueError("method must be 'ja' or 'sa'")
    acc = _joint_expectations(code, c, link, tol)
    pe = 1.0 - acc["pc_joint"]
    pb = _pb_from_terms(code, c, link, acc["pcm_nb"], acc["em_nb"], acc["em"])
    pe_avg = float(np.mean(np.minimum(per_symbol_errors(link, c)[0], 1.0)))
    return AnalyticResult(pe=min(max(pe, 0.0), 1.0), pb=pb, pc_mppm=acc["pcm"],
                          pe_qam=pe_avg, quad_error=tol)


def _compose_separate(code: MppmCode, c: Constellation, link: LinkParams,
                      pc: float, tol: float) -> AnalyticResult:
    """Textbook composition from a correct-pattern probability pc, with the
    QAM symbols averaged separately: P_e = 1 - pc * (1 - P_e,QAM)^w."""
    pe_sym, nb_sym = per_symbol_errors(link, c)
    pe_avg = float(np.mean(np.minimum(pe_sym, 1.0)))
    nb_avg = float(np.mean(nb_sym))
    w = link.weight
    pe = min(max(1.0 - pc * (1.0 - pe_avg) ** w, 0.0), 1.0)
    pb = _pb_from_terms(code, c, link, pc * w * nb_avg, (1.0 - pc) * w * nb_avg, 1.0 - pc)
    return AnalyticResult(pe=pe, pb=pb, pc_mppm=pc, pe_qam=pe_avg, quad_error=tol)


def pe_imd(code: MppmCode, c: Constellation, link: LinkParams,
           tol: float = 1e-10, mppm_route: str = "ni") -> AnalyticResult:
    """IMD error probabilities; pattern part via integration or union bound."""
    if mppm_route == "ni":
        model = _SlotModel(c, link, "imd")
        st = correction_stats(code)
        ev = _event_quantities(model, code, tol, st)
        return _assemble(model, code, ev, st)
    if mppm_route != "ub":
        raise ValueError("mppm_route must be 'ni' or 'ub'")
    pc = 1.0 - mppm_ser_ub(code, link.slot_energy / link.sigma2, clamp=True)
    return _compose_separate(code, c, link, pc, tol)


def pb_cmd(code: MppmCode, c: Constellation, link: LinkParams,
           tol: float = 1e-10, method: str = "ja", model: str = "events") -> float:
    if method not in ("ja", "sa"):
        raise ValueError("method must be 'ja' or 'sa'")
    if model == "events":
        fn = pe_cmd_ja if method == "ja" else pe_cmd_sa
        return fn(code, c, link, tol).pb
    if model == "composition":
        return pe_cmd_composition(code, c, link, tol, method).pb
    raise ValueError("model must be 'events' or 'composition'")


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
