"""Closed-form / quadrature evaluation of frame error probabilities.

Four evaluation routes are supported: joint-average and separate-average
numerical integration for the power-metric detector (CMD/JA, CMD/SA), and
numerical integration or union bound for the matched-filter detector
(IMD/NI, IMD/UB).  Every route reads constellation's exact per-symbol QAM
error probabilities, so it takes a grid (square or rectangular)
constellation and raises ValueError for a cross shape.

CMD/JA, CMD/SA and IMD/NI use an event decomposition over the number of
noise slots entering the sorted top-w selection.  For the power-metric
detector the slot-ordering statistic and the QAM decision share the same
noise, so correctness probabilities and expected erroneous bits are
evaluated jointly (decision cell intersected with the metric disk); the
nearest-member pattern correction is accounted for through code-geometry
averages (rescue probability, pattern-word Hamming distances, support
alignment).  The decision-coupled expectations factorize over the i.i.d.
symbol draw, so CMD/JA and CMD/SA are one evaluation.  The event integrals
run quadrature.qags, which hands its integrand the 21 nodes of one
Gauss-Kronrod panel at a time, and every event integrand is an array
expression over that panel's _Panel (_SlotModel.panel): the slot metrics'
densities and survival, decision and Gray-bit quantities at each node.

pe_cmd_composition keeps the literal textbook compositions as a
cross-check: there the joint and separate averages over the QAM symbols
differ, and comparing the two is what shows that difference is negligible.
They and IMD/UB are one composition (_compose) of a correct-sorting
probability with the QAM decisions of the w signal slots.  By the
multinomial theorem the joint average's sum over ring-count vectors is
three one-dimensional integrals over the largest noise-slot metric, powers
of ring mixtures of the survival functions; the separate average needs the
first of them only, and the union bound takes its bound on the pattern
error instead.  Every integral, events and compositions alike, runs qags
under one residual rule (_integrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from . import distributions as dist
from .constellation import Constellation, qam_bit_errors_exact, qam_ser_exact
from .link import LinkParams, total_bits
from .mppm import CapacityError, MppmCode, correction_stats, k_l, mppm_ser_ub, ne_mppm
from .quadrature import qags

_DOMAIN_SIGMAS = 12.0
_GL_NODES = np.polynomial.legendre.leggauss(96)
_GL_ARC = np.polynomial.legendre.leggauss(16)
# The coupled slot model takes as many thresholds per call as its largest
# per-threshold temporary fits in _CHUNK_ELEMENTS (8 MB of floats), and at
# least one.  That temporary is the chord-node product of one Q level's
# sources, (sources on the level, rows, cols, chord nodes), or the circle
# density's two (M, arcs, arc nodes) arrays.  A model whose one threshold takes
# more than _THRESHOLD_ELEMENTS (128 MB of floats) chord-node products, the
# (M + 1) * rows * cols * chord nodes of all its sources, is refused.
_CHUNK_ELEMENTS = 2**20
_THRESHOLD_ELEMENTS = 2**24


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


def _integrate(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Integral of f over [lo, hi] by qags, which hands f one panel of
    nodes at a time, and its error estimate.  The rule of every integral,
    which stands in for qags's error flag: a finite value whose error
    estimate is at most max(100 * tol, 1e-7)."""
    val, err, _ = qags(f, lo, hi, epsabs=tol, epsrel=1e-9, limit=400)
    if not math.isfinite(val) or err > max(100 * tol, 1e-7):
        raise QuadratureError(f"integral residual {err:.2e} exceeds tolerance")
    return val, err


def _ring_mixture(c: Constellation, link: LinkParams):
    """The symbol-averaged signal-slot metric of the power-metric detector
    as a mixture over energy rings: the rings' symbol indices, their
    weights len(g)/M and their noncentralities slot_energy*m^2/2*E."""
    energies, groups = c.energy_rings()
    base = link.slot_energy * link.m**2 / 2.0
    return groups, np.array([len(g) / c.m_q for g in groups]), base * energies


class _Panel(NamedTuple):
    """Slot-model quantities at a vector of thresholds y (see
    _SlotModel.panel), one array over y each."""

    s: np.ndarray  # survival
    g: np.ndarray  # correct-decision survival
    t: np.ndarray  # bit-weighted survival
    at_rate: np.ndarray  # expected erroneous bits of a signal slot with metric y
    # Gray-bit conditioning of the coupled model (mis_bits): per threshold the
    # (3, 6) Gram matrix of words and demaps and their (3,) and (6,) row sums
    gram: tuple | None
    f_nsl: np.ndarray  # non-signal slot metric density
    F_nsl: np.ndarray  # and its CDF
    signal_pdf: np.ndarray  # marginal signal-slot metric density (symbol averaged)
    # Expected erroneous bits of an aligned slot, split by slot fate: its
    # metric above y (retained in the sorted selection) or below y
    # (displaced, re-included by the correction).  An uncoupled model does
    # not condition the decision on the metric, so there both equal the
    # unconditional mean.
    rate_v: np.ndarray
    rate_p: np.ndarray


def _crossings(fn, bounds: np.ndarray, radius: np.ndarray):
    """fn(b / r) for every bound b that the circle of radius r crosses, 0
    elsewhere, and the (circles, bounds) mask of crossings.  fn is libm's
    acos/asin from ``math``: numpy's vector arccos/arcsin round differently
    in the last bit, and the arc angles keep libm's values."""
    hit = np.abs(bounds) < radius[:, None]
    rows, k = np.nonzero(hit)
    out = np.zeros(hit.shape)
    out[hit] = list(map(fn, (bounds[k] / radius[rows]).tolist()))
    return out, hit


class _SlotModel:
    """Slot-metric survival, decision and Gray-bit quantities for one
    detector and link.

    The detector enters as data, chosen once when the model is built: its
    threshold domain, its signal-slot metric as a mixture (the power
    metric's energy rings, or the matched filter's one Gaussian) and its
    distribution functions.  At threshold y, s is the mean probability that
    a signal-slot metric exceeds y, g additionally requires a correct QAM
    decision, and t weights decisions by their Gray bit-error count.  For
    the power-metric detector these are coupled through the joint
    distribution of the I/Q statistics; for the matched-filter detector the
    metric is independent of the decision and they factorize.  Only grid
    constellations have a model: per_symbol_errors refuses a cross shape.

    panel(ys) is the only way in: it returns the _Panel of a vector of
    thresholds, one Gauss-Kronrod panel of qags at a time, and every event
    integrand is an array expression over that panel.
    """

    def __init__(self, c: Constellation, link: LinkParams, detector: str):
        self.c = c
        self.link = link
        self.s2 = link.sigma2
        self.sigma = math.sqrt(link.sigma2)
        pe_sym, nb_sym = per_symbol_errors(link, c)
        self.pe_bar = float(np.mean(pe_sym))
        self.nb_bar = float(np.mean(nb_sym))
        self.pbar = 1.0 - self.pe_bar
        self._panels: dict[bytes, _Panel] = {}
        # The distribution functions are taken from ``dist`` here, once.
        if detector == "imd":
            mu = link.dc_mean
            self.lo = -_DOMAIN_SIGMAS * self.sigma
            self.hi = mu + _DOMAIN_SIGMAS * self.sigma
            self._mix_w, self._mix_loc = np.ones(1), np.array([mu])
            self._f_sl, self._F_sl = dist.f_sl_imd, dist.F_sl_imd
            self._f_nsl, self._F_nsl = dist.f_nsl_imd, dist.F_nsl_imd
            self.coupled = False
        elif detector == "cmd":
            base = link.slot_energy * link.m**2 / 2.0
            self.lo = 0.0
            self.hi = (math.sqrt(base * float(c.energies.max()))
                       + _DOMAIN_SIGMAS * self.sigma) ** 2
            _, self._mix_w, self._mix_loc = _ring_mixture(c, link)
            self._f_sl = dist.f_sl_cmd
            self._f_nsl, self._F_nsl = dist.f_nsl_cmd, dist.F_nsl_cmd
            self.coupled = True
        else:
            raise ValueError("detector must be 'cmd' or 'imd'")
        if not self.coupled:
            return
        amp = link.qam_amplitude
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
        # The disk masses of one threshold take (M + 1) * rows * cols * K
        # products (see _THRESHOLD_ELEMENTS).
        cells = len(self._row_lo) * len(self._col_lo) * len(_GL_NODES[0])
        per_y = (c.m_q + 1) * cells
        if per_y > _THRESHOLD_ELEMENTS:
            raise CapacityError(f"the {c.m_q}-QAM slot model needs {per_y} floats per "
                                f"threshold, more than its limit of {_THRESHOLD_ELEMENTS}")
        # Levels with the zero mean of a noise slot appended as one more
        # level, and per Q level its sources (of M + 1, the noise slot last)
        # with their I levels.
        self._lv_i0 = np.append(self._lv_i, 0.0)
        self._lv_q0 = np.append(self._lv_q, 0.0)
        src_i = np.append(ci, len(self._lv_i))
        src_q = np.append(ri, len(self._lv_q))
        self._q_level_srcs = [(srcs, src_i[srcs]) for srcs in
                              (np.flatnonzero(src_q == q) for q in range(len(self._lv_q0)))]
        # Thresholds per _values_coupled call (see _CHUNK_ELEMENTS): its
        # largest temporary is the chord-node product of one Q level's
        # sources, or _circle_density's two (M, arcs, K) arrays.
        arcs = 1 + 2 * (len(self._cells.i_bounds) + len(self._cells.q_bounds))
        largest = max(max(len(srcs) for srcs, _ in self._q_level_srcs) * cells,
                      2 * c.m_q * arcs * len(_GL_ARC[0]))
        self._chunk = max(1, _CHUNK_ELEMENTS // largest)
        # Normal CDF of each row bound per Q level, (levels, rows).
        self._cdf_row_hi = ndtr((self._row_hi[None, :] - self._lv_q0[:, None]) / self.sigma)
        self._cdf_row_lo = ndtr((self._row_lo[None, :] - self._lv_q0[:, None]) / self.sigma)
        # Cell probabilities per level, (levels, rows) and (levels, cols), and
        # from them the rectangle probabilities per (source symbol, decision
        # cell) and the zero-mean (noise slot) cell masses.
        row_mass = self._cdf_row_hi - self._cdf_row_lo
        col_mass = (ndtr((self._col_hi[None, :] - self._lv_i0[:, None]) / self.sigma)
                    - ndtr((self._col_lo[None, :] - self._lv_i0[:, None]) / self.sigma))
        self._p_rect = col_mass[ci][:, ci] * row_mass[ri][:, ri]  # (M, M)
        self._rect0 = col_mass[-1, ci] * row_mass[-1, ri]
        # Gray-label Hamming weights between source symbols and cells.
        self._ham = np.bitwise_count(
            (c.labels[:, None] ^ c.labels[None, :]).astype(np.uint64)
        ).astype(float)
        self._bits_mat = (
            (c.labels[None, :] >> np.arange(c.n_q)[:, None]) & 1
        ).astype(float)  # (n_q, M)

    # -- one panel of thresholds at a time ------------------------------------
    def panel(self, ys: np.ndarray) -> _Panel:
        """Everything the event integrands read at the thresholds ys, one
        array per quantity.  The integrals of one evaluation bisect [lo, hi]
        alike, so a panel is computed once and kept for the next integral."""
        key = ys.tobytes()
        got = self._panels.get(key)
        if got is None:
            got = self._panels[key] = self._evaluate(ys)
        return got

    def _evaluate(self, ys: np.ndarray) -> _Panel:
        """The panel of the thresholds ys.  Each distribution function is
        called once, with all of ys."""
        nb = self.nb_bar
        if self.coupled:
            n = self._chunk
            s, g, t, bp_tx, bp_det, bp_at_tx, bp_at_det, at_rate = (
                np.concatenate(part) for part in zip(*(
                    self._values_coupled(ys[i:i + n]) for i in range(0, len(ys), n)
                ))
            )
            # Bit-one probabilities of the transmitted words
            # W = (bp_tx[0], bp_tx[1], bp_at_tx) and the demaps
            # D = (bp_det[0..4], bp_at_det), as for mis_bits: per threshold,
            # the Gram matrix W D^T and the row sums of W and D.
            words = np.concatenate((bp_tx, bp_at_tx[:, None]), axis=1)
            demaps = np.concatenate((bp_det, bp_at_det[:, None]), axis=1)
            gram = (words @ demaps.swapaxes(1, 2), words.sum(axis=2), demaps.sum(axis=2))
            # Erroneous bits of an aligned slot with its metric above y and below y.
            rate_v = np.divide(t, s, out=np.full_like(s, nb), where=s > 1e-300)
            rate_p = np.divide(nb - t, 1.0 - s, out=np.full_like(s, nb), where=s < 1.0 - 1e-12)
            rate_v, rate_p = (np.clip(r, 0.0, self.c.n_q) for r in (rate_v, rate_p))
        else:
            s, g, t = self._values_uncoupled(ys)
            at_rate = rate_v = rate_p = np.full(len(ys), nb)
            gram = None
        f, cdf = self._f_nsl(ys, self.s2), self._F_nsl(ys, self.s2)
        pdf = sum(a * self._f_sl(ys, o, self.s2) for a, o in zip(self._mix_w, self._mix_loc))
        return _Panel(s, g, t, at_rate, gram, f, cdf, pdf, rate_v, rate_p)

    # -- signal slot metric/decision, per vector of thresholds ---------------
    def _values_uncoupled(self, y: np.ndarray):
        s = sum(a * (1.0 - self._F_sl(y, o, self.s2)) for a, o in zip(self._mix_w, self._mix_loc))
        return s, self.pbar * s, self.nb_bar * s

    def _circle_arcs(self, radius: np.ndarray):
        """Arc partition of each circle into constant-decision segments.

        Decision boundaries are axis-aligned lines, so a circle splits into
        arcs; returns (start angles, spans, decision symbol per arc), each
        (circles, arcs).  Every boundary line gives its arc starts whether
        or not the circle crosses it: a line it misses gives empty arcs at
        angle 0, which add nothing.
        """
        two_pi = 2 * math.pi
        t_i, hit_i = _crossings(math.acos, self._cells.i_bounds, radius)
        t_q, hit_q = _crossings(math.asin, self._cells.q_bounds, radius)
        angles = np.sort(np.concatenate([
            np.zeros((len(radius), 1)),
            t_i,
            np.where(hit_i, two_pi - t_i, 0.0),
            t_q % two_pi,
            np.where(hit_q, (math.pi - t_q) % two_pi, 0.0),
        ], axis=1), axis=1)
        spans = np.diff(np.concatenate([angles, angles[:, :1] + two_pi], axis=1), axis=1)
        mid = angles + spans / 2.0
        r = radius[:, None]
        return angles, spans, self._cells.decide(r * np.cos(mid), r * np.sin(mid))

    def _circle_demap(self, arcs) -> np.ndarray:
        """Decision-cell distribution of a point uniform on each circle, from
        the circles' arc partition: (circles, M)."""
        _, spans, syms = arcs
        q = np.zeros((len(spans), self.c.m_q))
        np.add.at(q, (np.arange(len(spans))[:, None], syms), spans / (2 * math.pi))
        return q

    def _circle_density(self, r: np.ndarray, arcs):
        """Joint density of (decision cell, metric) at metric values r**2.

        Returns per radius the (M sources, M cells) matrix of d/dy P(decide
        cell, X <= y | source): the line integral of each source Gaussian
        along the threshold circle of radius r, split by the decision arcs
        of its partition.  In polar form the metric density at angle theta
        is phi(r cos t, r sin t) / 2.
        """
        angles, spans, syms = arcs
        nodes, wts = _GL_ARC
        theta = angles[..., None] + spans[..., None] * (nodes + 1.0) / 2.0
        px = r[:, None, None] * np.cos(theta)
        py = r[:, None, None] * np.sin(theta)
        # The weighted Gaussian density per (radii, M, arcs, K), formed in
        # place, so that two arrays of that size are alive at a time.
        phi = np.square(px[:, None] - self._m_i[:, None, None])
        dq = py[:, None] - self._m_q[:, None, None]
        phi += np.square(dq, out=dq)
        np.negative(phi, out=phi)
        phi /= 2 * self.s2
        np.exp(phi, out=phi)
        phi /= 2 * math.pi * self.s2
        phi *= wts
        arc_int = 0.5 * (spans / 2.0)[:, None, :] * np.sum(phi, axis=3)
        m = self.c.m_q
        f = np.zeros((len(r), m, m))
        np.add.at(f, (np.arange(len(r))[:, None, None], np.arange(m)[:, None], syms[:, None, :]),
                  arc_int)
        return f

    def _disk_masses(self, r: np.ndarray) -> np.ndarray:
        """Mass of each decision cell inside the metric disk of each radius,
        per source symbol: (radii, M + 1, rows, cols), the zero-mean (pure
        noise) slot last.

        Each column's chord integral takes the 96-node Gauss-Legendre rule
        over u, with the rows clipped at the chord height +-g(u).  A source's
        masses come from its Q level's row masses and its I level's column
        densities, one Q level at a time: the level's (radii, rows, cols, K)
        row masses times the weighted column densities of the sources on
        that level, summed over the chord nodes.

        The row masses mirror across the Q axis: a grid has an even number of
        columns, its column bounds are antisymmetric and the rule's nodes
        too, so the chord nodes of the right half's columns are exactly the
        negated ones of the left half's, in reverse order, and their chord
        heights g are the same floats.  So the row masses are computed for
        the left half and reversed into the right half, bit for bit.
        """
        sig = self.sigma
        nodes, wts = _GL_NODES
        lo_u = np.maximum(self._col_lo, -r[:, None])
        hi_u = np.minimum(self._col_hi, r[:, None])
        span = np.maximum(hi_u - lo_u, 0.0)  # (radii, cols)
        u = 0.5 * span[..., None] * nodes + 0.5 * (lo_u + hi_u)[..., None]
        u_left = u[:, : len(self._col_lo) // 2]
        rr = r[:, None, None]
        g = np.sqrt(np.maximum(rr * rr - u_left * u_left, 0.0))[:, None]  # (radii, 1, cols / 2, K)
        # A disk-clipped row extent stops at its row bound or at the chord
        # +-g, so its normal CDF per Q level comes from the row-bound table
        # or from one ndtr per level and chord node, as the row bound lies
        # inside or outside the chord: (radii, rows, cols / 2, K).
        hi_row = self._row_hi[:, None, None] < g
        lo_row = self._row_lo[:, None, None] > -g
        dens = np.exp(-((u[:, None] - self._lv_i0[:, None, None]) ** 2) / (2 * self.s2))
        dens /= math.sqrt(2 * math.pi * self.s2)
        dens *= wts  # weighted column densities per I level, (radii, levels, cols, K)
        half_span = 0.5 * span[:, None, None]
        disk = np.empty((len(r), self.c.m_q + 1, len(self._row_lo), len(self._col_lo)))
        for q, (srcs, i_levels) in enumerate(self._q_level_srcs):
            lv = self._lv_q0[q]
            inner_left = np.where(hi_row, self._cdf_row_hi[q, :, None, None], ndtr((g - lv) / sig))
            inner_left -= np.where(lo_row, self._cdf_row_lo[q, :, None, None],
                                   ndtr((-g - lv) / sig))
            np.maximum(inner_left, 0.0, out=inner_left)
            inner = np.concatenate([inner_left, inner_left[:, :, ::-1, ::-1]], axis=2)
            disk[:, srcs] = half_span * np.sum(inner[:, None] * dens[:, i_levels, None], axis=4)
        return disk

    def _values_coupled(self, y: np.ndarray):
        """Survival, decision and Gray-bit quantities of the thresholds y.

        Returns (s, g, t, bp_tx, bp_det, bp_at_tx, bp_at_det, at_rate), each
        with a leading axis over y: bp_tx (2, n_q) and bp_det (5, n_q) are
        the bit-one probabilities of the words and demaps that mis_bits
        reads, bp_at_* those of a signal slot pinned at the threshold.
        """
        c = self.c
        n_y = len(y)
        r = np.sqrt(np.maximum(y, 0.0))
        disk = self._disk_masses(r)
        m = c.m_q
        ri, ci = c.row_idx, c.col_idx
        # J[y, s, cell] = P(land in cell AND metric above y), stored per y
        # with the sources contiguous (jt is its transpose, in C order):
        # numpy's sums add pairwise along a contiguous axis and one by one
        # along a strided one, and every sum below runs in the same order
        # for every y and in every vector length.
        jt = np.clip(self._p_rect.T - np.ascontiguousarray(disk[:, :m, ri, ci].swapaxes(1, 2)),
                     0.0, None)
        j = jt.swapaxes(1, 2)
        surv = jt.sum(axis=1)  # per-source survival
        s_bar = surv.mean(axis=1)
        g_bar = jt.diagonal(axis1=1, axis2=2).mean(axis=1)
        t_bar = np.multiply(self._ham, j, order="C").sum(axis=2).mean(axis=1)
        noise_lo = disk[:, m, ri, ci]  # noise-slot cell masses inside the disk

        arcs = self._circle_arcs(r)
        # at-threshold signal slot: metric-density-resolved conditioning
        f_at = self._circle_density(r, arcs)
        f_tot = f_at.reshape(n_y, -1).sum(axis=1)
        # The nine distributions that condition the Gray bits, each
        # normalised (uniform when it has no mass).
        dists = np.stack([
            surv,
            1.0 - surv,
            np.where(r[:, None] > 0.0, self._circle_demap(arcs), 1.0 / m),
            noise_lo,
            jt.sum(axis=2),
            (self._p_rect.T - jt).sum(axis=2),
            self._rect0 - noise_lo,
            f_at.sum(axis=2),
            f_at.sum(axis=1),
        ], axis=1)
        np.clip(dists, 0.0, None, out=dists)
        tot = dists.sum(axis=2, keepdims=True)
        dists = np.divide(dists, tot, out=np.full_like(dists, 1.0 / m), where=tot > 0.0)
        bp = (self._bits_mat @ dists[..., None])[..., 0]  # (y, 9, n_q)
        has_f = f_tot > 0.0
        rate_at = np.divide((self._ham * f_at).reshape(n_y, -1).sum(axis=1), f_tot,
                            out=np.full(n_y, self.nb_bar), where=has_f)
        bp_at_tx = np.where(has_f[:, None], bp[:, 7], bp[:, 0])
        bp_at_det = np.where(has_f[:, None], bp[:, 8], bp[:, 4])
        return s_bar, g_bar, t_bar, bp[:, 0:2], bp[:, 2:7], bp_at_tx, bp_at_det, rate_at

    def mis_bits(self, panel: _Panel, classes: np.ndarray, circle_frac: float,
                 at_frac: float = 0.0):
        """Expected erroneous bits over misaligned positions at each
        threshold of panel.

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
        if panel.gram is None:
            return float(np.sum(classes)) * self.c.n_q / 2.0
        # Rows and columns are affine in at_frac/circle_frac over three word
        # and six demap distributions, so their cross terms come from the
        # Gram matrix.  Rows: the retained word (1 - a) W0 + a W2 and the
        # displaced word W1.
        gm, s_w, s_d = panel.gram
        a, b = at_frac, circle_frac

        def cols(v):  # columns: b D0 + (1 - b) D4, D1, (1 - a) D2 + a D5, D3
            return (b * v[:, 0] + (1.0 - b) * v[:, 4], v[:, 1],
                    (1.0 - a) * v[:, 2] + a * v[:, 5], v[:, 3])

        retained = (1.0 - a) * gm[:, 0] + a * gm[:, 2]
        rows = (((1.0 - a) * s_w[:, 0] + a * s_w[:, 2], retained), (s_w[:, 1], gm[:, 1]))
        s_d = cols(s_d)
        total = 0.0
        for counts, (s_t, cross) in zip(np.asarray(classes, dtype=float).tolist(), rows):
            # H[t, d] = sum_bits p + q - 2 p q
            for n, s_c, x in zip(counts, s_d, cols(cross)):
                total += n * (s_t + s_c - 2.0 * x)
        return total


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k elementwise with Python's scalar power: numpy's vector power
    rounds differently in the last bit, and the event integrands keep the
    scalar values."""
    return np.array([v**k for v in x.tolist()])


def _events_route(model: _SlotModel, code: MppmCode, tol: float) -> AnalyticResult:
    """SER/BER of the events model over the code's correction statistics.

    Events are indexed by the number of noise slots entering the sorted
    selection (0, 1, 2, >=3), derived from the order statistics of the
    noise-slot metrics against the signal-slot survival functions.  QAM bit
    expectations for the swap events average the metric-conditioned aligned
    and misaligned rates over the event's threshold distribution.
    """
    stats = correction_stats(code)
    n, w = code.n_slots, code.weight
    nn = n - w
    errs = []

    def integral(fn):
        """Integral over the threshold of fn of its panels."""
        val, err = _integrate(lambda ys: fn(model.panel(ys)), model.lo, model.hi, tol)
        errs.append(err)
        return val

    # P(no noise slot in the selection), plain and decision-coupled, and the
    # expected erroneous QAM bits accumulated in that event.
    a0 = nn * integral(lambda e: e.f_nsl * _pow(e.F_nsl, nn - 1) * _pow(e.s, w))
    a_dec = nn * integral(lambda e: e.f_nsl * _pow(e.F_nsl, nn - 1) * _pow(e.g, w))
    e0_bits = w * nn * integral(
        lambda e: e.f_nsl * _pow(e.F_nsl, nn - 1) * e.t * _pow(e.s, w - 1)
    )

    # decision-coupled analogues of P(>=1), P(>=2) for the rescue term
    pbar = model.pbar

    def dec_ge1(e):
        return np.maximum(pbar**w - _pow(e.g, w), 0.0)

    def dec_ge2(e):
        g = e.g
        return np.maximum(pbar**w - _pow(g, w) - w * (pbar - g) * _pow(g, w - 1), 0.0)

    g1d = nn * integral(lambda e: e.f_nsl * _pow(e.F_nsl, nn - 1) * dec_ge1(e))
    g2d = 0.0
    if nn >= 2 and w >= 2:
        g2d = nn * (nn - 1) * integral(
            lambda e: e.f_nsl * _pow(e.F_nsl, nn - 2) * (1.0 - e.F_nsl) * dec_ge2(e)
        )

    # Exact event-l decomposition over the threshold metric (the w-th
    # largest): either the weakest retained signal sits at the threshold
    # with all l entered noise slots above it (case A), or the weakest
    # entered noise slot does, with the rest of the entered noise above
    # (case B).  Event probabilities and per-event QAM bit expectations are
    # single integrals over the threshold in this decomposition.
    def dens_a(e, l, c_a):
        s, fy = e.s, e.F_nsl
        return (c_a * e.signal_pdf * _pow(s, w - l - 1) * _pow(1.0 - s, l)
                * _pow(1.0 - fy, l) * _pow(fy, nn - l))

    def dens_b(e, l, c_b):
        s, fy = e.s, e.F_nsl
        return (c_b * e.f_nsl * _pow(fy, nn - l) * _pow(1.0 - fy, l - 1)
                * _pow(1.0 - s, l) * _pow(s, w - l))

    def bits_at(e, l, c_a, c_b, cls, av, ap):
        rv, rp = e.rate_v, e.rate_p
        bits_b = av * rv + ap * rp + model.mis_bits(e, cls, 1.0 / l)
        out = dens_b(e, l, c_b) * bits_b
        if c_a:
            # one retained signal slot is pinned at the threshold
            at = 1.0 / (w - l)
            rv_a = (1.0 - at) * rv + at * e.at_rate
            bits_a = av * rv_a + ap * rp + model.mis_bits(e, cls, 0.0, at)
            out += dens_a(e, l, c_a) * bits_a
        return out

    l_max = min(w, nn)
    p1 = 0.0
    swap_bits_total = 0.0
    for l in range(1, l_max + 1):
        c_a = w * math.comb(w - 1, l) * math.comb(nn, l) if l <= w - 1 else 0.0
        c_b = nn * math.comb(nn - 1, l - 1) * math.comb(w, l)
        p_a = integral(lambda e: dens_a(e, l, c_a)) if c_a else 0.0
        p_b = integral(lambda e: dens_b(e, l, c_b))
        p_l = p_a + p_b
        if l == 1:
            p1 = p_l
        li = min(l, stats.max_swaps) - 1
        av, ap = stats.align_v[li], stats.align_p[li]
        cls = np.asarray(stats.classes[li])
        if p_l <= max(tol, 1e-280):
            qam_l = (av + ap) * model.nb_bar + float(cls.sum()) * model.c.n_q / 2.0
        else:
            qam_l = integral(lambda e: bits_at(e, l, c_a, c_b, cls, av, ap)) / p_l
        swap_bits_total += p_l * (stats.pat_bits[li] + qam_l)
        if p_l == 0.0:
            break

    rho = stats.rescue_prob
    pe = 1.0 - a_dec - rho * max(g1d - g2d, 0.0)
    pc_mppm = a0 + rho * p1
    pb = (e0_bits + swap_bits_total) / (code.q_mppm + w * model.c.n_q)
    return AnalyticResult(
        pe=min(max(pe, 0.0), 1.0),
        pb=min(max(pb, 0.0), 1.0),
        pc_mppm=min(max(pc_mppm, 0.0), 1.0),
        pe_qam=model.pe_bar,
        quad_error=max(errs),
    )


def _compose(code: MppmCode, c: Constellation, link: LinkParams, pc: float, pc_corr: float,
             good_nb: float, wrong_nb: float, quad_error: float) -> AnalyticResult:
    """Textbook composition P_e = 1 - E[Pc_sort * Pc_QAM] of the w signal slots.

    The pattern sorts correctly with probability pc, and pc_corr =
    E[Pc_sort * Pc_QAM] also has all w QAM decisions correct; good_nb and
    wrong_nb are the expected erroneous QAM bits of the correctly and the
    wrongly sorted frames.  Wrong patterns are treated as uniform over the
    remaining set (the K_l weights), which overstates the scrambling of real
    sorting errors.  quad_error is the error estimate of the integrals (0
    when nothing was integrated).
    """
    w, n = link.weight, link.n_slots
    wrong = 1.0 - pc
    miss = 0.0
    for l in range(1, min(w, n - w) + 1):
        kl = float(k_l(n, w, l))
        miss += kl * ((w - l) / w * wrong_nb + c.n_q / 2.0 * l * wrong)
    pb = (good_nb + ne_mppm(code.q_mppm) * wrong + miss) / total_bits(n, w, c.n_q)
    pe_qam = float(np.mean(per_symbol_errors(link, c)[0]))
    return AnalyticResult(pe=min(max(1.0 - pc_corr, 0.0), 1.0), pb=min(max(pb, 0.0), 1.0),
                          pc_mppm=pc, pe_qam=pe_qam, quad_error=quad_error)


def _separate_average(code: MppmCode, c: Constellation, link: LinkParams, pc: float,
                      quad_error: float) -> AnalyticResult:
    """_compose for QAM decisions independent of the sorting: each of the w
    slots decides correctly with the symbol-mean probability and has the
    symbol-mean erroneous bits, whichever way the pattern sorts."""
    pe_sym, nb_sym = per_symbol_errors(link, c)
    w = link.weight
    nb = w * float(np.mean(nb_sym))
    corr = (1.0 - float(np.mean(pe_sym))) ** w
    return _compose(code, c, link, pc, pc * corr, pc * nb, (1.0 - pc) * nb, quad_error)


def pe_cmd_ja(code: MppmCode, c: Constellation, link: LinkParams,
              tol: float = 1e-10) -> AnalyticResult:
    """CMD error probabilities, joint-average route.

    The events model enumerates no ring-count vector, so this is the
    separate-average evaluation (see pe_cmd_sa).
    """
    return pe_cmd_sa(code, c, link, tol)


def pe_cmd_sa(code: MppmCode, c: Constellation, link: LinkParams,
              tol: float = 1e-10) -> AnalyticResult:
    """CMD error probabilities, separate-average route.

    The decision-coupled event expectations factorize exactly over the
    i.i.d. symbol draw, so the joint and separate averages coincide here;
    the split is kept for the composition cross-check modes where the
    distinction is real.
    """
    return _events_route(_SlotModel(c, link, "cmd"), code, tol)


def pe_cmd_composition(code: MppmCode, c: Constellation, link: LinkParams,
                       tol: float = 1e-10, method: str = "ja") -> AnalyticResult:
    """Uncoupled composition P_e = 1 - E[Pc_sort*Pc_QAM] (cross-check mode).

    The pattern sorts correctly when every signal-slot metric is above the
    largest of the nn = N - w noise-slot metrics.  With q_r the survival
    function of energy ring r's metric, w slots in rings r_1..r_w sort
    correctly with probability nn int f_nsl F_nsl^(nn - 1) prod_i q_(r_i) dx.
    The separate average (sa) draws the slots from the ring mixture of
    weights pi_r, which makes the product (sum_r pi_r q_r)^w.  The joint
    average (ja) averages the product with the slots' QAM decisions over the
    ring-count vectors.  Given its ring a symbol is uniform in it, so with
    a_r a ring's mean probability of a correct decision and b_r its mean
    erroneous bits, the multinomial theorem sums the vectors into powers of
    mixtures: E[Pc_sort * Pc_QAM] integrates (sum_r pi_r a_r q_r)^w, and the
    QAM bits of correctly sorted frames w (sum_r pi_r b_r q_r)
    (sum_r pi_r q_r)^(w - 1).  Both averages have the same pc_mppm.
    """
    if method not in ("ja", "sa"):
        raise ValueError("method must be 'ja' or 'sa'")
    groups, wgt, oms = _ring_mixture(c, link)
    w, nn, s2 = link.weight, link.n_slots - link.weight, link.sigma2
    x_max = (math.sqrt(oms.max()) + _DOMAIN_SIGMAS * math.sqrt(s2)) ** 2
    errs = []

    def integral(power):
        """nn int f_nsl F_nsl^(nn - 1) power(q) dx, q the rings' survival
        functions at one panel's nodes, (rings, nodes)."""
        def f(x):
            q = np.array([1.0 - dist.F_sl_cmd(x, o, s2) for o in oms])
            return nn * dist.f_nsl_cmd(x, s2) * dist.F_nsl_cmd(x, s2) ** (nn - 1) * power(q)

        val, err = _integrate(f, 0.0, x_max, tol)
        errs.append(err)
        return val

    pc = min(max(integral(lambda q: (wgt @ q) ** w), 0.0), 1.0)
    if method == "sa":
        return _separate_average(code, c, link, pc, errs[0])
    # The symbol means scaled out, the rings' weights a and b sum to 1, so
    # these integrals are near pc and meet qags's absolute tolerance
    # relative to their values too, however few the erroneous bits.
    pe_sym, nb_sym = per_symbol_errors(link, c)
    pc_bar, nb_bar = 1.0 - float(np.mean(pe_sym)), float(np.mean(nb_sym))
    a = wgt * np.array([np.mean(1.0 - pe_sym[g]) for g in groups]) / pc_bar
    b = wgt * np.array([np.mean(nb_sym[g]) for g in groups]) / (nb_bar or 1.0)
    pc_corr = pc_bar**w * integral(lambda q: (a @ q) ** w)
    good_nb = w * nb_bar * integral(lambda q: (b @ q) * (wgt @ q) ** (w - 1))
    return _compose(code, c, link, pc, pc_corr, good_nb, w * nb_bar - good_nb, max(errs))


def pe_imd(code: MppmCode, c: Constellation, link: LinkParams,
           tol: float = 1e-10, mppm_route: str = "ni") -> AnalyticResult:
    """IMD error probabilities; pattern part via integration or union bound.

    The union bound composes the separate average with the bound's
    correct-pattern probability.
    """
    if mppm_route == "ni":
        return _events_route(_SlotModel(c, link, "imd"), code, tol)
    if mppm_route != "ub":
        raise ValueError("mppm_route must be 'ni' or 'ub'")
    pc = 1.0 - mppm_ser_ub(code, link.slot_energy / link.sigma2)
    return _separate_average(code, c, link, pc, 0.0)
