"""Gray-labeled QAM constellations, ML demapping and symbol error probabilities.

Constellations are normalized so the mean symbol energy is exactly 1.
Square shapes are used for even bit counts, a 4x2 rectangle for 3 bits,
and cross shapes for odd bit counts >= 5.  The exact error probabilities
rest on axis-aligned decision cells, so they exist for the grid (square and
rectangular) shapes only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The closed forms import scipy.special.erfc where they run, so that a
# simulation-only sweep never loads scipy.


def _gray(k):
    """Gray code of an integer or of each entry of an integer array."""
    return k ^ (k >> 1)


def _pam_levels(n: int) -> np.ndarray:
    """Integer PAM levels -(n-1), -(n-3), ..., (n-1)."""
    return 2.0 * np.arange(n) - (n - 1)


@dataclass(frozen=True)
class Constellation:
    """Immutable QAM point set with per-point bit labels.

    points are (M, 2) arrays of (I, Q) coordinates in normalized energy
    units; labels[i] is the n_q-bit word carried by point i.  For grid
    shapes (square / rectangular) col_idx, row_idx and the per-axis level
    arrays are kept so exact per-symbol error probabilities can be
    computed from one-dimensional crossover probabilities, and so the ML
    decision can be made one axis at a time (grid_cells).
    """

    n_q: int
    m_q: int
    points: np.ndarray
    labels: np.ndarray
    kind: str  # 'square' | 'rect' | 'cross'
    col_idx: np.ndarray | None = field(default=None, repr=False)
    row_idx: np.ndarray | None = field(default=None, repr=False)
    i_levels: np.ndarray | None = field(default=None, repr=False)
    q_levels: np.ndarray | None = field(default=None, repr=False)

    @property
    def energies(self) -> np.ndarray:
        return np.sum(self.points**2, axis=1)

    @property
    def is_grid(self) -> bool:
        return self.kind in ("square", "rect")

    def energy_rings(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Unique symbol energies and the symbol indices at each energy."""
        e = np.round(self.energies, 12)
        uniq = np.unique(e)
        groups = [np.flatnonzero(e == u) for u in uniq]
        return uniq, groups

    def grid_cells(self, amp: float) -> "GridCells":
        """Midpoint decision cells of a grid shape whose points are scaled by amp."""
        if not self.is_grid:
            raise ValueError("decision cells are axis-aligned only for grid constellations")

        def bounds(levels):
            lv = amp * levels
            return (lv[:-1] + lv[1:]) / 2.0

        symbol = np.full((len(self.i_levels), len(self.q_levels)), -1, dtype=np.int64)
        symbol[self.col_idx, self.row_idx] = np.arange(self.m_q)
        return GridCells(bounds(self.i_levels), bounds(self.q_levels), symbol)


@dataclass(frozen=True)
class GridCells:
    """Decision cells of the ML demapper of a grid constellation.

    The cells are rectangles cut by the midpoints between adjacent levels of
    each axis.  i_bounds and q_bounds hold those interior boundaries in
    increasing order; column k of the I axis is (i_bounds[k-1], i_bounds[k]],
    so a point on a boundary is decided as the lower level, which is the
    lowest-index tie of an argmin over the points.  symbol[col, row] is the
    index of the point in that cell.
    """

    i_bounds: np.ndarray
    q_bounds: np.ndarray
    symbol: np.ndarray

    def decide(self, yi, yq) -> np.ndarray:
        """Symbol index of the cell holding each (yi, yq), one axis at a time.

        An axis index counts the bounds below the coordinate, one comparison
        per bound, which is np.searchsorted(bounds, y) without its search.
        """
        cell = np.zeros(np.shape(yi), dtype=np.int16)
        for b in self.i_bounds:
            cell += yi > b
        cell *= self.symbol.shape[1]
        for b in self.q_bounds:
            cell += yq > b
        return self.symbol.ravel()[cell]


def build_constellation(n_q: int) -> Constellation:
    """Build the Gray-labeled, energy-normalized constellation for n_q bits."""
    if not (2 <= n_q <= 10):
        raise ValueError(f"n_q must be in [2, 10], got {n_q}")
    m_q = 1 << n_q
    if n_q % 2 == 0 or n_q == 3:
        if n_q % 2 == 0:
            ncols = nrows = 1 << (n_q // 2)
            kind = "square"
        else:
            ncols, nrows = 4, 2
            kind = "rect"
        rbits = int(np.log2(nrows))
        i_lv = _pam_levels(ncols)
        q_lv = _pam_levels(nrows)
        cols, rows = np.meshgrid(np.arange(ncols), np.arange(nrows), indexing="ij")
        cols = cols.ravel()
        rows = rows.ravel()
        pts = np.stack([i_lv[cols], q_lv[rows]], axis=1)
        labels = np.array(
            [(_gray(c) << rbits) | _gray(r) for c, r in zip(cols, rows)], dtype=np.int64
        )
        norm = np.sqrt(np.mean(np.sum(pts**2, axis=1)))
        return Constellation(
            n_q=n_q,
            m_q=m_q,
            points=pts / norm,
            labels=labels,
            kind=kind,
            col_idx=cols,
            row_idx=rows,
            i_levels=i_lv / norm,
            q_levels=q_lv / norm,
        )
    # Cross shape: side x side grid with cut x cut corners removed.
    side = 3 * (1 << ((n_q - 3) // 2))
    cut = 1 << ((n_q - 5) // 2)
    lv = _pam_levels(side)
    coords = []
    for c in range(side):
        for r in range(side):
            corner_c = c < cut or c >= side - cut
            corner_r = r < cut or r >= side - cut
            if corner_c and corner_r:
                continue
            coords.append((c, r))
    assert len(coords) == m_q
    # Column-major snake ordering; full Gray labeling of a cross footprint is
    # impossible, this quasi-Gray assignment keeps most grid neighbors at
    # Hamming distance 1 and is deterministic.
    coords.sort(key=lambda cr: (cr[0], cr[1] if cr[0] % 2 == 0 else -cr[1]))
    pts = np.array([(lv[c], lv[r]) for c, r in coords], dtype=float)
    labels = np.array([_gray(k) for k in range(m_q)], dtype=np.int64)
    norm = np.sqrt(np.mean(np.sum(pts**2, axis=1)))
    return Constellation(n_q=n_q, m_q=m_q, points=pts / norm, labels=labels, kind="cross")


def _axis_crossover(levels: np.ndarray, kappa: float) -> np.ndarray:
    """Exact decision-level transition matrix for one PAM axis.

    kappa scales normalized coordinates into noise-sigma units.  Entry
    (i, j) is the probability that a symbol sent at level i is decided as
    level j under the mid-point slicer.
    """
    from scipy.special import erfc

    x = kappa * levels
    bounds = kappa * (levels[:-1] + levels[1:]) / 2.0
    # cdf of decision cells: P(decide <= j | sent i), 1 at the last level
    cdf = np.ones((len(levels), len(levels)))
    cdf[:, :-1] = 1.0 - 0.5 * erfc((bounds - x[:, None]) / np.sqrt(2.0))
    return np.diff(cdf, axis=1, prepend=0.0)


def qam_transition_matrices(scale: float, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis exact crossover matrices for grid constellations."""
    if not c.is_grid:
        raise ValueError(f"exact error probabilities need axis-aligned decision cells, and "
                         f"{c.m_q}-QAM is a cross shape")
    kappa = np.sqrt(scale / 2.0)
    return _axis_crossover(c.i_levels, kappa), _axis_crossover(c.q_levels, kappa)


def qam_ser_exact(scale: float, c: Constellation) -> np.ndarray:
    """Exact per-symbol error probability for grid constellations.

    Decision regions of the ML demapper are axis-aligned rectangles, so the
    probability of a correct decision factorizes over the I and Q axes.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    ti, tq = qam_transition_matrices(scale, c)
    pc = ti[c.col_idx, c.col_idx] * tq[c.row_idx, c.row_idx]
    return 1.0 - pc


def qam_bit_errors_exact(scale: float, c: Constellation) -> np.ndarray:
    """Exact per-symbol expected number of erroneous bits after demapping.

    Uses the per-axis crossover matrices and the per-axis Gray labels; the
    label Hamming distance splits over the axes for grid constellations.
    """
    ti, tq = qam_transition_matrices(scale, c)

    def axis_expected_bits(t: np.ndarray) -> np.ndarray:
        g = _gray(np.arange(t.shape[0]))
        return np.sum(t * np.bitwise_count(g[:, None] ^ g[None, :]), axis=1)

    nb_i = axis_expected_bits(ti)
    nb_q = axis_expected_bits(tq)
    return nb_i[c.col_idx] + nb_q[c.row_idx]

