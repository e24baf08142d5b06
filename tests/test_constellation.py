"""Unit tests for Gray-labeled QAM constellations and exact error rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qam_mppm.constellation import (
    build_constellation,
    qam_bit_errors_exact,
    qam_ser_exact,
    qam_transition_matrices,
)

from oracles import demap_ml, qam_avg_ser


@pytest.mark.parametrize("n_q", range(2, 9))
def test_energy_normalization(n_q):
    c = build_constellation(n_q)
    assert c.m_q == 1 << n_q
    assert c.points.shape == (c.m_q, 2)
    assert np.mean(c.energies) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_q", range(2, 9))
def test_labels_are_a_permutation(n_q):
    c = build_constellation(n_q)
    assert sorted(c.labels.tolist()) == list(range(c.m_q))


@pytest.mark.parametrize("n_q", [2, 3, 4, 6, 8])
def test_grid_gray_adjacency(n_q):
    """Nearest grid neighbors differ in exactly one label bit."""
    c = build_constellation(n_q)
    assert c.is_grid
    d_min = None
    for i in range(c.m_q):
        d2 = np.sum((c.points - c.points[i]) ** 2, axis=1)
        d2[i] = np.inf
        d_min = d2.min() if d_min is None else min(d_min, d2.min())
    for i in range(c.m_q):
        d2 = np.sum((c.points - c.points[i]) ** 2, axis=1)
        for j in np.flatnonzero(np.isclose(d2, d_min)):
            ham = bin(int(c.labels[i]) ^ int(c.labels[j])).count("1")
            assert ham == 1


@pytest.mark.parametrize("n_q", [5, 7])
def test_cross_shapes(n_q):
    c = build_constellation(n_q)
    assert c.kind == "cross"
    assert not c.is_grid
    assert c.m_q == 1 << n_q
    assert np.mean(c.energies) == pytest.approx(1.0, abs=1e-12)
    for exact in (qam_ser_exact, qam_bit_errors_exact, qam_transition_matrices):
        with pytest.raises(ValueError, match=f"{c.m_q}-QAM is a cross shape"):
            exact(4.0, c)


def test_build_constellation_rejects_bad_sizes():
    for n_q in (0, 1, 11):
        with pytest.raises(ValueError):
            build_constellation(n_q)


@given(n_q=st.sampled_from([2, 3, 4, 6]), idx=st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_demap_clean_point_roundtrip(n_q, idx):
    c = build_constellation(n_q)
    idx %= c.m_q
    assert demap_ml(c.points[idx], c) == idx


def test_demap_small_perturbation():
    c = build_constellation(4)
    rng = np.random.default_rng(7)
    for idx in range(c.m_q):
        p = c.points[idx] + rng.normal(0.0, 0.01, 2)
        assert demap_ml(p, c) == idx


@pytest.mark.parametrize("n_q", [2, 4, 6])
def test_transition_matrix_rows_are_distributions(n_q):
    c = build_constellation(n_q)
    ti, tq = qam_transition_matrices(3.0, c)
    for t in (ti, tq):
        assert np.all(t >= 0)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n_q", [2, 4, 6])
def test_square_closed_form_matches_exact_per_symbol(n_q):
    """Average of the exact per-symbol SERs equals the two-PAM product form."""
    c = build_constellation(n_q)
    for es_n0 in (0.5, 2.0, 10.0, 40.0):
        per_sym = qam_ser_exact(4.0 * es_n0, c)
        assert np.mean(per_sym) == pytest.approx(qam_avg_ser(es_n0, c), rel=1e-12)


def test_exact_ser_monotone_and_bounded():
    c = build_constellation(4)
    prev = None
    for scale in (0.1, 1.0, 4.0, 16.0, 64.0):
        ser = qam_ser_exact(scale, c)
        assert np.all((ser >= 0) & (ser <= 1))
        mean = float(np.mean(ser))
        if prev is not None:
            assert mean < prev
        prev = mean


def test_bit_errors_bracketed_by_ser():
    """Each symbol error contributes between 1 and n_q erroneous bits."""
    c = build_constellation(4)
    for scale in (0.5, 4.0, 30.0):
        ser = qam_ser_exact(scale, c)
        nb = qam_bit_errors_exact(scale, c)
        assert np.all(nb >= ser - 1e-12)
        assert np.all(nb <= c.n_q * ser + 1e-12)


def test_exact_ser_against_monte_carlo():
    c = build_constellation(4)
    scale = 20.0  # sigma units: points scaled by sqrt(scale)/... see qam_scale
    rng = np.random.default_rng(42)
    n = 200_000
    idx = rng.integers(0, c.m_q, n)
    kappa = np.sqrt(scale / 2.0)  # noise has unit variance in these units
    pts = kappa * c.points
    rx = pts[idx] + rng.normal(0.0, 1.0, (n, 2))
    d2 = np.sum((rx[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    dec = np.argmin(d2, axis=1)
    p_hat = np.mean(dec != idx)
    p = float(np.mean(qam_ser_exact(scale, c)))
    se = np.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) < 4 * se


@pytest.mark.parametrize("n_q", [2, 3, 4, 6, 8, 10])
def test_grid_cells_decide_is_searchsorted(n_q):
    """The slicer's axis indices are np.searchsorted(bounds, y) (side
    "left"): on every bound and next to it, at +-0.0 (a bound of every
    even-level axis) and far outside the grid."""
    c = build_constellation(n_q)
    cells = c.grid_cells(0.7)

    def probes(bounds):
        return np.concatenate([bounds, np.nextafter(bounds, -np.inf),
                               np.nextafter(bounds, np.inf),
                               [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]])

    yi, yq = np.meshgrid(probes(cells.i_bounds), probes(cells.q_bounds), indexing="ij")
    got = cells.decide(yi, yq)
    assert got.shape == yi.shape
    assert np.array_equal(c.col_idx[got], np.searchsorted(cells.i_bounds, yi))
    assert np.array_equal(c.row_idx[got], np.searchsorted(cells.q_bounds, yq))
