"""Unit tests for the slot-metric distributions and special functions."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ncx2

from qam_mppm.analytic import _SlotModel
from qam_mppm.constellation import build_constellation
from qam_mppm.distributions import (
    F_nsl_cmd,
    F_nsl_imd,
    F_sl_cmd,
    F_sl_imd,
    f_nsl_cmd,
    f_nsl_imd,
    f_sl_cmd,
    f_sl_imd,
    marcum_q1,
)
from qam_mppm.link import LinkParams

CASES_CMD = [(0.0, 0.5), (1.0, 0.5), (4.0, 0.25), (9.0, 2.0)]
CASES_IMD = [(0.0, 0.5), (1.5, 0.25), (3.0, 2.0)]


@pytest.mark.parametrize("omega, sigma2", CASES_CMD)
def test_cmd_pdfs_normalize(omega, sigma2):
    val, _ = quad(lambda x: f_sl_cmd(x, omega, sigma2), 0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)
    val, _ = quad(lambda x: f_nsl_cmd(x, sigma2), 0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("mu, sigma2", CASES_IMD)
def test_imd_pdfs_normalize(mu, sigma2):
    val, _ = quad(lambda x: f_sl_imd(x, mu, sigma2), -np.inf, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("omega, sigma2", CASES_CMD)
def test_cmd_cdf_matches_pdf_by_finite_differences(omega, sigma2):
    xs = np.linspace(0.05, omega + 12 * sigma2, 60)
    h = 1e-6 * (1.0 + xs)
    num = (F_sl_cmd(xs + h, omega, sigma2) - F_sl_cmd(xs - h, omega, sigma2)) / (2 * h)
    den = f_sl_cmd(xs, omega, sigma2)
    keep = den > 1e-12
    assert np.allclose(num[keep], den[keep], rtol=1e-6, atol=1e-12)
    num = (F_nsl_cmd(xs + h, sigma2) - F_nsl_cmd(xs - h, sigma2)) / (2 * h)
    den = f_nsl_cmd(xs, sigma2)
    assert np.allclose(num, den, rtol=1e-6)


@pytest.mark.parametrize("mu, sigma2", CASES_IMD)
def test_imd_cdf_matches_pdf_by_finite_differences(mu, sigma2):
    # stay within +/-4 sigma: beyond that the cdf difference cancels in floats
    xs = np.linspace(mu - 4 * np.sqrt(sigma2), mu + 4 * np.sqrt(sigma2), 60)
    h = np.full_like(xs, 1e-5)
    num = (F_sl_imd(xs + h, mu, sigma2) - F_sl_imd(xs - h, mu, sigma2)) / (2 * h)
    den = f_sl_imd(xs, mu, sigma2)
    assert np.allclose(num, den, rtol=1e-6, atol=1e-12)


def test_marcum_identities():
    for a in (0.0, 0.5, 3.0, 50.0):
        assert marcum_q1(a, 0.0) == pytest.approx(1.0, abs=1e-12)
    for b in (0.1, 1.0, 4.0):
        assert marcum_q1(0.0, b) == pytest.approx(np.exp(-b * b / 2.0), abs=1e-12)


def test_marcum_against_noncentral_chi_square():
    for a, b in [(1.0, 2.0), (3.0, 1.0), (5.0, 5.0)]:
        ref = ncx2.sf(b * b, 2, a * a)
        assert marcum_q1(a, b) == pytest.approx(ref, rel=1e-10, abs=1e-14)


def test_marcum_large_arguments_stable():
    assert 0.0 <= marcum_q1(100.0, 120.0) <= 1.0
    assert marcum_q1(120.0, 100.0) == pytest.approx(1.0, abs=1e-6)


def test_cmd_sl_matches_noncentral_chi_square_reference():
    """The signal-slot metric is sigma2 * ncx2(2, omega/sigma2)."""
    omega, sigma2 = 4.0, 0.5
    xs = np.linspace(0.1, 15.0, 25)
    ref_pdf = ncx2.pdf(xs / sigma2, 2, omega / sigma2) / sigma2
    ref_cdf = ncx2.cdf(xs / sigma2, 2, omega / sigma2)
    assert np.allclose(f_sl_cmd(xs, omega, sigma2), ref_pdf, rtol=1e-9)
    assert np.allclose(F_sl_cmd(xs, omega, sigma2), ref_cdf, rtol=1e-9, atol=1e-12)


def test_negative_x_edges():
    assert f_sl_cmd(-1.0, 1.0, 0.5) == 0.0
    assert F_sl_cmd(-1.0, 1.0, 0.5) == 0.0
    assert f_nsl_cmd(-1.0, 0.5) == 0.0
    assert F_nsl_cmd(-1.0, 0.5) == 0.0
    assert F_nsl_imd(0.0, 1.0) == pytest.approx(0.5)


def test_mixture_normalizes_and_saturates():
    """The symbol-averaged signal-slot metric of the power-metric detector
    is a density, and its survival vanishes far above the constellation."""
    c = build_constellation(4)
    link = LinkParams.from_normalized(12, 6, 0.5, 0.05)
    model = _SlotModel(c, link, "cmd")
    val, _ = quad(lambda y: model.panel(np.array([y])).signal_pdf[0], 0, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)
    assert model.panel(np.array([50.0])).s[0] == pytest.approx(0.0, abs=1e-9)
