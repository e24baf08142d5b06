"""Unit tests for link parameter conversions, energies and complexity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qam_mppm.constellation import build_constellation
from qam_mppm.link import (
    DEFAULT_RECEIVER,
    LinkParams,
    ReceiverNoiseParams,
    complexity,
    frame_energies,
    link_from_popt,
    sigma_from_ebn0,
    total_bits,
)

from oracles import ebn0_db_from_sigma


def test_total_bits():
    assert total_bits(12, 6, 4) == 9 + 24
    assert total_bits(32, 2, 2) == 8 + 4
    assert total_bits(2, 1, 2) == 1 + 2


def test_frame_energies_formulas():
    c = build_constellation(4)
    link = LinkParams.from_normalized(12, 6, 0.5, 1.0)
    e_s, e_s_qam, e_b = frame_energies(link, c)
    assert e_s == pytest.approx(6 * (1 + 0.125))
    assert e_s_qam == pytest.approx(0.125)
    assert e_b == pytest.approx(e_s / 33)


def test_physical_scale_energies_track_slot_energy():
    c = build_constellation(4)
    link = LinkParams(n_slots=12, weight=6, m=0.5, t_s=2e-7, i_ph=1e-3, sigma2=1e-12)
    e_s, e_s_qam, _ = frame_energies(link, c)
    base = 2e-7 * 1e-6
    assert e_s == pytest.approx(6 * base * 1.125)
    assert e_s_qam == pytest.approx(base * 0.125)


@given(st.floats(-5.0, 30.0))
@settings(max_examples=50, deadline=None)
def test_ebn0_round_trip(db):
    c = build_constellation(4)
    base = LinkParams.from_normalized(12, 6, 0.5, 1.0)
    sigma2 = sigma_from_ebn0(db, base, c)
    assert sigma2 > 0
    assert ebn0_db_from_sigma(sigma2, base, c) == pytest.approx(db, abs=1e-10)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams.from_normalized(12, 6, 0.0, 1.0)
    with pytest.raises(ValueError):
        LinkParams.from_normalized(12, 6, 1.5, 1.0)
    with pytest.raises(ValueError):
        LinkParams.from_normalized(12, 6, 0.5, -1.0)


def test_receiver_noise_psd_terms():
    rx = DEFAULT_RECEIVER
    i_dc = 1e-6
    from scipy.constants import Boltzmann, elementary_charge

    thermal = 4 * Boltzmann * 290.0 * 10.0 / 50.0
    shot = 2 * elementary_charge * i_dc
    rin = 10 ** (-15.5) * i_dc**2
    assert rx.n0(i_dc) == pytest.approx(thermal + shot + rin, rel=1e-12)
    with pytest.raises(ValueError):
        ReceiverNoiseParams(-1.0, 50.0, 10.0, 1e-15, 0.5)


def test_link_from_popt_scales():
    q_total = total_bits(32, 2, 2)
    p_opt = 1e-6
    r_b = 50e6
    link = link_from_popt(p_opt, DEFAULT_RECEIVER, 32, 2, r_b, q_total, 0.9)
    i_dc = 0.5 * p_opt
    assert link.i_ph == pytest.approx(16 * i_dc)
    assert link.t_s == pytest.approx(q_total / (32 * r_b))
    assert link.sigma2 == pytest.approx(DEFAULT_RECEIVER.n0(i_dc) / 2.0)
    with pytest.raises(ValueError):
        link_from_popt(-1e-6, DEFAULT_RECEIVER, 32, 2, r_b, q_total, 0.9)


def test_complexity_counts():
    rep = complexity(12, 6, 16, 8)
    assert rep.cmd_qam_metrics == 2 * 12 * 8
    assert rep.cmd_qam_sorting == 12 * 16
    assert rep.imd_input_filter == 12 * 8
    assert rep.imd_qam_metrics == 2 * 6 * 8
    assert rep.imd_qam_sorting == 6 * 16
    assert rep.cmd_mppm == rep.imd_mppm == pytest.approx(12 * math.log2(6))
    assert rep.gain < 1.0  # the matched-filter detector does less work
    with pytest.raises(ValueError):
        complexity(12, 6, 16, 1)
    for bad in [(1, 1, 16, 8), (12, 12, 16, 8), (12, 6, 2, 8), (12, 6, 24, 8), (12, 6, 2048, 8)]:
        with pytest.raises(ValueError):
            complexity(*bad)


def test_complexity_single_pulse_heap_free():
    rep = complexity(8, 1, 4, 4)
    assert rep.cmd_mppm == 0.0
