"""Unit tests for the analytic SER/BER machinery."""

import inspect
import math
import types
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtr

from qam_mppm import analytic, distributions
from qam_mppm.analytic import (
    CapacityError,
    ebn0_at_target,
    pc_mppm_cmd_joint,
    pc_mppm_cmd_sa,
    pc_mppm_imd,
    pe_cmd_composition,
    pe_cmd_ja,
    pe_cmd_sa,
    pe_imd,
    per_symbol_errors,
    qam_scale,
    _SlotModel,
)
from qam_mppm.constellation import build_constellation
from qam_mppm.link import LinkParams, sigma_from_ebn0
from qam_mppm.mppm import make_code


def _link(db, n=12, w=6, n_q=4, m=0.5):
    c = build_constellation(n_q)
    base = LinkParams.from_normalized(n, w, m, 1.0)
    return base.with_sigma2(sigma_from_ebn0(db, base, c)), c


def test_qam_scale_formula():
    link, _ = _link(10.0)
    assert qam_scale(link) == pytest.approx(link.m**2 / link.sigma2)


def test_per_symbol_errors_shapes_and_ranges():
    link, c = _link(12.0)
    pe, nb = per_symbol_errors(link, c)
    assert pe.shape == nb.shape == (c.m_q,)
    assert np.all((pe >= 0) & (pe <= 1))
    assert np.all(nb >= pe - 1e-12)


def test_pc_joint_permutation_invariance():
    oms = [0.5, 1.5, 3.0]
    a = pc_mppm_cmd_joint(oms, 10, 3, 0.1)
    b = pc_mppm_cmd_joint(oms[::-1], 10, 3, 0.1)
    assert a == pytest.approx(b, rel=1e-10)


def test_pc_joint_snr_limits():
    assert pc_mppm_cmd_joint([4.0, 4.0], 8, 2, 1e-3) == pytest.approx(1.0, abs=1e-8)
    low = pc_mppm_cmd_joint([4.0, 4.0], 8, 2, 50.0)
    assert low < 0.1


def test_pc_joint_validation():
    with pytest.raises(ValueError):
        pc_mppm_cmd_joint([1.0], 8, 2, 0.1)
    with pytest.raises(ValueError):
        pc_mppm_cmd_joint([-1.0, 1.0], 8, 2, 0.1)


def test_pc_sa_equals_joint_for_single_ring():
    """All 4-QAM symbols share one energy, so SA and JA coincide exactly."""
    link, c = _link(8.0, n_q=2)
    code = make_code(12, 6)
    omega = link.slot_energy * link.m**2 / 2.0
    ja = pc_mppm_cmd_joint([omega] * 6, 12, 6, link.sigma2)
    sa = pc_mppm_cmd_sa(code, c, link)
    assert sa == pytest.approx(ja, rel=1e-9)


def test_pc_imd_direct_matches_binomial():
    link, _ = _link(8.0, n=8, w=2, n_q=2, m=0.9)
    code = make_code(8, 2)
    direct = pc_mppm_imd(code, link, mode="direct")
    binom = pc_mppm_imd(code, link, mode="binomial")
    assert direct == pytest.approx(binom, rel=1e-8)


def test_pc_imd_binomial_guard():
    link, _ = _link(8.0, n=32, w=6)
    code = make_code(32, 6)
    with pytest.raises(ValueError):
        pc_mppm_imd(code, link, mode="binomial")
    with pytest.raises(ValueError):
        pc_mppm_imd(code, link, mode="bogus")


def test_results_are_probabilities_and_ordered():
    code = make_code(12, 6)
    for db in (6.0, 14.0):
        link, c = _link(db)
        for res in (pe_cmd_ja(code, c, link), pe_imd(code, c, link)):
            assert 0.0 <= res.pe <= 1.0
            assert 0.0 <= res.pb <= res.pe + 1e-12
            assert 0.0 <= res.pc_mppm <= 1.0
            assert res.quad_error >= 0.0


def test_pe_monotone_in_snr():
    code = make_code(12, 6)
    vals = []
    for db in (4.0, 10.0, 16.0, 20.0):
        link, c = _link(db)
        vals.append(pe_imd(code, c, link).pe)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ja_equals_sa():
    code = make_code(12, 6)
    link, c = _link(12.0)
    a = pe_cmd_ja(code, c, link)
    b = pe_cmd_sa(code, c, link)
    assert b.pe == pytest.approx(a.pe, rel=1e-9)
    assert b.pb == pytest.approx(a.pb, rel=1e-9)


def test_imd_union_bound_route_dominates_at_high_snr():
    code = make_code(12, 6)
    link, c = _link(18.0)
    ni = pe_imd(code, c, link, mppm_route="ni")
    ub = pe_imd(code, c, link, mppm_route="ub")
    assert ub.pc_mppm <= ni.pc_mppm + 1e-12  # bound understates Pc
    with pytest.raises(ValueError):
        pe_imd(code, c, link, mppm_route="nope")


def test_composition_mode_runs_and_brackets():
    """The uncoupled composition cross-check stays a valid probability."""
    code = make_code(12, 6)
    link, c = _link(12.0)
    for method in ("ja", "sa"):
        res = pe_cmd_composition(code, c, link, method=method)
        assert 0.0 <= res.pe <= 1.0
        assert 0.0 <= res.pb <= 1.0


def test_ja_budget_guard():
    code = make_code(16, 8)
    c = build_constellation(10)
    base = LinkParams.from_normalized(16, 8, 0.5, 1.0)
    link = base.with_sigma2(sigma_from_ebn0(10.0, base, c))
    with pytest.raises(CapacityError):
        pe_cmd_ja(code, c, link)


def test_ebn0_at_target_interpolation():
    x = np.array([10.0, 11.0, 12.0])
    y = np.array([1e-2, 1e-3, 1e-4])
    assert ebn0_at_target(x, y, 1e-3) == pytest.approx(11.0, abs=1e-9)
    assert ebn0_at_target(x, y, 10 ** -2.5) == pytest.approx(10.5, abs=1e-9)
    with pytest.raises(ValueError):
        ebn0_at_target(x, y, 1e-6)


def _values_coupled_per_source(model, y):
    """Reference slot model: the disk-clipped masses of every source symbol
    evaluated from its own means, and the circle's arcs found per use."""
    c = model.c
    sig = model.sigma
    r = math.sqrt(max(y, 0.0))
    nodes, wts = analytic._GL_NODES
    lo_u = np.maximum(model._col_lo, -r)
    hi_u = np.minimum(model._col_hi, r)
    span = np.maximum(hi_u - lo_u, 0.0)
    u = 0.5 * span[:, None] * nodes[None, :] + 0.5 * (lo_u + hi_u)[:, None]
    g = np.sqrt(np.maximum(r * r - u * u, 0.0))
    qhi = np.minimum(model._row_hi[:, None, None], g[None, :, :])
    qlo = np.maximum(model._row_lo[:, None, None], -g[None, :, :])
    amp = math.sqrt(model.link.t_s / 2.0) * model.link.i_ph * model.link.m
    m_i = amp * c.points[:, 0]
    m_q = amp * c.points[:, 1]
    inner = np.maximum(
        ndtr((qhi[None] - m_q[:, None, None, None]) / sig)
        - ndtr((qlo[None] - m_q[:, None, None, None]) / sig),
        0.0,
    )
    dens = np.exp(-((u[None, :, :] - m_i[:, None, None]) ** 2) / (2 * model.s2))
    dens /= math.sqrt(2 * math.pi * model.s2)
    disk = 0.5 * span[None, None, :] * np.sum(
        wts[None, None, None, :] * dens[:, None, :, :] * inner, axis=3
    )
    j = np.clip(model._p_rect - disk[:, c.row_idx, c.col_idx], 0.0, None)
    m = c.m_q
    surv = j.sum(axis=1)
    s_bar = float(surv.mean())
    g_bar = float(np.mean(j[np.arange(m), np.arange(m)]))
    t_bar = float(np.mean(np.sum(model._ham * j, axis=1)))
    inner0 = np.maximum(ndtr(qhi / sig) - ndtr(qlo / sig), 0.0)
    dens0 = np.exp(-(u**2) / (2 * model.s2)) / math.sqrt(2 * math.pi * model.s2)
    disk0 = 0.5 * span[None, :] * np.sum(wts * dens0[None, :, :] * inner0, axis=2)
    noise_lo = disk0[c.row_idx, c.col_idx]
    noise_hi = np.clip(model._rect0 - noise_lo, 0.0, None)

    def norm(v):
        v = np.clip(np.asarray(v, dtype=float), 0.0, None)
        tot = v.sum()
        return v / tot if tot > 0.0 else np.full(m, 1.0 / m)

    bp = model._bits_mat
    bp_tx = np.stack([bp @ norm(surv), bp @ norm(1.0 - surv)])
    q_u = model._circle_demap(model._circle_arcs(r)) if r > 0.0 else np.full(m, 1.0 / m)
    bp_det = np.stack([
        bp @ norm(q_u),
        bp @ norm(noise_lo),
        bp @ norm(j.sum(axis=0)),
        bp @ norm((model._p_rect - j).sum(axis=0)),
        bp @ norm(noise_hi),
    ])
    f_at = model._circle_density(r, model._circle_arcs(r))
    f_tot = f_at.sum()
    if f_tot > 0.0:
        rate_at = float(np.sum(model._ham * f_at)) / f_tot
        bp_at_tx = bp @ norm(f_at.sum(axis=1))
        bp_at_det = bp @ norm(f_at.sum(axis=0))
    else:
        rate_at = model.nb_bar
        bp_at_tx = bp_tx[0]
        bp_at_det = bp_det[2]
    return s_bar, g_bar, t_bar, (bp_tx, bp_det, bp_at_tx, bp_at_det, rate_at)


@pytest.mark.parametrize("n_q", [2, 3, 4, 6, 8])
def test_slot_model_per_level_matches_per_source(n_q):
    """Masses computed once per constellation level give bit for bit the
    values of the per-source evaluation."""
    link, c = _link(8.0, n_q=n_q)
    model = _SlotModel(c, link, "cmd")
    ref = _SlotModel(c, link, "cmd")
    ref._values_coupled = lambda y: _values_coupled_per_source(ref, y)
    classes = np.arange(1.0, 9.0).reshape(2, 4)
    for y in (0.0, 1e-4 * model.hi, 0.05 * model.hi, 0.3 * model.hi, 0.8 * model.hi,
              1.5 * model.hi):
        assert model.values(y) == ref.values(y)
        assert model.aligned_rates(y) == ref.aligned_rates(y)
        assert model.at_rate(y) == ref.at_rate(y)
        assert model.mis_bits(y, classes, 0.5) == ref.mis_bits(y, classes, 0.5)
        assert model.mis_bits(y, classes, 0.0, 0.25) == ref.mis_bits(y, classes, 0.0, 0.25)


def _mis_bits_stacked(model, y, classes, circle_frac, at_frac=0.0):
    """Reference mis_bits: the (2, 4) expected cross-Hamming matrix of the
    stacked word and demap distributions."""
    total = float(np.sum(classes))
    if total == 0.0:
        return 0.0
    bp_tx, bp_det, bp_at_tx, bp_at_det, _ = model._values_coupled(y)[3]
    bp_s = bp_tx[0] * (1.0 - at_frac) + bp_at_tx * at_frac
    bp_rows = np.stack([bp_s, bp_tx[1]])
    bp_u = bp_det[0] * circle_frac + bp_det[4] * (1.0 - circle_frac)
    bp_v = bp_det[2] * (1.0 - at_frac) + bp_at_det * at_frac
    bp_cols = np.stack([bp_u, bp_det[1], bp_v, bp_det[3]])
    h = (
        bp_rows.sum(axis=1)[:, None]
        + bp_cols.sum(axis=1)[None, :]
        - 2.0 * bp_rows @ bp_cols.T
    )
    return float(np.sum(classes * h))


@pytest.mark.parametrize("n_q", [2, 3, 4, 6])
def test_mis_bits_gram_form_matches_stacked(n_q):
    """mis_bits from the per-threshold Gram matrix agrees with the stacked
    formula for the fractions of both event cases (l = 2 of w = 6) and a
    mixed pair, with integer and fractional class counts."""
    link, c = _link(8.0, n_q=n_q)
    model = _SlotModel(c, link, "cmd")
    w, l = 6, 2
    fracs = [(1.0 / l, 0.0), (0.0, 1.0 / (w - l)), (0.3, 0.6)]
    class_sets = [np.arange(1.0, 9.0).reshape(2, 4),
                  np.array([[0.25, 1.5, 0.0, 2.75], [1.0 / 3.0, 0.0, 0.8, 0.125]])]
    for y in (0.0, 1e-4 * model.hi, 0.3 * model.hi, 1.5 * model.hi):
        for classes in class_sets:
            for circle_frac, at_frac in fracs:
                got = model.mis_bits(y, classes, circle_frac, at_frac)
                want = _mis_bits_stacked(model, y, classes, circle_frac, at_frac)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_distributions_run_once_per_threshold(monkeypatch):
    """Every scalar distribution call of one CMD evaluation has distinct
    arguments: one per quad node, and per energy ring for the signal slot."""
    calls = Counter()
    proxy = types.SimpleNamespace()
    for name, fn in vars(distributions).items():
        if inspect.isfunction(fn) and fn.__module__ == distributions.__name__:
            def counted(*args, _fn=fn, _name=name):
                calls[(_name, *args)] += 1
                return _fn(*args)

            fn = counted
        setattr(proxy, name, fn)
    monkeypatch.setattr(analytic, "dist", proxy)
    link, c = _link(12.0)
    pe_cmd_sa(make_code(12, 6), c, link)
    names = Counter(key[0] for key in calls)
    assert {"f_nsl_cmd", "F_nsl_cmd", "f_sl_cmd"} <= set(names)
    assert names["f_sl_cmd"] == 3 * names["f_nsl_cmd"]  # three energy rings
    repeated = [key for key, n in calls.items() if n > 1]
    assert repeated == []
