"""Unit tests for the analytic SER/BER machinery."""

import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from qam_mppm import analytic, distributions, sweep
from qam_mppm.analytic import (
    CapacityError,
    QuadratureError,
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

from oracles import disk_cell_mass, ebn0_at_target


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


def _pc_per_vector(omegas, n_slots, weight, sigma2):
    """Reference correct-sorting probability of one set of signal-slot
    noncentralities: a scalar quad of the density of the weakest signal-slot
    metric against the other signal metrics above it and the noise metrics
    below it, with equal noncentralities grouped."""
    grouped = Counter(float(o) for o in omegas)
    oms, cnts = list(grouped), list(grouped.values())
    x_max = (math.sqrt(max(oms)) + 12.0 * math.sqrt(sigma2)) ** 2

    def integrand(x):
        q = [1.0 - distributions.F_sl_cmd(x, o, sigma2) for o in oms]
        f = [distributions.f_sl_cmd(x, o, sigma2) for o in oms]
        total = 0.0
        for r in range(len(oms)):
            prod = f[r] * cnts[r]
            for r2 in range(len(oms)):
                p = cnts[r2] - 1 if r2 == r else cnts[r2]
                if p:
                    prod *= q[r2] ** p
            total += prod
        return total * distributions.F_nsl_cmd(x, sigma2) ** (n_slots - weight)

    return quad(integrand, 0.0, x_max, epsabs=1e-14, epsrel=1e-12, limit=400)[0]


def _ring_rows(c, link):
    """Every ring-count vector of the w signal slots as a row of the
    sorting count matrix (mixture column 0), with the noncentralities of
    its slots and its multinomial probability."""
    _, probs, oms = analytic._ring_mixture(c, link)
    w = link.weight
    combos = list(itertools.combinations_with_replacement(range(len(probs)), w))
    counts = np.array([np.bincount(combo, minlength=len(probs) + 1) for combo in combos])
    p = np.array([math.factorial(w) / math.prod(map(math.factorial, row))
                  * math.prod(probs**row[:-1]) for row in counts])
    return counts, [oms[list(combo)] for combo in combos], p


def _composition_terms(*args, **kwargs):
    """pe_cmd_composition's result and the scalars it composed."""
    seen = []
    real = analytic._compose

    def recording(*compose_args):
        seen.append(inspect.signature(real).bind(*compose_args).arguments)
        return real(*compose_args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_compose", recording)
        return pe_cmd_composition(*args, **kwargs), seen[-1]


@pytest.mark.parametrize("db", [0.0, 12.0, 24.0])
def test_sorting_pc_matches_per_vector_oracle(db):
    """The compositions' closed forms give the sums over the ring-count
    rows of (12, 6) 16-QAM and rectangular 8-QAM that a scalar quad of each
    row's own integrand gives: the correct-sorting probability, E[Pc_sort *
    Pc_QAM] and the QAM bits of correctly sorted frames (joint average), and
    the same sorting probability with the symbol-mean decisions (separate
    average)."""
    code = make_code(12, 6)
    for n_q, rows in ((4, 28), (3, 7)):
        link, c = _link(db, n_q=n_q)
        counts, omegas, p = _ring_rows(c, link)
        assert len(counts) == rows
        assert p.sum() == pytest.approx(1.0, rel=1e-14)
        groups, _, _ = analytic._ring_mixture(c, link)
        pe, nb = per_symbol_errors(link, c)
        ring_corr = np.array([np.mean(1.0 - pe[g]) for g in groups])
        ring_nb = np.array([np.mean(nb[g]) for g in groups])
        pc = np.array([_pc_per_vector(oms, 12, 6, link.sigma2) for oms in omegas])
        corr = np.prod(ring_corr ** counts[:, :-1], axis=1)
        ja, terms = _composition_terms(code, c, link, method="ja")
        assert ja.pc_mppm == pytest.approx(p @ pc, rel=1e-9, abs=0.0)
        assert 1.0 - ja.pe == pytest.approx(p @ (pc * corr), rel=1e-9, abs=0.0)
        assert terms["good_nb"] == pytest.approx(p @ (pc * (counts[:, :-1] @ ring_nb)),
                                                 rel=1e-9, abs=0.0)
        sa = pe_cmd_composition(code, c, link, method="sa")
        assert sa.pc_mppm == pytest.approx(p @ pc, rel=1e-9, abs=0.0)
        assert 1.0 - sa.pe == pytest.approx((p @ pc) * (1.0 - np.mean(pe)) ** 6, rel=1e-9, abs=0.0)


def test_pc_joint_snr_limits():
    for db, n_q in ((40.0, 2), (-20.0, 2), (40.0, 4), (-20.0, 4)):
        link, c = _link(db, n=8, w=2, n_q=n_q)
        for method in ("ja", "sa"):
            pc = pe_cmd_composition(make_code(8, 2), c, link, method=method).pc_mppm
            if db > 0.0:
                assert pc == pytest.approx(1.0, abs=1e-8)
            else:
                assert pc < 0.1


def test_pc_sa_equals_joint_for_single_ring():
    """Summed over the ring-count vectors, the joint average's sorting
    probability is the separate average's integral, so the two pc_mppm are
    one value.  All 4-QAM symbols share one energy, so there the decisions
    are independent of the ring as well and the two averages agree on every
    output."""
    code = make_code(12, 6)
    for n_q in (2, 4):
        link, c = _link(8.0, n_q=n_q)
        ja = pe_cmd_composition(code, c, link, method="ja")
        sa = pe_cmd_composition(code, c, link, method="sa")
        assert sa.pc_mppm == ja.pc_mppm
        if n_q == 2:
            assert sa.pe == pytest.approx(ja.pe, rel=1e-12)
            assert sa.pb == pytest.approx(ja.pb, rel=1e-12)
    assert len(c.energy_rings()[1]) == 3  # 16-QAM: three rings


@pytest.mark.parametrize("method", ["ja", "sa"])
def test_sorting_pc_residual_rule(monkeypatch, method):
    """The composition integrals fail under the rule of every other
    integral: an error estimate above max(100 tol, 1e-7)."""
    code = make_code(12, 6)
    link, c = _link(12.0)
    real = analytic.qags

    def reporting(err):
        def fake(*args, **kwargs):
            val, _, ier = real(*args, **kwargs)
            return val, err, ier
        return fake

    monkeypatch.setattr(analytic, "qags", reporting(0.9e-7))
    assert pe_cmd_composition(code, c, link, method=method).quad_error == 0.9e-7
    monkeypatch.setattr(analytic, "qags", reporting(1.1e-7))
    for tol in (1e-10, 1e-9):
        with pytest.raises(QuadratureError, match="residual 1.10e-07"):
            pe_cmd_composition(code, c, link, tol=tol, method=method)
    assert pe_cmd_composition(code, c, link, tol=1e-8, method=method).quad_error == 1.1e-7


def test_imd_no_noise_entry_matches_order_statistic_integral(monkeypatch):
    """a0, the probability that every signal slot outranks every noise slot,
    equals the direct order-statistic integral over the weakest signal slot:
    w f_sl (1 - F_sl)^(w-1) F_nsl^(N-w) for the matched-filter Gaussians.
    With no rescue, pe_imd's pc_mppm = a0 + 0 * p1 is a0 exactly."""
    link, c = _link(0.0, n=8, w=2, n_q=2, m=0.9)
    code = make_code(8, 2)
    real = analytic.correction_stats
    monkeypatch.setattr(analytic, "correction_stats",
                        lambda code: dataclasses.replace(real(code), rescue_prob=0.0))
    a0 = pe_imd(code, c, link).pc_mppm
    mu = math.sqrt(link.t_s) * link.i_ph
    sigma = math.sqrt(link.sigma2)

    def weakest_signal(x):
        pdf = math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return 2 * pdf * ndtr((mu - x) / sigma) * ndtr(x / sigma) ** 6

    direct, _ = quad(weakest_signal, mu - 15.0 * sigma, mu + 15.0 * sigma,
                     epsabs=1e-14, epsrel=1e-12, limit=400)
    assert 0.6 < a0 < 0.8
    assert a0 == pytest.approx(direct, rel=1e-8)


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
    assert ub.quad_error == 0.0  # the bound integrates nothing
    with pytest.raises(ValueError):
        pe_imd(code, c, link, mppm_route="nope")


def test_composition_mode_runs_and_brackets(monkeypatch):
    """The uncoupled composition cross-check stays a valid probability and
    reports the largest error estimate of its integrals."""
    code = make_code(12, 6)
    link, c = _link(12.0)
    real = analytic.qags

    for method in ("ja", "sa"):
        estimates = []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            estimates.append(out[1])
            return out

        monkeypatch.setattr(analytic, "qags", recording)
        res = pe_cmd_composition(code, c, link, method=method)
        assert 0.0 <= res.pe <= 1.0
        assert 0.0 <= res.pb <= 1.0
        assert len(estimates) == (3 if method == "ja" else 1)
        assert res.quad_error == max(estimates) != 1e-10


def test_ja_budget_guard():
    code = make_code(16, 8)
    c = build_constellation(10)
    base = LinkParams.from_normalized(16, 8, 0.5, 1.0)
    link = base.with_sigma2(sigma_from_ebn0(10.0, base, c))
    with pytest.raises(CapacityError):
        pe_cmd_ja(code, c, link)
    # The events route refuses 1024-QAM for its slot model's per-threshold
    # size, (M + 1) x rows x cols x 96 floats, whichever average is asked for.
    for route in (pe_cmd_ja, pe_cmd_sa):
        with pytest.raises(CapacityError, match="needs 100761600 floats per threshold"):
            route(code, c, link)


@pytest.mark.parametrize("route, kwargs", [
    (pe_cmd_ja, {}), (pe_cmd_sa, {}), (pe_imd, {"mppm_route": "ni"}),
    (pe_imd, {"mppm_route": "ub"}), (pe_cmd_composition, {"method": "ja"}),
    (pe_cmd_composition, {"method": "sa"}),
], ids=["cmd-ja", "cmd-sa", "imd-ni", "imd-ub", "composition-ja", "composition-sa"])
def test_routes_refuse_cross_shapes(route, kwargs):
    """Every route reads exact per-symbol QAM error probabilities, which need
    axis-aligned decision cells, so 32-QAM, a cross shape, is refused."""
    link, c = _link(12.0, n_q=5)
    with pytest.raises(ValueError, match="32-QAM is a cross shape"):
        route(make_code(12, 6), c, link, **kwargs)


def test_ja_events_route_has_no_combination_budget():
    """The events route enumerates no ring-count vector, so its joint
    average is its separate average."""
    link, c = _link(24.0)
    code = make_code(12, 6)
    assert pe_cmd_ja(code, c, link) == pe_cmd_sa(code, c, link)


def test_ja_composition_evaluates_1024_qam():
    """The joint-average composition sums its ring-count vectors in closed
    form, so (16, 8) 1024-QAM, whose eight signal slots take about 6.4e11
    vectors over the energy rings, evaluates."""
    code = make_code(16, 8)
    link, c = _link(10.0, n=16, w=8, n_q=10)
    rings = len(c.energy_rings()[1])
    assert math.comb(rings + 7, 8) > 6e11
    res = pe_cmd_composition(code, c, link, method="ja")
    for value in (res.pe, res.pb, res.pc_mppm):
        assert 0.0 <= value <= 1.0


_ALL_ROUTES = """
import sys
from qam_mppm.analytic import pe_cmd_composition, pe_cmd_ja, pe_cmd_sa, pe_imd
from qam_mppm.constellation import build_constellation
from qam_mppm.link import LinkParams
from qam_mppm.mppm import make_code

code, c = make_code(6, 2), build_constellation(2)
link = LinkParams.from_normalized(6, 2, 0.5, 1.0).with_sigma2(0.05)
for res in (pe_cmd_ja(code, c, link), pe_cmd_sa(code, c, link), pe_imd(code, c, link),
            pe_imd(code, c, link, mppm_route="ub"),
            pe_cmd_composition(code, c, link, method="ja"),
            pe_cmd_composition(code, c, link, method="sa")):
    assert 0.0 < res.pe < 1.0, res
loaded = sorted(m for m in sys.modules if m.startswith("scipy.integrate"))
assert not loaded, loaded
"""


def test_no_route_loads_scipy_integrate():
    """Every analytic route, the textbook compositions included, integrates
    with the package's own qags: a fresh process that runs them all has
    loaded no scipy.integrate module."""
    env = dict(os.environ, PYTHONPATH=str(Path(analytic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _ALL_ROUTES], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# float.hex of (pe, pb, pc_mppm, pe_qam, quad_error) from pe_cmd_sa and
# pe_imd(mppm_route="ni"), per (N, w, log2 M, Eb/N0 dB): 16-QAM over the
# range, 4-QAM and rectangular 8-QAM.
_PINNED = {
    (12, 6, 4, 0.0): (
        ("0x1.ffffa15340d92p-1", "0x1.c6e76ff974a2cp-2", "0x1.3fcc301511190p-7",
         "0x1.95fe235ea2633p-1", "0x1.51233fa1fb130p-27"),
        ("0x1.fff83282761e4p-1", "0x1.23dd87f32ebc8p-2", "0x1.82e9193c33b4ap-1",
         "0x1.95fe235ea2633p-1", "0x1.80513a626ef28p-34")),
    (12, 6, 4, 12.0): (
        ("0x1.c9d3a4387e34ep-1", "0x1.5f602045903f2p-3", "0x1.f17c041f01c41p-2",
         "0x1.d8c85126086b7p-3", "0x1.18d9b4f61c706p-29"),
        ("0x1.95fe46ff7f1dfp-1", "0x1.6e6a75ef1db88p-5", "0x1.0000000000000p+0",
         "0x1.d8c85126086b7p-3", "0x1.fadfb8c92ee20p-34")),
    (12, 6, 4, 24.0): (
        ("0x1.449a6bb16f795p-20", "0x1.08ab2154fec60p-22", "0x1.ffffe08357a38p-1",
         "0x1.83e1a4b800000p-25", "0x1.3f7a7dc8aef00p-34"),
        ("0x1.22e9391200000p-22", "0x1.1a1878000af07p-27", "0x1.0000000000000p+0",
         "0x1.83e1a4b800000p-25", "0x1.6b052206a5bccp-33")),
    (12, 6, 2, 12.0): (
        ("0x1.888dfe937cfcep-2", "0x1.b83ccabe9fd32p-4", "0x1.4ed0aebae3313p-1",
         "0x1.a9f33b6c89d80p-7", "0x1.94724c0be0000p-34"),
        ("0x1.354252c9f2d60p-4", "0x1.e86479f4970aep-9", "0x1.ffffffffab592p-1",
         "0x1.a9f33b6c89d80p-7", "0x1.ad5afe15a6654p-36")),
    (9, 5, 3, 12.0): (
        ("0x1.83978df0c6c5ap-1", "0x1.54711d9f576dbp-3", "0x1.ede78cab29c97p-2",
         "0x1.1f872e667d080p-3", "0x1.801df109a06a8p-30"),
        ("0x1.0fb180f36edb8p-1", "0x1.1bbec1ee31733p-5", "0x1.ffffffffffb26p-1",
         "0x1.1f872e667d080p-3", "0x1.5524d1d7ad200p-43")),
}


def test_events_model_values_are_pinned():
    """The events model's CMD and IMD results, every field bit for bit."""
    got = {}
    for n, w, n_q, db in _PINNED:
        link, c = _link(db, n=n, w=w, n_q=n_q)
        code = make_code(n, w)
        got[n, w, n_q, db] = tuple(
            tuple(float(v).hex() for v in dataclasses.astuple(res))
            for res in (pe_cmd_sa(code, c, link), pe_imd(code, c, link, mppm_route="ni"))
        )
    assert got == _PINNED


def test_ebn0_at_target_interpolation():
    x = np.array([10.0, 11.0, 12.0])
    y = np.array([1e-2, 1e-3, 1e-4])
    assert ebn0_at_target(x, y, 1e-3) == pytest.approx(11.0, abs=1e-9)
    assert ebn0_at_target(x, y, 10 ** -2.5) == pytest.approx(10.5, abs=1e-9)
    with pytest.raises(ValueError):
        ebn0_at_target(x, y, 1e-6)


def _values_coupled_per_source(model, ys):
    """Reference slot model: per threshold, the disk-clipped masses of every
    source symbol evaluated from its own means, and the circle's arcs found
    per use.  Returns _values_coupled's tuple for the thresholds ys."""
    return tuple(np.array(v) for v in zip(*(_per_source_one(model, y) for y in ys)))


def _per_source_one(model, y):
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
    radius = np.array([r])
    arcs = model._circle_arcs(radius)
    q_u = model._circle_demap(arcs)[0] if r > 0.0 else np.full(m, 1.0 / m)
    bp_det = np.stack([
        bp @ norm(q_u),
        bp @ norm(noise_lo),
        bp @ norm(j.sum(axis=0)),
        bp @ norm((model._p_rect - j).sum(axis=0)),
        bp @ norm(noise_hi),
    ])
    f_at = model._circle_density(radius, model._circle_arcs(radius))[0]
    f_tot = f_at.sum()
    if f_tot > 0.0:
        rate_at = float(np.sum(model._ham * f_at)) / f_tot
        bp_at_tx = bp @ norm(f_at.sum(axis=1))
        bp_at_det = bp @ norm(f_at.sum(axis=0))
    else:
        rate_at = model.nb_bar
        bp_at_tx = bp_tx[0]
        bp_at_det = bp_det[2]
    return s_bar, g_bar, t_bar, bp_tx, bp_det, bp_at_tx, bp_at_det, rate_at


def _first_panel(lo, hi):
    """The 21 nodes quad visits on [lo, hi] when its first Gauss-Kronrod
    panel already meets the tolerance (a zero integrand), centre first."""
    nodes = []
    quad(lambda y: nodes.append(y) or 0.0, lo, hi)
    return np.array(nodes)


def _rows(panel):
    """Every quantity of a _SlotModel panel per threshold, as Python floats."""
    fields = [v for name, v in panel._asdict().items() if name != "gram"]
    fields += list(panel.gram or ())
    return [tuple(np.asarray(v)[i].tolist() for v in fields) for i in range(len(panel.s))]


@pytest.mark.parametrize("n_q", [2, 3, 4, 6, 8])
def test_slot_model_per_level_matches_per_source(n_q):
    """Masses computed once per constellation level, for a vector of
    thresholds, give bit for bit the values of the per-source evaluation on
    a whole quadrature panel and on single thresholds; and a threshold's
    values are the same computed alone as inside its panel."""
    link, c = _link(8.0, n_q=n_q)
    model = _SlotModel(c, link, "cmd")
    ref = _SlotModel(c, link, "cmd")
    lengths = []

    def per_source(ys):
        lengths.append(len(ys))
        return _values_coupled_per_source(ref, ys)

    ref._values_coupled = per_source
    panel = _first_panel(model.lo, model.hi)
    singles = [np.array([y]) for y in (0.0, 1e-4 * model.hi, 0.3 * model.hi, 1.5 * model.hi)]
    classes = np.arange(1.0, 9.0).reshape(2, 4)
    for ys in [panel] + singles:
        got, want = model.panel(ys), ref.panel(ys)
        for name in ("s", "g", "t", "rate_v", "rate_p", "at_rate"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(model.mis_bits(got, classes, 0.5), ref.mis_bits(want, classes, 0.5))
        assert np.array_equal(model.mis_bits(got, classes, 0.0, 0.25),
                              ref.mis_bits(want, classes, 0.0, 0.25))
        assert model.panel(ys) is got
    # The panel and each single were made once, and the patched reference
    # made every one of the reference's thresholds.
    assert len(model._panels) == len(ref._panels) == 1 + len(singles)
    assert sum(lengths) == len(panel) + len(singles)
    alone = _SlotModel(c, link, "cmd")
    whole = _rows(model.panel(panel))
    for i in range(1, len(panel), 4):
        assert _rows(alone.panel(panel[i:i + 1])) == [whole[i]]
    assert len(alone._panels) == len(panel[1::4])


@pytest.mark.parametrize("n_q", [2, 3, 4, 6, 8, 10])
def test_disk_mirror_preconditions_are_exact(n_q):
    """_disk_masses computes the row masses of the left half of the
    columns and mirrors them into the right half.  That is bit for bit
    because every grid has an even number of columns, its column bounds are
    exact negations of each other and the chord rule's nodes too (its
    weights symmetric): each must hold with ==, on every supported numpy."""
    link, c = _link(12.0, n_q=n_q)
    amp = math.sqrt(link.t_s / 2.0) * link.i_ph * link.m
    bounds = c.grid_cells(amp).i_bounds
    assert (len(bounds) + 1) % 2 == 0
    assert np.array_equal(bounds, -bounds[::-1])
    nodes, wts = analytic._GL_NODES
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(wts, wts[::-1])


def _call_lengths(model):
    """Record the number of thresholds of each _values_coupled call of model."""
    lengths = []
    values = model._values_coupled

    def counted(ys):
        lengths.append(len(ys))
        return values(ys)

    model._values_coupled = counted
    return lengths


@pytest.mark.parametrize("n_q", [3, 4, 6])
def test_chunked_panel_matches_unchunked(monkeypatch, n_q):
    """A quadrature panel split across several _values_coupled calls gives
    every value of the model with its default thresholds per call, bit for
    bit; a 16-QAM panel is one call."""
    link, c = _link(8.0, n_q=n_q)
    whole = _SlotModel(c, link, "cmd")
    # A budget of five thresholds per call.
    monkeypatch.setattr(analytic, "_CHUNK_ELEMENTS", analytic._CHUNK_ELEMENTS * 5 // whole._chunk)
    split = _SlotModel(c, link, "cmd")
    whole_calls, split_calls = _call_lengths(whole), _call_lengths(split)
    panel = _first_panel(whole.lo, whole.hi)
    assert _rows(split.panel(panel)) == _rows(whole.panel(panel))
    assert split_calls == [5, 5, 5, 5, 1]
    assert sum(whole_calls) == 21
    if n_q == 4:
        assert whole_calls == [21]


@pytest.mark.parametrize("n_q, cap_mib", [(4, 4), (8, 16)])
def test_slot_model_panel_memory_is_bounded(n_q, cap_mib):
    """The coupled slot model's temporaries stay bounded: one 21-node panel
    peaks within 4 MiB for 16-QAM and 16 MiB for 256-QAM."""
    link, c = _link(12.0, n_q=n_q)
    model = _SlotModel(c, link, "cmd")
    panel = _first_panel(model.lo, model.hi)
    model.panel(0.5 * panel)  # warm caches
    tracemalloc.start()
    try:
        model.panel(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap_mib * 2**20


def _mis_bits_stacked(model, y, classes, circle_frac, at_frac=0.0):
    """Reference mis_bits: the (2, 4) expected cross-Hamming matrix of the
    stacked word and demap distributions."""
    total = float(np.sum(classes))
    if total == 0.0:
        return 0.0
    _, _, _, bp_tx, bp_det, bp_at_tx, bp_at_det, _ = (
        v[0] for v in model._values_coupled(np.array([y])))
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
                got = model.mis_bits(model.panel(np.array([y])), classes, circle_frac,
                                     at_frac)[0]
                want = _mis_bits_stacked(model, y, classes, circle_frac, at_frac)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_distributions_run_once_per_threshold(monkeypatch):
    """A CMD and an IMD evaluation call each distribution function once per
    quadrature panel, with all 21 of its nodes, and never evaluate one
    threshold twice: one node per threshold, and per energy ring for the
    CMD signal slot."""
    calls, nodes = Counter(), Counter()
    proxy = types.SimpleNamespace()
    for name, fn in vars(distributions).items():
        if inspect.isfunction(fn) and fn.__module__ == distributions.__name__:
            def counted(x, *args, _fn=fn, _name=name):
                calls[_name] += 1
                for v in np.atleast_1d(x).tolist():
                    nodes[(_name, v, *args)] += 1
                return _fn(x, *args)

            fn = counted
        setattr(proxy, name, fn)
    monkeypatch.setattr(analytic, "dist", proxy)
    link, c = _link(12.0)
    code = make_code(12, 6)
    for detector, evaluate in (("cmd", pe_cmd_sa), ("imd", pe_imd)):
        calls.clear()
        nodes.clear()
        evaluate(code, c, link)
        names = Counter(key[0] for key in nodes)
        assert {f"f_nsl_{detector}", f"F_nsl_{detector}", f"f_sl_{detector}"} <= set(names)
        if detector == "cmd":
            assert names["f_sl_cmd"] == 3 * names["f_nsl_cmd"]  # three energy rings
        repeated = [key for key, n in nodes.items() if n > 1]
        assert repeated == []
        # Every call carries a whole panel of qags.
        assert {name: 21 * n for name, n in calls.items()} == dict(names)


def _disk_model(n_q, db):
    """A (12, 6) CMD slot model with its sources' means, the noise slot's
    last, and the largest I level."""
    link, c = _link(db, n_q=n_q)
    model = _SlotModel(c, link, "cmd")
    means = np.stack([np.append(model._m_i, 0.0), np.append(model._m_q, 0.0)], axis=1)
    return model, means, float(np.max(np.abs(model._lv_i)))


def _cell_bounds(model):
    """(row, col, (col_lo, col_hi), (row_lo, row_hi)) of every decision cell."""
    return [(a, b, (model._col_lo[b], model._col_hi[b]), (model._row_lo[a], model._row_hi[a]))
            for a in range(len(model._row_lo)) for b in range(len(model._col_lo))]


def _chord_rule_xfail(n_q, db, off):
    return pytest.param(n_q, db, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"the 96-node chord rule is off by up to {off} (ROADMAP item 2)"))


@pytest.mark.parametrize("n_q, db", [
    _chord_rule_xfail(2, 0.0, "3.3e-08"), _chord_rule_xfail(2, 12.0, "1.7e-08"),
    _chord_rule_xfail(2, 24.0, "2.8e-09"), _chord_rule_xfail(4, 0.0, "2.5e-06"),
    _chord_rule_xfail(4, 12.0, "5.5e-07"), _chord_rule_xfail(4, 24.0, "2.6e-12"),
    _chord_rule_xfail(6, 0.0, "3.1e-06"), _chord_rule_xfail(6, 12.0, "8.0e-07"),
    _chord_rule_xfail(6, 24.0, "1.1e-09"),
])
def test_disk_masses_match_quad(n_q, db):
    """Record-level guard: every decision cell's mass inside the metric disk
    (_disk_masses) agrees to 1e-12 absolute with an adaptive quad that
    breaks at the chord's kinks (oracles.disk_cell_mass), for a corner
    symbol, the symbol nearest the origin and the noise slot, at radii from
    0.3 to 2.5 times the outermost I level."""
    model, means, edge = _disk_model(n_q, db)
    radii = np.array([0.3, 0.7, 1.0, 1.6, 2.5]) * edge
    disk = model._disk_masses(radii)
    sources = [0, int(np.argmin(np.sum(means[:-1] ** 2, axis=1))), len(means) - 1]
    worst = max(abs(disk[k, s, a, b] - disk_cell_mass(means[s], model.sigma, r, col, row))
                for k, r in enumerate(radii) for s in sources
                for a, b, col, row in _cell_bounds(model))
    assert worst <= 1e-12


@pytest.mark.parametrize("n_q, db", [(2, 0.0), (4, 12.0), (6, 24.0)])
def test_disk_cell_mass_at_a_radius_past_every_cell_is_the_rectangle_mass(n_q, db):
    """The oracle of the record-level guard: at a radius past every finite
    cell bound and 40 standard deviations past every mean, a cell's mass
    inside the disk is its closed-form rectangle mass (_p_rect per source
    symbol, _rect0 for the noise slot) to 1e-12 absolute."""
    model, means, edge = _disk_model(n_q, db)
    radius = 2.0 * (edge + 40.0 * model.sigma)
    rect = np.vstack([model._p_rect, model._rect0])
    cell_of = {(a, b): d for d, (a, b) in enumerate(zip(model.c.row_idx, model.c.col_idx))}
    for s, mean in enumerate(means):
        for a, b, col, row in _cell_bounds(model):
            want = rect[s, cell_of[a, b]]
            assert abs(disk_cell_mass(mean, model.sigma, radius, col, row) - want) <= 1e-12


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="bits_at integrals at -30 dBm end with residual 1.21e-07 (ROADMAP item 2)")
def test_popt_12_6_16qam_first_point_evaluates():
    """The first point of the bundled popt_12_6_16qam config, -30 dBm,
    evaluates at the sweep's default tolerance.  Today its per-event bit
    integrals do not converge; the piecewise chord rule is to mend it."""
    cfg = Path(__file__).resolve().parents[1] / "scripts" / "popt_12_6_16qam.cfg"
    spec = sweep.build_spec(sweep.parse_config(cfg))
    assert spec.grid()[0] == -30.0
    pe_cmd_ja(make_code(12, 6), build_constellation(4), sweep.links_for(spec)[0], spec.tol)


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="64-QAM event integrals end with residual 2.2e-07 and 2.5e-07 (ROADMAP item 2)")
@pytest.mark.parametrize("n, w, db", [(12, 6, 10.0), (8, 3, 0.0)])
def test_64qam_cmd_point_evaluates(n, w, db):
    """pe_cmd_sa evaluates (12, 6) 64-QAM at 10 dB and (8, 3) 64-QAM at
    0 dB at the default tolerance.  Today the 96-node chord rule of the
    slot model leaves their integrals short of it; the piecewise chord
    rule is to mend them."""
    link, c = _link(db, n=n, w=w, n_q=6)
    pe_cmd_sa(make_code(n, w), c, link)
