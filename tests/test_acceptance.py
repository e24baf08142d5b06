"""Acceptance criteria for the hybrid QAM-MPPM package.

Each test below maps to one numbered acceptance criterion; shared
analytic curves and Monte-Carlo runs are computed once per module.
The reference configuration is N=12, w=6, 16-QAM, m=0.5.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare, ncx2, norm

from qam_mppm import simulate
from qam_mppm.analytic import (
    pe_cmd_composition,
    pe_cmd_ja,
    pe_imd,
    qam_scale,
)
from qam_mppm.constellation import build_constellation, qam_ser_exact
from qam_mppm.distributions import (
    F_nsl_cmd,
    F_nsl_imd,
    F_sl_cmd,
    F_sl_imd,
    marcum_q1,
)
from qam_mppm.link import (
    DEFAULT_RECEIVER,
    LinkParams,
    link_from_popt,
    sigma_from_ebn0,
    total_bits,
)
from qam_mppm.mppm import bits_per_mppm, k_l, make_code
from qam_mppm.simulate import max_workers, run_point
from qam_mppm.sweep import build_spec, run

from oracles import ebn0_at_target, rank_support, unrank

SEED = 20260823
MAIN_GRID = np.arange(0.0, 19.0, 1.0)
EXT_GRID = np.arange(19.0, 25.0, 1.0)  # reaches the SER = 1e-3 crossings
BUDGET = 250_000  # per grid point: 19 x 250k ~ 5e6 frames total


def _within_3se(p_model, p_hat, stderr, frames):
    """3-sigma agreement with a score-test floor on the standard error.

    At saturated points the empirical rate is exactly 0 or 1 and its plug-in
    standard error degenerates to zero; the error under the model value keeps
    the comparison meaningful there.
    """
    floor = math.sqrt(max(p_model * (1.0 - p_model), 0.0) / frames)
    return abs(p_model - p_hat) <= 3.0 * max(stderr, floor)


def _main_link(db):
    c = build_constellation(4)
    base = LinkParams.from_normalized(12, 6, 0.5, 1.0)
    return base.with_sigma2(sigma_from_ebn0(db, base, c))


@pytest.fixture(scope="module")
def system():
    return make_code(12, 6), build_constellation(4)


@pytest.fixture(scope="module")
def analytic_curves(system):
    """CMD/JA and IMD/NI curves over the main and extended grids."""
    code, c = system
    out = {"ja_pe": [], "ja_pb": [], "ni_pe": [], "ni_pb": [], "peq": []}
    for db in np.concatenate([MAIN_GRID, EXT_GRID]):
        link = _main_link(db)
        ja = pe_cmd_ja(code, c, link)
        ni = pe_imd(code, c, link)
        out["ja_pe"].append(ja.pe)
        out["ja_pb"].append(ja.pb)
        out["ni_pe"].append(ni.pe)
        out["ni_pb"].append(ni.pb)
        out["peq"].append(float(np.mean(np.minimum(qam_ser_exact(qam_scale(link), c), 1.0))))
    return {k: np.array(v) for k, v in out.items()}


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers()) as pool:
        yield pool


def _run_point(pool, *args, min_frames=simulate.MIN_FRAMES):
    """run_point on the module's pool, with at least min_frames frames."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "MIN_FRAMES", min_frames)
        return run_point(*args, workers=max_workers(), pool=pool)


@pytest.fixture(scope="module")
def sim_points(system, pool):
    """Monte-Carlo counters for both detectors over the main grid."""
    code, c = system
    points = []
    for idx, db in enumerate(MAIN_GRID):
        link = _main_link(db)
        points.append(_run_point(pool, code, c, link, ("cmd", "imd"), BUDGET, SEED, idx,
                                 min_frames=BUDGET))
    return points


@pytest.mark.slow
def test_criterion_01_cmd_ser_agreement(analytic_curves, sim_points):
    """CMD/JA matches simulated SER within 3 standard errors on the grid."""
    checked = 0
    for i, counters in enumerate(sim_points):
        t = counters["cmd"]
        if t.ser() < 1e-4:
            continue
        assert _within_3se(analytic_curves["ja_pe"][i], t.ser(), t.ser_stderr(),
                           t.frames), f"CMD SER mismatch at {MAIN_GRID[i]} dB"
        checked += 1
    assert checked >= 15


@pytest.mark.slow
def test_criterion_02_imd_ser_agreement(analytic_curves, sim_points):
    """IMD/NI matches simulated SER within 3 standard errors on the grid."""
    checked = 0
    for i, counters in enumerate(sim_points):
        t = counters["imd"]
        if t.ser() < 1e-4:
            continue
        assert _within_3se(analytic_curves["ni_pe"][i], t.ser(), t.ser_stderr(),
                           t.frames), f"IMD SER mismatch at {MAIN_GRID[i]} dB"
        checked += 1
    assert checked >= 15


@pytest.mark.slow
def test_criterion_03_imd_gain_at_ser_1e3(analytic_curves):
    """IMD reaches SER = 1e-3 about 0.7 dB before CMD (log-linear interp)."""
    grid = np.concatenate([MAIN_GRID, EXT_GRID])
    x_cmd = ebn0_at_target(grid, analytic_curves["ja_pe"], 1e-3)
    x_imd = ebn0_at_target(grid, analytic_curves["ni_pe"], 1e-3)
    gain = x_cmd - x_imd
    assert 0.5 <= gain <= 0.9, f"gain {gain:.3f} dB outside 0.7 +/- 0.2"


@pytest.mark.slow
def test_criterion_04_ja_sa_negligible_difference(system):
    """Joint- and separate-average CMD results differ by less than 1%.

    The events model gives both averages from one evaluation, so the check
    runs on the textbook compositions, where averaging the sorting
    probability jointly with the QAM symbols or separately differs.
    """
    code, c = system
    worst, checked = 0.0, 0
    for db in np.concatenate([MAIN_GRID, EXT_GRID]):
        link = _main_link(db)
        ja = pe_cmd_composition(code, c, link, method="ja").pe
        if ja >= 0.5:
            continue
        sa = pe_cmd_composition(code, c, link, method="sa").pe
        worst = max(worst, abs(ja - sa) / ja)
        checked += 1
    assert checked >= 9
    assert worst < 0.01


@pytest.mark.slow
def test_criterion_05_imd_qam_dominance(system, analytic_curves):
    """Above 10 dB the IMD SER is governed by the QAM error probability."""
    code, c = system
    grid = np.concatenate([MAIN_GRID, EXT_GRID])
    w = code.weight
    for db, pe, peq in zip(grid, analytic_curves["ni_pe"], analytic_curves["peq"]):
        if db <= 10.0 or pe <= 0.0:
            continue
        dominant = 1.0 - (1.0 - peq) ** w
        assert abs(pe - dominant) / pe < 0.02, f"dominance broken at {db} dB"


@pytest.mark.slow
def test_criterion_06_ber_agreement(analytic_curves, sim_points):
    """Analytic BER overlays the simulated BER within 3 sigma (BER >= 1e-4)."""
    q_total = total_bits(12, 6, 4)
    for det, key in (("cmd", "ja_pb"), ("imd", "ni_pb")):
        checked = 0
        for i, counters in enumerate(sim_points):
            t = counters[det]
            ber = t.ber(q_total)
            if ber < 1e-4:
                continue
            se = t.ber_stderr(q_total)
            assert abs(analytic_curves[key][i] - ber) <= 3.0 * se, (
                f"{det} BER mismatch at {MAIN_GRID[i]} dB"
            )
            checked += 1
        assert checked >= 15


FIG6_CONFIGS = [
    # (N, w, n_q, m); listed from best to worst performance
    (32, 2, 2, 0.9),
    (32, 6, 4, 0.5),
    (12, 6, 4, 0.5),
]
FIG6_RB = 50e6
# one simulated point per configuration, inside its BER in [1e-4, 1e-1] window
FIG6_SIM_DBM = {(32, 2): -33.0, (32, 6): -25.0, (12, 6): -23.0}


def _fig6_link(n, w, n_q, m, dbm):
    p_opt = 1e-3 * 10.0 ** (dbm / 10.0)
    q_total = total_bits(n, w, n_q)
    return link_from_popt(p_opt, DEFAULT_RECEIVER, n, w, FIG6_RB, q_total, m)


@pytest.mark.slow
def test_criterion_07_link_budget_ordering(system, pool):
    """The three link-budget configurations keep the stated BER ordering and
    the analytic curves match simulation within 3 sigma where BER >= 1e-4."""
    for dbm in (-33.0, -29.0, -25.0):
        bers = []
        for n, w, n_q, m in FIG6_CONFIGS:
            code = make_code(n, w)
            c = build_constellation(n_q)
            bers.append(pe_cmd_ja(code, c, _fig6_link(n, w, n_q, m, dbm)).pb)
        assert bers[0] < bers[1] < bers[2], f"ordering broken at {dbm} dBm"
    for cfg_idx, (n, w, n_q, m) in enumerate(FIG6_CONFIGS):
        code = make_code(n, w)
        c = build_constellation(n_q)
        link = _fig6_link(n, w, n_q, m, FIG6_SIM_DBM[(n, w)])
        pb = pe_cmd_ja(code, c, link).pb
        q_total = total_bits(n, w, n_q)
        t = _run_point(pool, code, c, link, ("cmd",), 600_000, SEED, 100 + cfg_idx)["cmd"]
        ber = t.ber(q_total)
        assert ber >= 1e-4
        assert abs(pb - ber) <= 3.0 * t.ber_stderr(q_total), (
            f"link-budget BER mismatch for N={n}, w={w}"
        )


GOF_SIGMA2 = 0.35
GOF_OMEGA = 1.4
GOF_MU = 1.0
GOF_SAMPLES = 1_000_000


def _gof(samples, cdf, edges):
    counts, _ = np.histogram(samples, bins=edges)
    probs = np.diff(cdf(edges))
    keep = probs * len(samples) >= 8  # merge ultra-thin tails out of the test
    counts = counts[keep]
    probs = probs[keep]
    expected = probs / probs.sum() * counts.sum()
    stat, p = chisquare(counts, expected)
    return p


def test_criterion_08_distribution_suite():
    """pdf/cdf consistency plus chi-square goodness of fit at 1e6 samples."""
    from scipy.integrate import quad

    s2, om, mu = GOF_SIGMA2, GOF_OMEGA, GOF_MU
    # normalization within 1e-8
    from qam_mppm.distributions import f_nsl_cmd, f_sl_cmd, f_sl_imd

    for fn, lo, hi in [
        (lambda x: f_sl_cmd(x, om, s2), 0.0, np.inf),
        (lambda x: f_nsl_cmd(x, s2), 0.0, np.inf),
        (lambda x: f_sl_imd(x, mu, s2), -np.inf, np.inf),
        (lambda x: f_sl_imd(x, 0.0, s2), -np.inf, np.inf),
    ]:
        val, _ = quad(fn, lo, hi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)
    # cdf consistent with pdf by central finite differences (1e-6 relative)
    xs = np.linspace(0.1, om + 10 * s2, 40)
    h = 1e-6 * (1 + xs)
    num = (F_sl_cmd(xs + h, om, s2) - F_sl_cmd(xs - h, om, s2)) / (2 * h)
    den = f_sl_cmd(xs, om, s2)
    assert np.allclose(num, den, rtol=1e-6)
    num = (F_nsl_cmd(xs + h, s2) - F_nsl_cmd(xs - h, s2)) / (2 * h)
    assert np.allclose(num, f_nsl_cmd(xs, s2), rtol=1e-6)
    xg = np.linspace(mu - 4 * math.sqrt(s2), mu + 4 * math.sqrt(s2), 40)
    hg = np.full_like(xg, 1e-5)
    num = (F_sl_imd(xg + hg, mu, s2) - F_sl_imd(xg - hg, mu, s2)) / (2 * hg)
    assert np.allclose(num, f_sl_imd(xg, mu, s2), rtol=1e-6)
    # Marcum identities
    for a in (0.0, 1.0, 7.0):
        assert marcum_q1(a, 0.0) == pytest.approx(1.0, abs=1e-12)
    for b in (0.5, 2.0):
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2), abs=1e-12)

    # empirical histograms pass the goodness-of-fit test (p > 0.01)
    rng = np.random.Generator(np.random.Philox(SEED))
    sig = math.sqrt(s2)
    n1 = rng.normal(0.0, sig, GOF_SAMPLES)
    n2 = rng.normal(0.0, sig, GOF_SAMPLES)
    a = math.sqrt(om)
    cases = [
        ((a + n1) ** 2 + n2**2, lambda x: F_sl_cmd(x, om, s2),
         s2 * ncx2.ppf(np.linspace(0.002, 0.998, 41), 2, om / s2)),
        (n1**2 + n2**2, lambda x: F_nsl_cmd(x, s2),
         -2 * s2 * np.log1p(-np.linspace(0.002, 0.998, 41))),
        (mu + n1, lambda x: F_sl_imd(x, mu, s2),
         mu + sig * norm.ppf(np.linspace(0.002, 0.998, 41))),
        (n2, lambda x: F_nsl_imd(x, s2),
         sig * norm.ppf(np.linspace(0.002, 0.998, 41))),
    ]
    for samples, cdf, edges in cases:
        assert _gof(samples, cdf, np.asarray(edges)) > 0.01


def test_criterion_09_two_slot_closed_form(pool):
    """Simulated N=2, w=1 IMD pattern SER matches 0.5*erfc(mu/(2*sigma))."""
    code = make_code(2, 1)
    c = build_constellation(2)
    link = LinkParams.from_normalized(2, 1, 0.9, 0.09)
    mu = math.sqrt(link.t_s) * link.i_ph
    p = 0.5 * math.erfc(mu / (2.0 * math.sqrt(link.sigma2)))
    t = _run_point(pool, code, c, link, ("imd",), 1_000_000, SEED, 50,
                   min_frames=1_000_000)["imd"]
    assert t.frames == 1_000_000
    se = math.sqrt(p * (1 - p) / t.frames)
    assert abs(t.mppm_ser() - p) <= 3.0 * se


def test_criterion_10_combinatorics_suite():
    """Rank/unrank bijections, exact K_l sums and exact q_MPPM values."""
    for n, w in [(12, 6), (32, 2), (18, 9), (16, 4)]:
        assert math.comb(n, w) <= 100_000
        code = make_code(n, w)
        for r in range(math.comb(n, w)):
            assert rank_support(unrank(r, code), code) == r
    for n in range(2, 65):
        for w in range(1, n):
            total = sum(k_l(n, w, l) for l in range(1, min(w, n - w) + 1))
            assert total == Fraction(1)
    assert bits_per_mppm(12, 6) == 9
    assert bits_per_mppm(4, 2) == 2
    assert bits_per_mppm(32, 2) == 8


def test_criterion_11_worker_count_determinism(tmp_path):
    """Identical (seed, budget) sweeps are byte-identical for 1 and 8 workers."""
    outputs = []
    for workers in (1, 8):
        vals = {
            "mode": "ebn0",
            "grid.start": "8",
            "grid.stop": "10",
            "grid.step": "2",
            "sys.N": "12",
            "sys.w": "6",
            "sys.nQ": "4",
            "sys.m": "0.5",
            "detectors": "imd",
            "methods": "ni",
            "sim.trials": "120000",
            "sim.seed": str(SEED),
            "sim.workers": str(workers),
            "out.csv": str(tmp_path / f"out_w{workers}.csv"),
        }
        out = run(build_spec(vals))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.slow
def test_criterion_12_cmd_qam_bias(analytic_curves, sim_points):
    """Conditional QAM-SER sits below the analytic value under CMD (the shared
    metric biases surviving slots toward clean decisions) and matches it
    under IMD."""
    significant = 0
    for i, db in enumerate(MAIN_GRID):
        if not (8.0 <= db <= 12.0):
            continue
        peq = analytic_curves["peq"][i]
        for det in ("cmd", "imd"):
            t = sim_points[i][det]
            cond = t.qam_cond_ser()
            se = math.sqrt(max(cond * (1 - cond), 1e-12) / t.qam_cond_opportunities)
            if det == "cmd":
                assert cond < peq + 3.0 * se  # never above
                if peq - cond > 3.0 * se:
                    significant += 1
            else:
                assert abs(cond - peq) <= 4.0 * se
    assert significant >= 3  # the bias is statistically visible mid-SNR
