"""qags against scipy's quad: value, error estimate, flag and nodes, bit for bit."""

import math

import numpy as np
import pytest
from scipy.integrate import _quadpack

from qam_mppm import analytic
from qam_mppm.analytic import pe_cmd_sa, pe_imd
from qam_mppm.constellation import build_constellation
from qam_mppm.link import LinkParams, sigma_from_ebn0
from qam_mppm.mppm import make_code
from qam_mppm.quadrature import qags


def _quad(f, a, b, epsabs, epsrel, limit):
    """scipy's quad with full output, through the QUADPACK binding it calls
    for a finite range: (value, error, ier, nodes in the order visited)."""
    nodes = []

    def scalar(y):
        nodes.append(y)
        return f(y)

    val, err, info, ier = _quadpack._qagse(scalar, a, b, (), 1, epsabs, epsrel, limit)
    assert info["neval"] == len(nodes)
    return val, err, ier, nodes


def _compare(fv, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """qags on the vector integrand fv against quad on its scalar form:
    the same value, error and ier, and the same nodes, one panel per call.
    Returns qags's (value, error, ier)."""
    panels = []

    def panel(ys):
        panels.append(ys)
        return fv(ys)

    got = qags(panel, a, b, epsabs, epsrel, limit)
    val, err, ier, nodes = _quad(lambda y: float(fv(np.array([y]))[0]), a, b,
                                 epsabs, epsrel, limit)
    assert (got[0].hex(), got[1].hex(), got[2]) == (val.hex(), err.hex(), ier)
    assert all(len(ys) == 21 for ys in panels)
    assert sorted(np.concatenate(panels).tolist()) == sorted(nodes)
    return got


def _positive(x):
    """x with the endpoint 0 (never a Gauss-Kronrod node) replaced by 1."""
    return np.where(x > 0.0, x, 1.0)


_TOLERANCES = [(1.49e-8, 1.49e-8, 50), (1e-10, 1e-9, 400)]


@pytest.mark.parametrize("epsabs, epsrel, limit", _TOLERANCES)
def test_first_panel_accepted(epsabs, epsrel, limit):
    """A smooth integrand is accepted on the first panel: one call with
    quad's 21 nodes, the centre first."""
    panels = []

    def f(x):
        panels.append(x)
        return np.exp(x)

    val, _, ier = _compare(f, 0.0, 1.0, epsabs, epsrel, limit)
    panels.clear()
    qags(f, 0.0, 1.0, epsabs, epsrel, limit)
    assert (ier, len(panels), panels[0][0]) == (0, 1, 0.5)
    assert val == pytest.approx(math.e - 1.0, rel=1e-15)
    # A reversed range integrates to the negated value.
    val, _, _ = _compare(np.exp, 2.0, -1.0, epsabs, epsrel, limit)
    assert val == pytest.approx(math.exp(-1.0) - math.exp(2.0), rel=1e-14)


@pytest.mark.parametrize("epsabs, epsrel, limit", _TOLERANCES)
@pytest.mark.parametrize("name, f, exact", [
    ("log", lambda x: np.log(_positive(x)), -1.0),
    ("x^-0.9", lambda x: _positive(x) ** -0.9, 10.0),
    ("1/sqrt", lambda x: 1.0 / np.sqrt(_positive(x)), 2.0),
    ("sqrt log", lambda x: np.sqrt(x) * np.log(_positive(x)), -4.0 / 9.0),
])
def test_endpoint_singularities_extrapolate(name, f, exact, epsabs, epsrel, limit):
    """Endpoint singularities converge through the epsilon algorithm."""
    val, err, ier = _compare(f, 0.0, 1.0, epsabs, epsrel, limit)
    assert ier == 0
    assert val == pytest.approx(exact, rel=1e-12)
    assert err < 1e-8


@pytest.mark.parametrize("name, f, a, b", [
    ("narrow peak", lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0),
    ("kink", lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0),
    ("step", lambda x: (x > 0.37).astype(float), 0.0, 1.0),
    ("oscillation", lambda x: np.sin(50.0 * x) * np.exp(-x), 0.0, 10.0),
])
@pytest.mark.parametrize("epsabs, epsrel, limit", _TOLERANCES + [(0.0, 1e-13, 50)])
def test_interior_difficulties_bisect(name, f, a, b, epsabs, epsrel, limit):
    """Interior peaks, kinks, jumps and oscillations bisect alike."""
    _compare(f, a, b, epsabs, epsrel, limit)


@pytest.mark.parametrize("limit", [1, 2, 5, 50])
def test_subinterval_limit(limit):
    """A non-integrable 1/x and a wild sin(1/x) stop at limit with ier 1."""
    for f in (lambda x: 1.0 / _positive(x), lambda x: np.sin(1.0 / _positive(x))):
        _, _, ier = _compare(f, 0.0, 1.0, 1e-10, 1e-9, limit)
        assert ier == 1


def test_roundoff_flags():
    """Tolerances below roundoff set ier 2 (the bisection) and ier 4 (the
    extrapolation table)."""
    peak = _compare(lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0, 1e-14, 1e-14, 200)
    assert peak[2] == 2
    for power in (-0.9, -0.99):
        singular = _compare(lambda x: _positive(x) ** power, 0.0, 1.0, 1e-14, 1e-14, 200)
        assert singular[2] == 4


def test_integrand_below_epsabs():
    """An integral below epsabs is accepted on its first panel, and a zero
    integrand has a zero error estimate."""
    val, err, ier = _compare(lambda x: 1e-14 * np.sin(x), 0.0, 3.0, 1e-10, 1e-9, 400)
    assert (ier, val) == (0, pytest.approx(1e-14 * (1.0 - math.cos(3.0)), rel=1e-12))
    assert _compare(lambda x: 0.0 * x, 0.0, 1.0) == (0.0, 0.0, 0)


def test_invalid_arguments():
    with pytest.raises(ValueError, match="limit"):
        qags(np.exp, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError, match="epsrel"):
        qags(np.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)


@pytest.mark.parametrize("db", [0.0, 24.0])
@pytest.mark.parametrize("route", [pe_cmd_sa, pe_imd])
def test_event_integrands_match_quad(monkeypatch, route, db):
    """Every event integral of (12, 6) 16-QAM, each integrand evaluated by
    quad one threshold at a time and by qags one panel at a time."""
    code, c = make_code(12, 6), build_constellation(4)
    base = LinkParams.from_normalized(12, 6, 0.5, 1.0)
    link = base.with_sigma2(sigma_from_ebn0(db, base, c))
    flags = []

    def checked(f, a, b, epsabs, epsrel, limit):
        got = _compare(f, a, b, epsabs, epsrel, limit)
        flags.append(got[2])
        return got

    monkeypatch.setattr(analytic, "qags", checked)
    route(code, c, link)
    assert len(flags) >= 7
