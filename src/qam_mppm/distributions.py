"""Slot-metric distributions for both detectors and their special functions.

The power-metric detector sees a scaled chi-square metric with two degrees
of freedom (noncentral on signal slots); the matched-filter detector sees
Gaussians.  All functions accept scalars or numpy arrays in x.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chndtr, erfc, i0e

__all__ = [
    "marcum_q1",
    "f_sl_cmd",
    "F_sl_cmd",
    "f_nsl_cmd",
    "F_nsl_cmd",
    "f_sl_imd",
    "F_sl_imd",
    "f_nsl_imd",
    "F_nsl_imd",
]


def marcum_q1(a, b):
    """First-order Marcum Q function Q_1(a, b).

    Evaluated through the noncentral chi-square survival function with two
    degrees of freedom; the a=0 and b=0 edges use the exact identities
    Q_1(a, 0) = 1 and Q_1(0, b) = exp(-b^2/2).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marcum_q1 requires nonnegative arguments")
    with np.errstate(under="ignore"):
        out = 1.0 - chndtr(b * b, 2.0, a * a)
        out = np.where(b == 0.0, 1.0, out)
        out = np.where((a == 0.0) & (b > 0.0), np.exp(-b * b / 2.0), out)
    res = np.clip(out, 0.0, 1.0)
    return res if res.ndim else float(res)


def f_sl_cmd(x, omega, sigma2):
    """Signal-slot power-metric density (noncentral chi-square, 2 dof).

    Stabilized form: the Bessel factor is evaluated scaled and its exponent
    folded into the Gaussian one, leaving exp(-(sqrt(x)-sqrt(omega))^2 / 2s).
    """
    x = np.asarray(x, dtype=float)
    omega = float(omega)
    if omega < 0 or sigma2 <= 0:
        raise ValueError("omega must be >= 0 and sigma2 > 0")
    xm = np.maximum(x, 0.0)
    with np.errstate(under="ignore"):
        out = (
            1.0
            / (2.0 * sigma2)
            * np.exp(-((np.sqrt(xm) - np.sqrt(omega)) ** 2) / (2.0 * sigma2))
            * i0e(np.sqrt(xm * omega) / sigma2)
        )
    out = np.where(x < 0, 0.0, out)
    return out if out.ndim else float(out)


def F_sl_cmd(x, omega, sigma2):
    """Signal-slot power-metric cdf, via the Marcum Q function."""
    x = np.asarray(x, dtype=float)
    sigma = np.sqrt(sigma2)
    xm = np.maximum(x, 0.0)
    out = 1.0 - marcum_q1(np.sqrt(omega) / sigma, np.sqrt(xm) / sigma)
    out = np.where(x < 0, 0.0, np.clip(out, 0.0, 1.0))
    return out if np.ndim(out) else float(out)


def f_nsl_cmd(x, sigma2):
    """Non-signal-slot power-metric density (exponential)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.where(x < 0, 0.0, np.exp(-np.maximum(x, 0.0) / (2.0 * sigma2)) / (2.0 * sigma2))
    return out if out.ndim else float(out)


def F_nsl_cmd(x, sigma2):
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.where(x < 0, 0.0, -np.expm1(-np.maximum(x, 0.0) / (2.0 * sigma2)))
    return out if out.ndim else float(out)


def f_sl_imd(x, mu, sigma2):
    """Signal-slot matched-filter density: Gaussian with mean mu."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.exp(-((x - mu) ** 2) / (2.0 * sigma2)) / np.sqrt(2.0 * np.pi * sigma2)
    return out if out.ndim else float(out)


def F_sl_imd(x, mu, sigma2):
    x = np.asarray(x, dtype=float)
    out = 1.0 - 0.5 * erfc((x - mu) / np.sqrt(2.0 * sigma2))
    return out if np.ndim(out) else float(out)


def f_nsl_imd(x, sigma2):
    return f_sl_imd(x, 0.0, sigma2)


def F_nsl_imd(x, sigma2):
    return F_sl_imd(x, 0.0, sigma2)
