"""Helpers that only the tests call."""

import math

import numpy as np


def ebn0_at_target(ebn0_db: np.ndarray, values: np.ndarray, target: float) -> float:
    """Log-linear interpolation of the abscissa where a falling curve hits target."""
    v = np.asarray(values, dtype=float)
    x = np.asarray(ebn0_db, dtype=float)
    logs = np.log10(np.maximum(v, 1e-300))
    lt = math.log10(target)
    for i in range(len(v) - 1):
        a, b = logs[i], logs[i + 1]
        if (a - lt) * (b - lt) <= 0 and a != b:
            return float(x[i] + (x[i + 1] - x[i]) * (lt - a) / (b - a))
    raise ValueError("curve does not cross the target level on the grid")
