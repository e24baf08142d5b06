"""Hybrid QAM-MPPM modulation toolkit: analysis, simulation and sweeps."""

from .constellation import Constellation, build_constellation
from .link import (
    DEFAULT_RECEIVER,
    ComplexityReport,
    LinkParams,
    ReceiverNoiseParams,
    complexity,
    frame_energies,
    link_from_popt,
    sigma_from_ebn0,
    total_bits,
)
from .mppm import CapacityError, MppmCode, bits_per_mppm, make_code
from .simulate import TrialCounters, run_point
from .sweep import ConfigError, SweepSpec, build_spec, parse_config

__all__ = [
    "AnalyticResult",
    "CapacityError",
    "ComplexityReport",
    "ConfigError",
    "Constellation",
    "DEFAULT_RECEIVER",
    "LinkParams",
    "MppmCode",
    "QuadratureError",
    "ReceiverNoiseParams",
    "SweepSpec",
    "TrialCounters",
    "bits_per_mppm",
    "build_constellation",
    "build_spec",
    "complexity",
    "frame_energies",
    "link_from_popt",
    "make_code",
    "parse_config",
    "pe_cmd_ja",
    "pe_cmd_sa",
    "pe_imd",
    "run_point",
    "sigma_from_ebn0",
    "total_bits",
]

__version__ = "0.1.0"

# The analytic routes need scipy, so they load on first use and a
# simulation-only process runs on numpy alone (PEP 562).
_ANALYTIC_NAMES = {"AnalyticResult", "QuadratureError", "pe_cmd_ja", "pe_cmd_sa", "pe_imd"}


def __getattr__(name):
    if name in _ANALYTIC_NAMES:
        from . import analytic

        return getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
