"""Physical and normalized link parameters, energies, noise PSD, complexity.

The normalized scale fixes T_s * I_ph^2 = 1 so that analytic and simulated
sweeps can be driven directly by Eb/N0; the physical scale derives T_s,
I_ph and the receiver noise PSD from optical power and bit rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .mppm import bits_per_mppm

# Exact SI values since the 2019 redefinition (J/K and C).
Boltzmann = 1.380649e-23
elementary_charge = 1.602176634e-19


@dataclass(frozen=True)
class LinkParams:
    """Channel scale for one operating point."""

    n_slots: int
    weight: int
    m: float  # modulation index, 0 < m <= 1
    t_s: float  # slot time, seconds (1 when normalized)
    i_ph: float  # photocurrent, amperes (1 when normalized)
    sigma2: float  # noise variance of each slot statistic, = N0/2

    def __post_init__(self):
        if not (0.0 < self.m <= 1.0):
            raise ValueError("modulation index must satisfy 0 < m <= 1")
        for name in ("t_s", "i_ph", "sigma2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name):g}")

    @property
    def slot_energy(self) -> float:
        return self.t_s * self.i_ph**2

    @property
    def qam_amplitude(self) -> float:
        """Mean of a pulsed slot's correlator outputs per unit of its QAM
        point's coordinate: sqrt(T_s/2) * I_ph * m."""
        return math.sqrt(self.t_s / 2.0) * self.i_ph * self.m

    @property
    def dc_mean(self) -> float:
        """Mean of a pulsed slot's matched-filter output: sqrt(T_s) * I_ph."""
        return math.sqrt(self.t_s) * self.i_ph

    def with_sigma2(self, sigma2: float) -> "LinkParams":
        return replace(self, sigma2=sigma2)

    @classmethod
    def from_normalized(cls, n_slots: int, weight: int, m: float, sigma2: float) -> "LinkParams":
        return cls(n_slots=n_slots, weight=weight, m=m, t_s=1.0, i_ph=1.0,
                   sigma2=sigma2)


@dataclass(frozen=True)
class ReceiverNoiseParams:
    """Receiver constants entering the unilateral noise PSD."""

    temperature: float  # K
    load_resistance: float  # ohm
    noise_factor: float  # linear
    rin: float  # 1/Hz, linear
    responsivity: float  # A/W

    def __post_init__(self):
        for name in ("temperature", "load_resistance", "noise_factor", "rin", "responsivity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def n0(self, i_dc: float) -> float:
        """Thermal + shot + relative-intensity noise PSD at DC current i_dc."""
        thermal = 4.0 * Boltzmann * self.temperature * self.noise_factor / self.load_resistance
        shot = 2.0 * elementary_charge * i_dc
        rin = self.rin * i_dc**2
        return thermal + shot + rin


# Typical receiver constants used for the link-budget sweeps:
# 290 K, 50 ohm load, 10 dB noise figure, -155 dB/Hz RIN, 0.5 A/W.
DEFAULT_RECEIVER = ReceiverNoiseParams(
    temperature=290.0,
    load_resistance=50.0,
    noise_factor=10.0,
    rin=10.0 ** (-155.0 / 10.0),
    responsivity=0.5,
)


@functools.cache
def total_bits(n_slots: int, weight: int, n_q: int) -> int:
    """Information bits per frame: pattern bits plus w QAM words.

    Kept per code: C(N, w) takes milliseconds for N in the thousands, and a
    sweep's links read it at every grid point."""
    return bits_per_mppm(n_slots, weight) + weight * n_q


def frame_energies(params: LinkParams, constellation) -> tuple[float, float, float]:
    """(frame symbol energy, per-slot QAM energy, energy per bit).

    E_s = w*T_s*I_ph^2*(1 + m^2/2), E_s_qam = T_s*I_ph^2*m^2/2, and
    E_b = E_s / q_total; the constellation is energy-normalized so only its
    bit count enters.
    """
    base = params.slot_energy
    e_s = params.weight * base * (1.0 + params.m**2 / 2.0)
    e_s_qam = base * params.m**2 / 2.0
    q_total = total_bits(params.n_slots, params.weight, constellation.n_q)
    return e_s, e_s_qam, e_s / q_total


def sigma_from_ebn0(ebn0_db: float, params: LinkParams, constellation) -> float:
    """Noise variance sigma_n^2 = N0/2 realizing the requested Eb/N0 (dB)."""
    _, _, e_b = frame_energies(params, constellation)
    n0 = e_b * 10.0 ** (-ebn0_db / 10.0)
    return n0 / 2.0


def link_from_popt(
    p_opt: float,
    rx: ReceiverNoiseParams,
    n_slots: int,
    weight: int,
    r_b: float,
    q_total: int,
    m: float,
) -> LinkParams:
    """Physical-scale link at average received optical power p_opt (watts).

    The slot time follows from the bit rate (q_total bits per N-slot frame),
    the DC photocurrent from the responsivity and the duty cycle w/N, and
    the noise variance from the receiver PSD model.
    """
    for name, val in (("p_opt", p_opt), ("r_b", r_b)):
        if not 0.0 < val < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {val:g}")
    i_dc = rx.responsivity * p_opt
    i_ph = (n_slots / weight) * i_dc
    t_s = q_total / (n_slots * r_b)
    sigma2 = rx.n0(i_dc) / 2.0
    return LinkParams(n_slots=n_slots, weight=weight, m=m, t_s=t_s, i_ph=i_ph, sigma2=sigma2)


@dataclass(frozen=True)
class ComplexityReport:
    """Operation-count proxies for both detectors and their ratio."""

    cmd_qam_metrics: float
    cmd_qam_sorting: float
    cmd_mppm: float
    imd_input_filter: float
    imd_qam_metrics: float
    imd_qam_sorting: float
    imd_mppm: float

    @property
    def cmd_total(self) -> float:
        return self.cmd_qam_metrics + self.cmd_qam_sorting + self.cmd_mppm

    @property
    def imd_total(self) -> float:
        return self.imd_input_filter + self.imd_qam_metrics + self.imd_qam_sorting + self.imd_mppm

    @property
    def gain(self) -> float:
        return self.imd_total / self.cmd_total


def complexity(n_slots: int, weight: int, m_q: int, n_samples: int) -> ComplexityReport:
    """Per-frame operation counts; heap comparisons use log base 2."""
    n, w = n_slots, weight
    problems = [msg for bad, msg in (
        (n < 2, f"N must be >= 2, got {n}"),
        (n >= 2 and not 1 <= w <= n - 1, f"w must be in [1, {n - 1}], got {w}"),
        (not 4 <= m_q <= 1024 or m_q & (m_q - 1), f"M_Q must be 2^k for k in [2, 10], got {m_q}"),
        (n_samples < 2, "need at least 2 samples per slot (Nyquist)"),
    ) if bad]
    if problems:
        raise ValueError("; ".join(problems))
    heap = n * math.log2(w) if w > 1 else 0.0
    return ComplexityReport(
        cmd_qam_metrics=2.0 * n * n_samples,
        cmd_qam_sorting=float(n * m_q),
        cmd_mppm=heap,
        imd_input_filter=float(n * n_samples),
        imd_qam_metrics=2.0 * w * n_samples,
        imd_qam_sorting=float(w * m_q),
        imd_mppm=heap,
    )
