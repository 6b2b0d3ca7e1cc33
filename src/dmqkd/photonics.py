"""Coherent-state algebra for the two-laser transmitter.

The transmitter emits triplets of mutually coherent pulses; an asymmetric
Mach-Zehnder interferometer (AMZI) with a one-bin delay interferes each pulse
with its predecessor. All amplitudes are complex field amplitudes in units of
sqrt(mean photon number); the common optical-carrier factor e^{i*omega*t} is
dropped, so every phase is relative to the frame.

The AMZI here is ideal: lossless, exactly 50:50, exact one-bin delay, and only
the interference output port is modeled. Each output bin is half the sum of two
adjacent input bins, so an input amplitude A gives output magnitudes
A*|cos(dphi/2)|.

The drive timing (TimingParams) and the V-pi calibration (CalibrationCurve)
live here too, so a configuration loads without numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple

from ._record import Record
from .errors import ConfigurationError, DmqkdError

TWO_PI = 2.0 * math.pi


class Phase(float):
    """An angle canonicalised to [0, 2*pi).

    Behaves as a plain float; construction reduces modulo 2*pi, so equality
    of two Phase values is modular equality.
    """

    def __new__(cls, value: float) -> "Phase":
        v = float(value)
        if not math.isfinite(v):
            raise DmqkdError(f"phase must be finite, got {v!r}")
        v = v % TWO_PI
        if v >= TWO_PI:  # rounding of tiny negatives can land exactly on 2*pi
            v = 0.0
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"Phase({float(self)!r})"


class PulseFrame(NamedTuple):
    """The five time bins around one encoding triplet, before the AMZI.

    Bin order is L_P, R_P, E, L, R: the last pulse of the preceding triplet,
    then the triplet a1, a2, a3, then the first pulse of the following triplet.
    It is an immutable named tuple, as is OutputFrame.
    """

    a3_prev: complex
    a1: complex
    a2: complex
    a3: complex
    a1_next: complex


class OutputFrame(NamedTuple):
    """The four interfered bins after the AMZI: R_P, E, L, R."""

    rp: complex
    e: complex
    l: complex
    r: complex


def _check_finite(bins: Iterable[complex], what: str = "amplitude") -> None:
    """Raise naming the first bin whose real or imaginary part is not finite."""
    for z in bins:
        if not cmath.isfinite(z):
            raise DmqkdError(f"{what} must be finite, got {z!r}")


def make_frame(
    a: float,
    phi1: float,
    phi12: float,
    phi23: float,
    phi_rp: float,
    phi_rf: float,
) -> PulseFrame:
    """Build the five-bin input frame from the laser amplitude and phases.

    phi1 is the (randomised) global phase of the triplet, phi12/phi23 the
    encoding phase steps, and phi_rp/phi_rf the random phases of the preceding
    and following triplets relative to this one. A phase that is not finite,
    or finite phases whose sum overflows, raises DmqkdError.
    """
    if not math.isfinite(a) or a < 0.0:
        raise DmqkdError(f"pulse amplitude must be finite and >= 0, got {a!r}")
    p1 = float(phi1)
    p12 = p1 + float(phi12)
    p123 = p12 + float(phi23)
    # Every phase is a term of one of these two sums, and a sum with a
    # non-finite term (or one that overflows) is not finite.
    p_rf = p123 + float(phi_rf)
    p_rp = p1 + float(phi_rp)
    if not (math.isfinite(p_rf) and math.isfinite(p_rp)):
        raise DmqkdError(
            f"phases must be finite with a finite sum, got phi1={phi1!r}, phi12={phi12!r}, "
            f"phi23={phi23!r}, phi_rp={phi_rp!r}, phi_rf={phi_rf!r}"
        )
    # tuple.__new__ skips the named tuple's Python-level __new__. Each bin
    # stays a * cmath.exp(1j * p): cmath.rect(a, p) signs the zeros of a = 0
    # differently, and the oracle test pins them.
    return tuple.__new__(PulseFrame, (
        a * cmath.exp(1j * p_rp),
        a * cmath.exp(1j * p1),
        a * cmath.exp(1j * p12),
        a * cmath.exp(1j * p123),
        a * cmath.exp(1j * p_rf),
    ))


def amzi_transform(frame: PulseFrame) -> OutputFrame:
    """Interfere adjacent bins: each output is half the sum of two inputs.

    The resulting magnitudes follow A*|cos(dphi/2)| where dphi is the phase
    step between the interfered pulses, and the E-L phase difference is
    (phi12 + phi23)/2 up to the sign of the cosines. Non-finite input bins,
    and output bins that overflow, raise DmqkdError.
    """
    a3_prev, a1, a2, a3, a1_next = frame
    out = tuple.__new__(OutputFrame, (
        0.5 * (a3_prev + a1), 0.5 * (a1 + a2), 0.5 * (a2 + a3), 0.5 * (a3 + a1_next)))
    # Every input bin feeds an output bin, and a sum with a non-finite part
    # stays non-finite, so one pass over the output also covers the input.
    if not all(map(cmath.isfinite, out)):
        _check_finite(frame)
        _check_finite(out, "AMZI output")
    return out


class CalibrationCurve(Record):
    """Linear phase-vs-voltage calibration through the origin.

    v_pi is the voltage producing a pi phase shift; the pulse intensity then
    follows a cosine in the applied voltage.
    """

    v_pi: float = 0.8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_pi) and self.v_pi > 0.0):
            raise ConfigurationError(f"v_pi must be > 0, got {self.v_pi!r}")


class TimingParams(Record):
    """Clock rate and event widths of the electrical drive scheme.

    The slave laser emits exactly three pulses per master gate, so its rate is
    three times the master rate and the AMZI delay equals one slave period;
    both are derived from master_rate rather than stored.
    """

    master_rate: float = 2e9 / 3.0
    perturbation_width: float = 150e-12
    master_on_time: float = 1.4e-9
    slave_on_time: float = 300e-12

    def __post_init__(self) -> None:
        for name in _TIMING_FIELDS:
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"{name} must be > 0, got {v!r}")
        if self.master_on_time > 1.0 / self.master_rate:
            raise ConfigurationError("master_on_time exceeds the master period")
        if 2.0 * self.amzi_delay + self.slave_on_time > self.master_on_time:
            raise ConfigurationError(
                "three slave pulses do not fit inside the master on-window"
            )
        if self.perturbation_width >= self.amzi_delay:
            raise ConfigurationError(
                "perturbation_width must be shorter than the slave period"
            )

    @property
    def slave_rate(self) -> float:
        return 3.0 * self.master_rate

    @property
    def amzi_delay(self) -> float:
        return 1.0 / self.slave_rate

    @property
    def symbol_period(self) -> float:
        return 1.0 / self.master_rate


_TIMING_FIELDS = TimingParams.field_names
