import cmath
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmqkd import encoding, photonics
from dmqkd.config import RunConfig
from dmqkd.errors import ConfigurationError, DmqkdError
from dmqkd.photonics import (
    TWO_PI,
    Phase,
    amzi_transform,
    make_frame,
)


# The frozen-dataclass frames and render functions the named tuples replaced,
# kept as the oracle: same class names, so equal reprs mean equal bins, bit
# for bit, down to the sign of a zero.
@dataclass(frozen=True)
class PulseFrame:
    a3_prev: complex
    a1: complex
    a2: complex
    a3: complex
    a1_next: complex


@dataclass(frozen=True)
class OutputFrame:
    rp: complex
    e: complex
    l: complex
    r: complex


def _oracle_make_frame(a, phi1, phi12, phi23, phi_rp, phi_rf):
    p1, p12, p23 = float(phi1), float(phi12), float(phi23)
    return PulseFrame(
        a3_prev=a * cmath.exp(1j * (p1 + float(phi_rp))),
        a1=a * cmath.exp(1j * p1),
        a2=a * cmath.exp(1j * (p1 + p12)),
        a3=a * cmath.exp(1j * (p1 + p12 + p23)),
        a1_next=a * cmath.exp(1j * (p1 + p12 + p23 + float(phi_rf))),
    )


def _oracle_amzi_transform(frame):
    return OutputFrame(
        rp=0.5 * (frame.a3_prev + frame.a1),
        e=0.5 * (frame.a1 + frame.a2),
        l=0.5 * (frame.a2 + frame.a3),
        r=0.5 * (frame.a3 + frame.a1_next),
    )


_PHASES = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6).map(Phase))
_NON_FINITE = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
               complex(0.0, -math.inf), complex(-math.inf, math.inf)]


class TestPhase:
    def test_canonical_range(self):
        assert float(Phase(0.0)) == 0.0
        assert float(Phase(TWO_PI)) == 0.0
        assert math.isclose(float(Phase(-0.1)), TWO_PI - 0.1)
        assert math.isclose(float(Phase(7.0 * math.pi / 2.0)), 3.0 * math.pi / 2.0)

    def test_tiny_negative_does_not_land_on_two_pi(self):
        assert 0.0 <= float(Phase(-1e-20)) < TWO_PI

    def test_behaves_as_float(self):
        assert Phase(1.0) + 1.0 == 2.0
        assert Phase(math.pi) == Phase(3.0 * math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(DmqkdError):
            Phase(float("nan"))
        with pytest.raises(DmqkdError):
            Phase(float("inf"))

    def test_repr(self):
        assert repr(Phase(1.5)) == "Phase(1.5)"


class TestAmziTransform:
    def test_equal_phases_pass_through(self):
        out = amzi_transform(make_frame(1.0, 0.3, 0.0, 0.0, 0.0, 0.0))
        for z in (out.rp, out.e, out.l, out.r):
            assert math.isclose(abs(z), 1.0)

    def test_pi_step_cancels(self):
        out = amzi_transform(make_frame(1.0, 0.0, math.pi, 0.0, 0.0, 0.0))
        assert abs(out.e) < 1e-15

    def test_magnitude_closed_form(self):
        phi12 = 1.1
        out = amzi_transform(make_frame(1.0, 0.7, phi12, 2.3, 0.4, 5.0))
        assert math.isclose(abs(out.e), abs(math.cos(phi12 / 2.0)))
        assert math.isclose(abs(out.e), 0.8525245220595057)
        assert math.isclose(abs(out.l), abs(math.cos(2.3 / 2.0)))
        assert math.isclose(abs(out.rp), abs(math.cos(0.4 / 2.0)))
        assert math.isclose(abs(out.r), abs(math.cos(5.0 / 2.0)))

    def test_linearity_in_amplitude(self):
        rng = np.random.default_rng(3)
        phi1, phi12, phi23, phi_rp, phi_rf = rng.uniform(0.0, TWO_PI, size=5)
        small = amzi_transform(make_frame(0.5, phi1, phi12, phi23, phi_rp, phi_rf))
        big = amzi_transform(make_frame(1.5, phi1, phi12, phi23, phi_rp, phi_rf))
        assert cmath.isclose(big.e, 3.0 * small.e)
        assert cmath.isclose(big.l, 3.0 * small.l)

    def test_make_frame_rejects_negative_amplitude(self):
        with pytest.raises(DmqkdError):
            make_frame(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(a=st.sampled_from([0.0, 0.5, 1.0, 1.5, 1e150]),
           phases=st.tuples(*[_PHASES] * 5))
    def test_matches_the_dataclass_oracle_bit_for_bit(self, a, phases):
        frame = make_frame(a, *phases)
        oracle = _oracle_make_frame(a, *phases)
        assert repr(frame) == repr(oracle)
        assert repr(amzi_transform(frame)) == repr(_oracle_amzi_transform(oracle))

    def test_frames_are_immutable_tuples(self):
        frame = make_frame(1.0, 0.7, 1.1, 2.3, 0.4, 5.0)
        out = amzi_transform(frame)
        assert type(frame) is photonics.PulseFrame and type(out) is photonics.OutputFrame
        assert frame == tuple(frame) and out == (out.rp, out.e, out.l, out.r)
        with pytest.raises(AttributeError):
            out.e = 0j

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("index", range(5))
    def test_non_finite_bin_is_named(self, index, bad):
        bins = [1.0 + 0j] * 5
        bins[index] = bad
        with pytest.raises(DmqkdError, match=re.escape(f"amplitude must be finite, got {bad!r}")):
            amzi_transform(photonics.PulseFrame(*bins))

    def test_non_finite_phase_is_rejected(self):
        # Each phase in turn NaN or +-inf, then finite phases whose sums
        # overflow: each used to give a frame of (nan+nanj) bins.
        cases = []
        for i in range(5):
            for bad in (math.nan, math.inf, -math.inf):
                phases = [0.0] * 5
                phases[i] = bad
                cases.append(phases)
        cases += [[1e308, 0.0, 0.0, 1e308, 0.0], [0.0, 1e308, 1e308, 0.0, 0.0],
                  [1e308, 0.0, 0.0, 0.0, 1e308], [0.0, -1e308, -1e308, 0.0, 0.0]]
        for phases in cases:
            with pytest.raises(DmqkdError, match=re.escape(f"phi23={phases[2]!r}, phi_rp=")):
                make_frame(1.0, *phases)

    def test_overflowing_output_is_rejected(self):
        # 0.5 * (a1 + a2) overflows to inf + nan*j although every input is finite.
        message = "AMZI output must be finite, got (inf+nanj)"
        with pytest.raises(DmqkdError, match=re.escape(message)):
            amzi_transform(make_frame(1e308, 0.0, 0.0, 0.0, 1.0, 2.0))


class TestTimingParams:
    def test_perturbation_width_must_be_shorter_than_the_slave_period(self):
        delay = photonics.TimingParams().amzi_delay
        assert photonics.TimingParams(perturbation_width=np.nextafter(delay, 0.0)).amzi_delay == delay
        for width in (delay, 2.0 * delay):
            with pytest.raises(ConfigurationError,
                               match="^perturbation_width must be shorter than the slave period$"):
                photonics.TimingParams(perturbation_width=width)


def test_encoding_reexports_the_timing_and_calibration_classes():
    assert encoding.TimingParams is photonics.TimingParams
    assert encoding.CalibrationCurve is photonics.CalibrationCurve
    assert type(RunConfig().timing) is photonics.TimingParams
    assert type(RunConfig().calibration) is photonics.CalibrationCurve
