import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
import warnings
from dataclasses import asdict, dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dmqkd import encoding
from dmqkd.config import RunConfig
from dmqkd.encoding import (
    CH_MASTER,
    CH_PERT,
    CH_SLAVE,
    CalibrationCurve,
    EncodingSymbol,
    EventColumns,
    PhasePair,
    TimingParams,
    WaveformSchedule,
    compile_schedule,
    decompile_schedule,
    encode_symbol,
    intensity_to_phase,
    parse_symbol_stream,
    parse_symbol_token,
    phase_for_voltage,
    schedule_from_text,
    schedule_to_json,
    schedule_to_text,
    symbol_token,
    voltage_for_phase,
)
from dmqkd.encoding import _ROW, _read_block
from dmqkd.errors import ConfigurationError, InvalidSymbolError, ScheduleParseError
from dmqkd.linksim import DecoyIntensities
from dmqkd.photonics import Phase, amzi_transform, make_frame

TABLE = {"signal": 1.0, "decoy": 0.4, "vacuum": 0.0375}
TOKENS = ("Z0s", "Z1s", "Y0s", "Y1s", "Z0d", "Z1d", "Z0v", "Z1v")
_LONG_STREAM = [parse_symbol_token(TOKENS[i % len(TOKENS)]) for i in range(256)]
_SLOW_DELAY = 1 / 3  # the AMZI delay (s) of a 1 Hz master clock
_SLOW_TIMING = TimingParams(master_rate=1.0, perturbation_width=_SLOW_DELAY / 3,
                            slave_on_time=_SLOW_DELAY / 2, master_on_time=2.5 * _SLOW_DELAY)


_CHANNEL_CODES = {CH_MASTER: 0, CH_PERT: 1, CH_SLAVE: 2}


@dataclass(frozen=True)
class Row:
    """One event as the reference loops build and read it."""

    channel: str
    start: float
    duration: float
    level: float


def _rows(events):
    """The events of EventColumns as a list of Rows, in column order."""
    names = tuple(_CHANNEL_CODES)
    return list(map(Row, map(names.__getitem__, events.code.tolist()), events.start.tolist(),
                    events.duration.tolist(), events.level.tolist()))


def _schedule(timing, rows):
    """A schedule of hand-built Rows, passed as columns. A channel other than
    the three gets code 3, which the schedule rejects."""
    rows = list(rows)
    return WaveformSchedule(timing, EventColumns(
        np.array([_CHANNEL_CODES.get(e.channel, 3) for e in rows], dtype=np.int8),
        *(np.array([getattr(e, name) for e in rows], dtype=float)
          for name in ("start", "duration", "level"))))


def streams(max_size):
    return st.lists(st.sampled_from(TOKENS), min_size=1, max_size=max_size).map(
        lambda toks: [parse_symbol_token(t) for t in toks]
    )


@st.composite
def timings(draw):
    """Valid TimingParams from 1 Hz to 10 GHz, with each width at, next to or
    anywhere between its bounds."""

    def between(lo, hi):
        inner = st.floats(lo, hi) if lo < hi else st.nothing()
        return draw(st.one_of(st.just(lo), st.just(hi), inner))

    rate = between(1.0, 1e10)
    delay = 1.0 / (3.0 * rate)
    slave_on = between(delay * 1e-3, delay)
    kw = dict(
        master_rate=rate,
        perturbation_width=between(delay * 1e-3, math.nextafter(delay, 0.0)),
        slave_on_time=slave_on,
        master_on_time=between(2.0 * delay + slave_on, 1.0 / rate),
    )
    try:
        return TimingParams(**kw)
    except ConfigurationError:
        # Rounding can push a bound just past what TimingParams accepts.
        assume(False)


@st.composite
def loadable_intensities(draw):
    """DecoyIntensities that load, from tiny to the largest mu, with the true
    vacuum omega = 0.0 drawn as often as a dim one."""
    mu = draw(st.floats(1e-300, math.log(sys.float_info.max)))
    nu = mu * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    omega = nu * draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    try:
        return DecoyIntensities(mu, nu, omega)
    except ConfigurationError:
        assume(False)


class TestEncodingSymbol:
    def test_valid(self):
        EncodingSymbol("Z", 0)
        EncodingSymbol("Y", 1)
        EncodingSymbol("Z", 1, "decoy")
        EncodingSymbol("Z", 0, "vacuum")

    @pytest.mark.parametrize(
        "basis,bit,cls",
        [("X", 0, "signal"), ("Z", 2, "signal"), ("Z", 0, "bright"),
         ("Y", 0, "decoy"), ("Y", 1, "vacuum")],
    )
    def test_invalid(self, basis, bit, cls):
        with pytest.raises(InvalidSymbolError):
            EncodingSymbol(basis, bit, cls)


class TestEncodeSymbol:
    def test_signal_table(self):
        cases = {
            ("Z", 0): (0.0, math.pi),
            ("Z", 1): (math.pi, 0.0),
            ("Y", 0): (math.pi / 2.0, math.pi / 2.0),
            ("Y", 1): (3.0 * math.pi / 2.0, 3.0 * math.pi / 2.0),
        }
        for (basis, bit), (p12, p23) in cases.items():
            pp = encode_symbol(EncodingSymbol(basis, bit), TABLE)
            assert float(pp.phi12) == pytest.approx(p12, abs=1e-15)
            assert float(pp.phi23) == pytest.approx(p23, abs=1e-15)

    def test_decoy_dims_the_occupied_bin(self):
        dim = intensity_to_phase(0.4)
        pp0 = encode_symbol(EncodingSymbol("Z", 0, "decoy"), TABLE)
        assert float(pp0.phi12) == pytest.approx(float(dim))
        assert float(pp0.phi23) == pytest.approx(math.pi)
        pp1 = encode_symbol(EncodingSymbol("Z", 1, "decoy"), TABLE)
        assert float(pp1.phi12) == pytest.approx(math.pi)
        assert float(pp1.phi23) == pytest.approx(float(dim))

    def test_missing_class_raises(self):
        with pytest.raises(ConfigurationError):
            encode_symbol(EncodingSymbol("Z", 0, "decoy"), {"signal": 1.0})

    def test_signal_fraction_must_be_one(self):
        with pytest.raises(ConfigurationError):
            encode_symbol(EncodingSymbol("Z", 0), {"signal": 0.9})

    @settings(max_examples=100, deadline=None)
    @given(intens=loadable_intensities())
    @example(intens=DecoyIntensities(0.4, 0.16, 0.0))
    def test_every_loadable_intensity_set_encodes(self, intens):
        """All eight symbols encode, survive the schedule's text round trip to
        1e-12 rad, and each Z symbol's bin carries its class's fraction."""
        table = RunConfig(intensities=intens).decoy_table()
        stream = [parse_symbol_token(tok) for tok in TOKENS]
        pairs = [encode_symbol(sym, table) for sym in stream]
        timing, cal = TimingParams(), CalibrationCurve()
        text = schedule_to_text(compile_schedule(stream, timing, cal, table))
        back = decompile_schedule(schedule_from_text(text), timing, cal)
        for sym, want, got in zip(stream, pairs, back):
            for a, b in ((got.phi12, want.phi12), (got.phi23, want.phi23)):
                gap = (float(a) - float(b)) % (2.0 * math.pi)
                assert min(gap, 2.0 * math.pi - gap) <= 1e-12
            if sym.basis == "Z":
                out = amzi_transform(make_frame(1.0, 0.0, want.phi12, want.phi23, 0.0, 0.0))
                occupied, dark = (out.e, out.l) if sym.bit == 0 else (out.l, out.e)
                assert abs(occupied) ** 2 == pytest.approx(table[sym.intensity_class], abs=1e-12)
                assert abs(dark) ** 2 <= 1e-12


class TestIntensityToPhase:
    def test_known_value(self):
        assert float(intensity_to_phase(0.1)) == pytest.approx(2.498091544796509)

    def test_endpoints_and_monotonicity(self):
        assert float(intensity_to_phase(1.0)) == 0.0
        assert float(intensity_to_phase(0.0)) == math.pi
        assert float(intensity_to_phase(0.5)) == pytest.approx(math.pi / 2.0)
        assert float(intensity_to_phase(0.2)) > float(intensity_to_phase(0.4))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ConfigurationError):
            intensity_to_phase(bad)

    def test_round_trip_through_interference(self):
        for frac in (0.9, 0.4, 0.0375):
            phi = intensity_to_phase(frac)
            assert math.cos(float(phi) / 2.0) ** 2 == pytest.approx(frac)


class TestCalibration:
    def test_voltage_phase_inverse(self):
        cal = CalibrationCurve(v_pi=0.8)
        for phi in (0.1, 1.0, math.pi, 5.0):
            v = voltage_for_phase(phi, cal)
            assert float(phase_for_voltage(v, cal)) == pytest.approx(float(Phase(phi)))

    def test_pi_maps_to_v_pi(self):
        cal = CalibrationCurve(v_pi=0.8)
        assert voltage_for_phase(math.pi, cal) == pytest.approx(0.8)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("v_pi", [0.5, 0.8, 2.5])
    def test_driven_amplitude_is_the_calibration_cosine(self, v_pi, a):
        # The E bin interferes a pulse with the one whose phase step the
        # voltage sets, so |E| = a*|cos(pi*v / (2*v_pi))|.
        cal = CalibrationCurve(v_pi=v_pi)

        def e_bin(v):
            frame = make_frame(a, 0.0, phase_for_voltage(v, cal), 0.0, 0.0, 0.0)
            return abs(amzi_transform(frame).e)

        for v in np.linspace(0.0, 2.0 * v_pi, 41):
            assert abs(e_bin(v) - a * abs(math.cos(math.pi * v / (2.0 * v_pi)))) < 1e-12
        assert e_bin(0.0) == pytest.approx(a, abs=1e-12)
        assert e_bin(v_pi) < 1e-12
        assert abs(e_bin(v_pi / 2.0) ** 2 - 0.5 * a * a) < 1e-12

    @pytest.mark.parametrize("v", [math.inf, math.nan, 1e308])
    def test_voltage_with_no_finite_phase_rejected(self, v):
        # 1e308 is finite, but 1e308 / 0.8 * pi overflows.
        message = f"voltage {v!r} at v_pi=0.8 gives no finite phase"
        with pytest.raises(ScheduleParseError, match=f"^{re.escape(message)}$"):
            phase_for_voltage(v, CalibrationCurve(v_pi=0.8))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            CalibrationCurve(v_pi=0.0)


class TestTimingParams:
    def test_defaults_are_consistent(self):
        t = TimingParams()
        assert t.symbol_period == pytest.approx(1.5e-9)
        assert t.amzi_delay * t.slave_rate == pytest.approx(1.0)

    def test_slave_rate_must_be_triple(self):
        assert TimingParams().slave_rate == 2e9
        assert TimingParams(master_rate=5e8, master_on_time=1.8e-9).slave_rate == 1.5e9
        with pytest.raises(TypeError):
            TimingParams(slave_rate=1.9e9)

    def test_amzi_delay_must_match_slave_period(self):
        assert TimingParams().amzi_delay == 500e-12
        with pytest.raises(TypeError):
            TimingParams(amzi_delay=400e-12)

    def test_master_window_must_hold_three_pulses(self):
        with pytest.raises(ConfigurationError):
            TimingParams(master_on_time=1.0e-9)


class TestScheduleCompile:
    def test_event_counts_and_channels(self):
        stream = [EncodingSymbol("Z", 0), EncodingSymbol("Y", 1), EncodingSymbol("Z", 0, "decoy")]
        sched = compile_schedule(stream, TimingParams(), CalibrationCurve(), TABLE)
        assert len(sched.events) == 18
        by_channel = {}
        for ev in _rows(sched.events):
            by_channel[ev.channel] = by_channel.get(ev.channel, 0) + 1
        assert by_channel == {CH_MASTER: 3, CH_SLAVE: 9, CH_PERT: 6}

    def test_perturbation_levels_encode_the_phases(self):
        cal = CalibrationCurve()
        sched = compile_schedule([EncodingSymbol("Y", 0)], TimingParams(), cal, TABLE)
        perts = sorted(
            (ev for ev in _rows(sched.events) if ev.channel == CH_PERT), key=lambda e: e.start
        )
        assert [ev.level for ev in perts] == pytest.approx(
            [voltage_for_phase(math.pi / 2.0, cal)] * 2
        )

    def test_perturbations_sit_between_slave_onsets(self):
        t = TimingParams()
        sched = compile_schedule([EncodingSymbol("Z", 0)], t, CalibrationCurve(), TABLE)
        slaves = sorted(ev.start for ev in _rows(sched.events) if ev.channel == CH_SLAVE)
        perts = sorted((ev.start, ev.duration) for ev in _rows(sched.events) if ev.channel == CH_PERT)
        for (start, width), left, right in zip(perts, slaves, slaves[1:]):
            assert left < start and start + width < right + 1e-15
            mid = (left + right) / 2.0
            assert start + width / 2.0 == pytest.approx(mid)

    def test_empty_stream_raises(self):
        with pytest.raises(ConfigurationError):
            compile_schedule([], TimingParams(), CalibrationCurve(), TABLE)

    def test_event_times_that_overflow_are_refused(self):
        # A 1e307 s period: the starts of symbol 19 pass the largest float,
        # while those of the first 18 stay finite and round-trip.
        t = TimingParams(master_rate=1e-307, master_on_time=1e307, slave_on_time=1e306,
                         perturbation_width=1e306)
        cal = CalibrationCurve()
        with pytest.raises(ConfigurationError, match="overflow"):
            compile_schedule([EncodingSymbol("Z", 0)] * 19, t, cal, TABLE)
        sched = compile_schedule([EncodingSymbol("Z", 0)] * 18, t, cal, TABLE)
        back = schedule_from_text(schedule_to_text(sched))
        assert back == sched and math.isfinite(back.events.start.max())
        assert len(decompile_schedule(back, t, cal)) == 18

    def test_decompile_recovers_phases(self):
        stream = [EncodingSymbol("Z", 1), EncodingSymbol("Y", 0), EncodingSymbol("Z", 1, "vacuum")]
        t, cal = TimingParams(), CalibrationCurve()
        sched = compile_schedule(stream, t, cal, TABLE)
        pairs = decompile_schedule(sched, t, cal)
        for sym, got in zip(stream, pairs):
            want = encode_symbol(sym, TABLE)
            assert float(got.phi12) == pytest.approx(float(want.phi12), abs=1e-12)
            assert float(got.phi23) == pytest.approx(float(want.phi23), abs=1e-12)

    def test_decompile_rejects_missing_perturbation(self):
        t, cal = TimingParams(), CalibrationCurve()
        sched = compile_schedule([EncodingSymbol("Z", 0)], t, cal, TABLE)
        stripped = _schedule(
            t,
            tuple(ev for ev in _rows(sched.events) if ev.channel != CH_PERT)[:5]
            + tuple(ev for ev in _rows(sched.events) if ev.channel == CH_PERT)[:1],
        )
        with pytest.raises(ScheduleParseError):
            decompile_schedule(stripped, t, cal)

    def test_overlapping_events_rejected(self):
        t, cal = TimingParams(), CalibrationCurve()
        events = (
            Row(CH_SLAVE, 0.0, 400e-12, 1.0),
            Row(CH_SLAVE, 100e-12, 400e-12, 1.0),
        )
        with pytest.raises(ScheduleParseError):
            decompile_schedule(_schedule(t, events), t, cal)

    def test_overlap_after_an_end_that_overflows(self):
        # The first master ends at 1e308 + 1e308 = inf; its slack must keep
        # that bound at inf rather than inf - inf = nan.
        t, cal = TimingParams(), CalibrationCurve()
        events = []
        for start, duration in ((1e308, 1e308), (1.5e308, 1e307)):
            events.append(Row(CH_MASTER, start, duration, 1.0))
            for k in (1, 2):
                events.append(Row(CH_PERT, start + k * 1e306, 1e300, 0.4))
            for k in (3, 4, 5):
                events.append(Row(CH_SLAVE, start + k * 1e306, 1e300, 1.0))
        sched = _schedule(t, events)
        with pytest.raises(ScheduleParseError, match="overlapping"):
            decompile_schedule(sched, t, cal)
        with pytest.raises(ScheduleParseError):
            _decompile_by_scan(_rows(sched.events), cal)


def _pair(**edit):
    """A master and a perturbation as columns, with the named columns replaced."""
    cols = dict(code=[0, 1], start=[0.0, 1e-10], duration=[1.4e-9, 1.5e-10], level=[1.0, 0.0])
    cols.update(edit)
    return EventColumns(np.array(cols["code"], dtype=np.int8),
                        *(np.array(cols[k], dtype=float) for k in ("start", "duration", "level")))


class TestScheduleEquality:
    def test_signed_zero_levels_compare_equal(self):
        t = TimingParams()
        assert WaveformSchedule(t, _pair(level=[1.0, -0.0])) == WaveformSchedule(t, _pair())

    @pytest.mark.parametrize(
        "edit",
        [dict(code=[0, 2]), dict(start=[0.0, 2e-10]), dict(duration=[1.4e-9, 1e-10]),
         dict(level=[1.0, 0.4]), dict(code=[0], start=[0.0], duration=[1.4e-9], level=[1.0])],
        ids=["code", "start", "duration", "level", "length"],
    )
    def test_a_different_column_compares_unequal(self, edit):
        t = TimingParams()
        assert WaveformSchedule(t, _pair(**edit)) != WaveformSchedule(t, _pair())

    def test_a_different_timing_compares_unequal(self):
        other = TimingParams(master_rate=5e8, master_on_time=1.8e-9)
        assert WaveformSchedule(other, _pair()) != WaveformSchedule(TimingParams(), _pair())

    @pytest.mark.parametrize(
        "other",
        [None, "events", [], [Row(CH_MASTER, 0.0, 1.4e-9, 1.0), Row(CH_PERT, 1e-10, 1.5e-10, 0.0)]],
        ids=["none", "str", "empty-list", "rows"],
    )
    def test_another_type_compares_unequal(self, other):
        sched = WaveformSchedule(TimingParams(), _pair())
        assert (sched.events == other) is False and (other == sched.events) is False
        assert (sched == other) is False

_HEADER = (
    "# timing master_rate=666666666.6666666 perturbation_width=1.5e-10"
    " master_on_time=1.4e-09 slave_on_time=3e-10"
)
# The header written before slave_rate and amzi_delay became derived and
# perturbation_separation was removed.
_OLD_HEADER = (
    "# timing master_rate=666666666.6666666 slave_rate=2000000000.0"
    " perturbation_width=1.5e-10 perturbation_separation=4.5e-10 amzi_delay=5e-10"
    " master_on_time=1.4e-09 slave_on_time=3e-10\n"
)


def _headers(edit):
    """(field, header) with that one timing field dropped or written twice."""
    tokens = _HEADER[len("# timing "):].split()
    for i, tok in enumerate(tokens):
        kept = tokens[:i] + tokens[i + 1:] if edit == "drop" else tokens + [tok]
        yield tok.split("=")[0], "# timing " + " ".join(kept) + "\n"


class TestScheduleSerialization:
    def _sched(self):
        stream = [EncodingSymbol("Z", 0), EncodingSymbol("Y", 1)]
        return compile_schedule(stream, TimingParams(), CalibrationCurve(), TABLE)

    def test_text_round_trip_is_byte_stable(self):
        sched = self._sched()
        text = schedule_to_text(sched)
        assert schedule_to_text(schedule_from_text(text)) == text
        assert schedule_to_text(self._sched()) == text

    def test_text_header_carries_timing(self):
        sched = self._sched()
        text = schedule_to_text(sched)
        assert text.splitlines()[0] == _HEADER
        assert schedule_from_text(text).timing == sched.timing

    def test_json_matches_text_content(self):
        sched = self._sched()
        doc = json.loads(schedule_to_json(sched))
        assert len(doc["events"]) == len(sched.events)
        assert doc["timing"] == asdict(sched.timing)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "no header\n",
            "# timing master_rate=oops\n",
            "# timing master_rate=666666666.6666666\nmaster_drive 0.0\n",
            *(pytest.param(h, id=f"missing-{name}") for name, h in _headers("drop")),
            *(pytest.param(h, id=f"duplicate-{name}") for name, h in _headers("repeat")),
            pytest.param(_HEADER + " slave_rate=2000000000.0\n", id="unknown-slave_rate"),
            pytest.param(_OLD_HEADER, id="old-seven-field-header"),
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ScheduleParseError):
            schedule_from_text(text)

    def test_unknown_channel_rejected(self):
        sched = self._sched()
        lines = schedule_to_text(sched).splitlines()
        lines[1] = "mystery " + lines[1].split(" ", 1)[1]
        with pytest.raises(ScheduleParseError):
            schedule_from_text("\n".join(lines))

    @pytest.mark.parametrize(
        "text,lineno",
        [
            (_HEADER + "\n\n\nmaster_drive 0.0 1.4e-09 1.0\n\nslave_drive 0.0 3e-10\n", 6),
            ("\n \n" + _HEADER + "\nslave_drive 0.0 3e-10 x\n", 4),
            (_HEADER + "\r\n\r\nmystery 0.0 3e-10 1.0\r\n", 3),
            # Eight tokens that pair up into two events, over lines of five and three.
            (_HEADER + "\nmaster_drive 0.0 1.4e-09 1.0 slave_drive\n0.0 3e-10 1.0\n", 2),
        ],
        ids=["blank-lines-in-body", "blank-lines-before-header", "crlf", "fields-shifted"],
    )
    def test_errors_name_the_physical_line(self, text, lineno):
        with pytest.raises(ScheduleParseError, match=f"^line {lineno}:"):
            schedule_from_text(text)

    # Spellings that float reads and np.loadtxt may not: the line-by-line
    # reader must return the schedule the ASCII text gives.
    @pytest.mark.parametrize(
        "ascii,spelt",
        [("1.4e-09 1.0", "1.4e-0_9 1.0"), ("1.4e-09 1.0", "1.4e-09 1_0.0_0e-1"),
         ("1.4e-09 1.0", "\uff11.4e-09 1.0"), ("1.4e-09 1.0", "1.4e-09 \u0661.0"),
         ("master_drive 0.0", "master_drive\xa00.0"),
         ("master_drive 0.0", "master_drive\u30000.0")],
        ids=["underscore-exponent", "underscores", "fullwidth-one", "arabic-one", "nbsp",
             "ideographic-space"],
    )
    def test_spellings_float_reads_give_the_ascii_schedule(self, ascii, spelt):
        text = schedule_to_text(self._sched())
        got = schedule_from_text(text.replace(ascii, spelt, 1))
        assert isinstance(got, WaveformSchedule)
        assert got == schedule_from_text(text)
        assert schedule_to_text(got) == text

    # The fast reader keeps the first 20 characters of a name, and numpy drops
    # a string's trailing NULs.
    @pytest.mark.parametrize("name", ["master_perturbation_x", "slave_drivex", "master_drive\x00",
                                      "slave_drive\x00\x00", "master_perturbation" + "_" * 4])
    def test_near_miss_channel_names_rejected(self, name):
        lines = schedule_to_text(self._sched()).splitlines()
        lines[3] = name + " " + lines[3].split(" ", 1)[1]
        message = f"^line 4: unknown channel {re.escape(repr(name))}$"
        with pytest.raises(ScheduleParseError, match=message):
            schedule_from_text("\n".join(lines))

    # A chunk of text with no event must not make np.loadtxt warn that it
    # read no data.
    @pytest.mark.parametrize(
        "body,events",
        [("", 0), ("\n", 0), ("\n\n \n\t\n\xa0\n", 0), ("\n" * 5000, 0),
         ("\n" * 4097 + "master_drive 0.0 1.4e-09 1.0\n", 1), ("\n" * 200_000, 0),
         (" \n" * 70_000 + "master_drive 0.0 1.4e-09 1.0\n", 1)],
        ids=["header-only", "one-blank-line", "blank-lines", "blank-blocks",
             "blank-block-then-event", "blank-chunks", "blank-chunk-then-event"],
    )
    def test_header_and_blank_lines_parse_without_warning(self, body, events):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = schedule_from_text(_HEADER + body)
        assert sched.timing == TimingParams()
        assert len(sched.events) == events

    def test_starts_whose_difference_overflows_parse_without_warning(self):
        sched = schedule_from_text(
            _HEADER + "\nslave_drive 1e308 3e-10 1.0\nslave_drive -1e308 3e-10 1.0\n")
        assert sched.events.start.tolist() == [-1e308, 1e308]

    def test_header_after_a_blank_chunk(self):
        text = schedule_to_text(self._sched())
        assert schedule_from_text("\n" * 70_000 + text) == schedule_from_text(text)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_long_text_reads_as_the_line_parser_reads_it(self, newline):
        rng = random.Random(2000)
        lines = schedule_to_text(_compiled(
            [parse_symbol_token(rng.choice(TOKENS)) for _ in range(2000)])).splitlines()
        assert len(newline.join(lines)) > 4 * encoding._CHUNK
        assert schedule_from_text(newline.join(lines)) == _parse_by_lines(newline.join(lines))
        lines[9000] = "mystery" + lines[9000][len(CH_SLAVE):]
        with pytest.raises(ScheduleParseError, match="^line 9001: unknown channel 'mystery'$"):
            schedule_from_text(newline.join(lines))

    # The largest allocation of a read is the columns, about 25 bytes per
    # event line of about 42 characters; a list of all the text's lines
    # would alone take 2.3 times the text's length.
    def test_peak_memory_of_a_read_stays_below_twice_the_text(self):
        rng = random.Random(20_000)
        stream = [parse_symbol_token(rng.choice(TOKENS)) for _ in range(20_000)]
        text = schedule_to_text(_compiled(stream))
        tracemalloc.start()
        try:
            sched = schedule_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sched.events) == 6 * len(stream)
        assert peak < 2 * len(text)

    # SHA-256 of the text and JSON forms of a seeded 4,096-symbol stream. Any
    # change to event times, order or number formatting moves these.
    @pytest.mark.parametrize(
        "timing,text_digest,json_digest",
        [
            (TimingParams(),
             "21edcf4c7e62810a26e329aa947bd6420dc8150a5a8ace5b6a0db8a90853fa24",
             "d7bca40de084319ba10f6f92442e382fa12ccb144d018937b55fe2dd26be42f9"),
            (_SLOW_TIMING,
             "98aef96628245e82af587ee75d0d265ccbf86230673b2fe81c935bb2f592f050",
             "81d8f159bd649c570bbbe9dd35962ea2c2b5590ff2095f7f8348d30fcc3381e6"),
        ],
        ids=["default", "1Hz"],
    )
    def test_golden_schedule_bytes(self, timing, text_digest, json_digest):
        rng = random.Random(4096)
        stream = [parse_symbol_token(rng.choice(TOKENS)) for _ in range(4096)]
        sched = compile_schedule(stream, timing, CalibrationCurve(), TABLE)
        assert hashlib.sha256(schedule_to_text(sched).encode()).hexdigest() == text_digest
        assert hashlib.sha256(schedule_to_json(sched).encode()).hexdigest() == json_digest


class TestSymbolStream:
    def test_token_round_trip(self):
        for token in ("Z0s", "Z1s", "Y0s", "Y1s", "Z0d", "Z1v"):
            assert symbol_token(parse_symbol_token(token)) == token

    @pytest.mark.parametrize("bad", ["Z0", "X0s", "Z2s", "Z0q", "z0s", "Z0ss"])
    def test_bad_tokens(self, bad):
        with pytest.raises(InvalidSymbolError):
            parse_symbol_token(bad)

    def test_stream_with_comments(self):
        text = "Z0s Y1s  # trailing comment\n# full-line comment\nZ0d\n"
        stream = parse_symbol_stream(text)
        assert [symbol_token(s) for s in stream] == ["Z0s", "Y1s", "Z0d"]

    def test_stream_error_reports_line(self):
        with pytest.raises(InvalidSymbolError, match="line 2"):
            parse_symbol_stream("Z0s\nY0d\n")

    def test_empty_stream_parses_to_nothing(self):
        assert parse_symbol_stream("# nothing here\n") == []


def _compiled(stream):
    return compile_schedule(stream, TimingParams(), CalibrationCurve(), TABLE)


def _json_by_dumps(sched):
    """The document written with the json module alone."""
    doc = {
        "timing": asdict(sched.timing),
        "events": [
            {"channel": ev.channel, "start_s": ev.start, "duration_s": ev.duration,
             "level_v": ev.level}
            for ev in sorted(_rows(sched.events), key=lambda e: (e.start, e.channel))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _text_by_rows(sched):
    """The text form written one event at a time."""
    header = "# timing " + " ".join(f"{k}={v!r}" for k, v in asdict(sched.timing).items())
    lines = [f"{ev.channel} {ev.start!r} {ev.duration!r} {ev.level!r}" for ev in _rows(sched.events)]
    return "\n".join([header] + lines) + "\n"


def _compile_by_loop(stream, timing, cal):
    """Reference compiler: the six events of each symbol built one at a time."""
    events = []
    delay = timing.amzi_delay
    pert_offset = (delay - timing.perturbation_width) / 2.0
    for i, sym in enumerate(stream):
        pair = encode_symbol(sym, TABLE)
        t0 = i * timing.symbol_period
        events.append(Row(CH_MASTER, t0, timing.master_on_time, 1.0))
        for k in range(3):
            events.append(Row(CH_SLAVE, t0 + k * delay, timing.slave_on_time, 1.0))
        for k, phi in enumerate((pair.phi12, pair.phi23)):
            events.append(Row(CH_PERT, t0 + k * delay + pert_offset,
                              timing.perturbation_width, voltage_for_phase(phi, cal)))
    return _schedule(timing, events)


def _slack(t):
    """Rounding allowance at the time t: a few ulps of t, at least 1 fs."""
    return max(1e-15, 4 * math.ulp(t)) if t < math.inf else 1e-15


def _decompile_by_scan(events, cal):
    """Quadratic reference decompiler: every check is a scan of all events."""
    for ev in events:
        if ev.channel not in (CH_MASTER, CH_PERT, CH_SLAVE):
            raise ScheduleParseError("unknown channel")
        if not all(math.isfinite(x) for x in (ev.start, ev.duration, ev.level)):
            raise ScheduleParseError("non-finite field")
        if ev.duration <= 0.0:
            raise ScheduleParseError("non-positive duration")
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.channel == b.channel and any(
                x.start <= y.start < x.start + x.duration - _slack(x.start + x.duration)
                for x, y in ((a, b), (b, a))
            ):
                raise ScheduleParseError("overlap")

    def on(channel):
        return sorted((ev for ev in events if ev.channel == channel), key=lambda e: e.start)

    def inside(ev, m):
        end = m.start + m.duration
        return m.start <= ev.start and ev.start + ev.duration <= end + _slack(end)

    masters, perts, slaves = on(CH_MASTER), on(CH_PERT), on(CH_SLAVE)
    if not masters:
        raise ScheduleParseError("no masters")
    pairs = []
    for m in masters:
        window = [ev for ev in perts if inside(ev, m)]
        if len(window) != 2 or len([ev for ev in slaves if inside(ev, m)]) != 3:
            raise ScheduleParseError("bad window")
        pairs.append(PhasePair(phase_for_voltage(window[0].level, cal),
                               phase_for_voltage(window[1].level, cal)))
    for ev in perts + slaves:
        if not any(inside(ev, m) for m in masters):
            raise ScheduleParseError("stray event")
    return pairs


def _mutate(events, data):
    """Apply one random edit to a list of schedule events."""
    kind = data.draw(st.sampled_from(
        ("drop", "duplicate", "shift", "stretch", "stray", "rechannel", "relevel", "non-finite")
    ))
    if kind == "stray" or not events:
        events.append(Row(
            data.draw(st.sampled_from((CH_PERT, CH_SLAVE, CH_MASTER))),
            data.draw(st.integers(-40, 200)) * 50e-12,
            data.draw(st.sampled_from((150e-12, 300e-12, 1.4e-9))),
            0.4,
        ))
        return
    i = data.draw(st.integers(0, len(events) - 1))
    ev = events[i]
    if kind == "drop":
        del events[i]
    elif kind == "duplicate":
        events.append(ev)
    elif kind == "shift":
        events[i] = replace(ev, start=ev.start + data.draw(st.integers(-60, 60)) * 10e-12)
    elif kind == "stretch":
        factor = data.draw(st.sampled_from((-1.0, 0.0, 0.5, 2.0, 4.0)))
        events[i] = replace(ev, duration=ev.duration * factor)
    elif kind == "relevel":
        events[i] = replace(ev, level=data.draw(st.floats(-2.0, 2.0, allow_nan=False)))
    elif kind == "rechannel":
        channel = data.draw(st.sampled_from((CH_MASTER, CH_PERT, CH_SLAVE, "mystery")))
        events[i] = replace(ev, channel=channel)
    else:
        name = data.draw(st.sampled_from(("start", "duration", "level")))
        bad = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        events[i] = replace(ev, **{name: bad})


class TestDecompileAgainstScan:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_pairs_or_same_error(self, data):
        stream = data.draw(streams(6))
        events = _rows(_compiled(stream).events)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(events, data)
        t, cal = TimingParams(), CalibrationCurve()
        order = sorted(events, key=lambda e: (e.start, e.channel))
        try:
            sched = _schedule(t, events)
        except ScheduleParseError:
            sched = None  # a field fault, which the scan must find too
        else:
            assert _rows(sched.events) == order
        try:
            want = _decompile_by_scan(order, cal)
        except ScheduleParseError:
            with pytest.raises(ScheduleParseError):
                decompile_schedule(_schedule(t, events), t, cal)
        else:
            assert decompile_schedule(sched, t, cal) == want


def _parse_by_lines(text):
    """Reference text parser: one line at a time, numbering physical lines."""
    lines = text.splitlines()
    first = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first is None or not lines[first].startswith("# timing "):
        raise ScheduleParseError("missing timing header line")
    kv = {}
    for tok in lines[first][len("# timing "):].split():
        try:
            name, value = tok.split("=", 1)
            number = float(value)
        except ValueError as exc:
            raise ScheduleParseError(f"bad timing token {tok!r}") from exc
        if name not in asdict(TimingParams()) or name in kv:
            what = "duplicate" if name in kv else "unknown"
            raise ScheduleParseError(f"{what} timing field {name!r}")
        kv[name] = number
    try:
        timing = TimingParams(**{name: kv[name] for name in asdict(TimingParams())})
    except (KeyError, ConfigurationError) as exc:
        raise ScheduleParseError(f"invalid timing header: {exc}") from exc
    events = []
    for lineno, ln in enumerate(lines[first + 1:], start=first + 2):
        parts = ln.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ScheduleParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            start, duration, level = (float(x) for x in parts[1:])
        except ValueError as exc:
            raise ScheduleParseError(f"line {lineno}: bad number") from exc
        if parts[0] not in (CH_MASTER, CH_PERT, CH_SLAVE):
            raise ScheduleParseError(f"line {lineno}: unknown channel {parts[0]!r}")
        if not all(math.isfinite(x) for x in (start, duration, level)):
            raise ScheduleParseError(
                f"line {lineno}: start, duration and level must be finite, "
                f"got {start!r} {duration!r} {level!r}"
            )
        if duration <= 0.0:
            raise ScheduleParseError(f"line {lineno}: duration must be > 0, got {duration!r}")
        events.append(Row(parts[0], start, duration, level))
    return _schedule(timing, events)


_FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))


def _edit_text(lines, data):
    """Apply one random edit to the lines of a schedule text, in place."""
    kind = data.draw(st.sampled_from(
        ("drop-field", "add-field", "bad-number", "non-finite", "channel", "blank", "tabs",
         "leading-space", "duplicate", "spelling")
    ))
    i = data.draw(st.integers(0, len(lines) - 1))
    parts = lines[i].split(" ")
    if kind == "drop-field":
        del parts[data.draw(st.integers(0, len(parts) - 1))]
    elif kind == "add-field":
        parts.insert(data.draw(st.integers(0, len(parts))),
                     data.draw(st.sampled_from(("1.0", "-2e-10", CH_SLAVE, "x"))))
    elif kind in ("bad-number", "non-finite"):
        bad = ("1..0", "0x1p3", "", "1e", "--1") if kind == "bad-number" else (
            "nan", "inf", "-inf", "Infinity", "NaN")
        parts[data.draw(st.integers(1, 3)) % len(parts)] = data.draw(st.sampled_from(bad))
    elif kind == "channel":
        parts[0] = data.draw(st.sampled_from(("mystery", "Master_drive", "#", CH_PERT)))
    elif kind == "blank":
        lines.insert(i, data.draw(st.sampled_from(("", " ", "\t", "  \t "))))
        return
    elif kind == "tabs":
        lines[i] = lines[i].replace(" ", "\t")
        return
    elif kind == "leading-space":
        lines[i] = data.draw(st.sampled_from((" ", "\t", "   "))) + lines[i]
        return
    elif kind == "duplicate":
        lines.insert(i, lines[i])
        return
    else:  # spellings that float or str.splitlines reads and np.loadtxt may not
        how = data.draw(st.sampled_from(("number", "digits", "space", "break", "name")))
        k = data.draw(st.integers(1, 3)) % len(parts)
        if how == "number":
            parts[k] = data.draw(st.sampled_from(("1_0", "\uff11", "\u0663")))
        elif how == "digits":
            parts[k] = parts[k].translate(data.draw(st.sampled_from((_FULLWIDTH, _ARABIC_INDIC))))
        elif how == "space":
            lines[i] = data.draw(st.sampled_from(("\xa0", "\u3000"))).join(parts)
            return
        elif how == "break":
            j = data.draw(st.integers(0, len(lines[i])))
            brk = data.draw(st.sampled_from(("\x0c", "\x1c", "\x85", "\r")))
            lines[i] = lines[i][:j] + brk + lines[i][j:]
            return
        else:
            parts[0] = data.draw(st.sampled_from(("master_perturbation_x", "slave_drivex",
                                                  CH_MASTER + "\x00")))
    lines[i] = " ".join(parts)


class TestParseAgainstLines:
    # Chunks of a few characters put chunk boundaries inside short texts.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from((1, 50, 200, encoding._CHUNK)))
    def test_same_schedule_or_same_error(self, data, chunk):
        lines = schedule_to_text(_compiled(data.draw(streams(4)))).splitlines()
        for _ in range(data.draw(st.integers(0, 3))):
            _edit_text(lines, data)
        text = data.draw(st.sampled_from(("\n", "\r\n"))).join(lines)
        try:
            want = _parse_by_lines(text)
        except ScheduleParseError as exc:
            with mock.patch.object(encoding, "_CHUNK", chunk), \
                    pytest.raises(ScheduleParseError) as got:
                schedule_from_text(text)
            assert str(got.value) == str(exc)
        else:
            with mock.patch.object(encoding, "_CHUNK", chunk):
                got = schedule_from_text(text)
            assert got == want
            assert schedule_to_text(got) == schedule_to_text(want)


def _codes_by_broadcast(lines):
    """Channel codes of event lines by one (n, 3) comparison of the names
    np.loadtxt reads with the three channels; 3 where none matches."""
    named = np.loadtxt(lines, _ROW, comments=None, ndmin=1)["channel"][:, None] == np.array(
        list(_CHANNEL_CODES))
    return np.where(named.any(axis=1), named.argmax(axis=1), 3).astype(np.int8)


@st.composite
def channel_names(draw):
    """A channel, a prefix or suffix of one, one padded with NULs, or a name
    of 19-21 characters (np.loadtxt keeps the first 20)."""
    name = draw(st.sampled_from(list(_CHANNEL_CODES)))
    kind = draw(st.sampled_from(("channel", "prefix", "suffix", "nul", "long")))
    if kind == "prefix":
        return name[:draw(st.integers(1, len(name)))] + draw(st.sampled_from(("", "x", "_")))
    if kind == "suffix":
        return draw(st.sampled_from(("", "x", "_"))) + name[draw(st.integers(0, len(name) - 1)):]
    if kind == "nul":
        before, after = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        return "\0" * before + name + "\0" * (after or not before)
    if kind == "long":
        return (name + draw(st.text("_x\0", min_size=21, max_size=21)))[:draw(st.integers(19, 21))]
    return name


class TestChannelCodes:
    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(channel_names(), min_size=1, max_size=8))
    def test_read_block_matches_the_broadcast_comparison(self, names):
        lines = [f"{name} {k}e-09 3e-10 1.0" for k, name in enumerate(names)]
        code, start, duration, level = _read_block(lines)
        assert code.dtype == np.int8
        assert code.tolist() == _codes_by_broadcast(lines).tolist()
        assert start.tolist() == [float(f"{k}e-09") for k in range(len(names))]
        assert duration.tolist() == [3e-10] * len(names) and level.tolist() == [1.0] * len(names)


class TestScheduleProperties:
    @settings(max_examples=50, deadline=None)
    @given(timing=timings(), stream=streams(200))
    @example(timing=TimingParams(), stream=_LONG_STREAM)
    # The three slave pulses fill the gate exactly (2 * amzi_delay +
    # slave_on_time == master_on_time), so the last one ends on the gate's
    # end give or take float rounding.
    @example(timing=TimingParams(master_on_time=1.3e-9), stream=_LONG_STREAM)
    # At 1 Hz the rounding of event times outgrows any fixed slack: with a
    # 1 fs slack the slave pulse at t = 16.67 s fell outside its window.
    @example(timing=_SLOW_TIMING, stream=_LONG_STREAM)
    def test_compile_text_parse_decompile_round_trip(self, timing, stream):
        cal = CalibrationCurve()
        text = schedule_to_text(compile_schedule(stream, timing, cal, TABLE))
        back = schedule_from_text(text)
        assert schedule_to_text(back) == text
        pairs = decompile_schedule(back, timing, cal)
        assert len(pairs) == len(stream)
        for sym, got in zip(stream, pairs):
            want = encode_symbol(sym, TABLE)
            for a, b in ((got.phi12, want.phi12), (got.phi23, want.phi23)):
                gap = (float(a) - float(b)) % (2.0 * math.pi)
                assert min(gap, 2.0 * math.pi - gap) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(timing=timings(), stream=streams(200))
    @example(timing=_SLOW_TIMING, stream=_LONG_STREAM)
    def test_compile_and_text_match_the_loops(self, timing, stream):
        cal = CalibrationCurve()
        sched = compile_schedule(stream, timing, cal, TABLE)
        want = _compile_by_loop(stream, timing, cal)
        assert sched == want
        assert schedule_to_text(sched) == _text_by_rows(want)

    @settings(max_examples=25, deadline=None)
    @given(stream=streams(200))
    def test_json_is_byte_identical_to_json_dumps(self, stream):
        sched = _compiled(stream)
        assert schedule_to_json(sched) == _json_by_dumps(sched)

    def test_signed_zero_levels_keep_their_sign(self):
        events = tuple(Row(CH_PERT, k * 1e-9, 150e-12, level)
                       for k, level in enumerate((0.0, -0.0, 0.0, -0.0)))
        sched = _schedule(TimingParams(), events)
        assert [ln.split()[3] for ln in schedule_to_text(sched).splitlines()[1:]] == [
            "0.0", "-0.0", "0.0", "-0.0"]
        assert schedule_to_json(sched) == _json_by_dumps(sched)

    def test_json_without_events(self):
        sched = _schedule(TimingParams(), [])
        assert schedule_to_json(sched) == _json_by_dumps(sched)
        assert json.loads(schedule_to_json(sched))["events"] == []

    @pytest.mark.parametrize("level", [1, -0.0, 1e300])
    def test_json_special_levels(self, level):
        events = (
            Row(CH_PERT, 1e-9, 150e-12, level),
            Row(CH_SLAVE, 0.0, 3e-10, 1.0),
        )
        sched = _schedule(TimingParams(), events)
        assert schedule_to_json(sched) == _json_by_dumps(sched)
        assert schedule_to_text(sched) == _text_by_rows(sched)


def _events_of_one_level_each(n):
    """n perturbations 1 ns apart, each with a level of its own."""
    return [Row(CH_PERT, k * 1e-9, 150e-12, (k - n / 2) * 1e-3) for k in range(n)]


class TestWriterEdges:
    """The two-piece writers against the event-by-event ones at the edges of
    their grouping: no event, one event, one group, and one group per event
    (which a separator table over all pairs of groups would make quadratic)."""

    @pytest.mark.parametrize(
        "events",
        [[], [Row(CH_MASTER, 0.0, 1.4e-09, 1.0)],
         [Row(CH_SLAVE, k * 5e-10, 3e-10, 1.0) for k in range(7)],
         _events_of_one_level_each(5000)],
        ids=["no-event", "one-event", "one-group", "5000-groups"],
    )
    def test_writers_match_the_event_by_event_ones(self, events):
        sched = _schedule(TimingParams(), events)
        assert schedule_to_text(sched) == _text_by_rows(sched)
        assert schedule_to_json(sched) == _json_by_dumps(sched)
        assert schedule_to_text(sched) == _text_by_rows(sched)  # again, from the same schedule

    def test_one_separator_per_distinct_adjacent_pair(self):
        sched = _schedule(TimingParams(), _events_of_one_level_each(5000))
        schedule_to_text(sched)
        reprs, first, _, left, right, pair, _ = sched.events._text_parts
        assert len(reprs) == len(first) == len(pair) == 5000
        assert len(left) == len(right) == 4999


class TestScheduleValidation:
    def _text(self):
        return schedule_to_text(_compiled([EncodingSymbol("Z", 0), EncodingSymbol("Y", 1)]))

    @pytest.mark.parametrize(
        "line",
        [
            "master_perturbation 5e-06 1.5e-10 0.3",
            "slave_drive 5e-06 3e-10 1.0",
            "slave_drive -1e-09 3e-10 1.0",
        ],
    )
    def test_event_outside_every_window_rejected(self, line):
        t = TimingParams()
        sched = schedule_from_text(self._text() + line + "\n")
        with pytest.raises(ScheduleParseError, match="outside every master window"):
            decompile_schedule(sched, t, CalibrationCurve())

    def test_timing_must_match_the_schedule(self):
        sched = _compiled([EncodingSymbol("Z", 0)])
        other = TimingParams(master_rate=5e8, master_on_time=1.8e-9)
        with pytest.raises(ScheduleParseError, match="compiled for"):
            decompile_schedule(sched, other, CalibrationCurve())

    def test_window_needs_three_slave_pulses(self):
        t = TimingParams()
        lines = self._text().splitlines()
        first_slave = next(i for i, ln in enumerate(lines) if ln.startswith(CH_SLAVE))
        del lines[first_slave]
        sched = schedule_from_text("\n".join(lines))
        with pytest.raises(ScheduleParseError, match="3 slave-drive events"):
            decompile_schedule(sched, t, CalibrationCurve())

    @pytest.mark.parametrize(
        "line",
        [
            "slave_drive nan 3e-10 1.0",
            "slave_drive 0.0 inf 1.0",
            "master_perturbation 1e-10 1.5e-10 -inf",
            "slave_drive 5e-10 0.0 1.0",
            "slave_drive 5e-10 -3e-10 1.0",
        ],
    )
    def test_bad_event_fields_rejected_with_line_number(self, line):
        text = self._text()
        lineno = len(text.splitlines()) + 1
        with pytest.raises(ScheduleParseError, match=f"line {lineno}:"):
            schedule_from_text(text + line + "\n")

    @pytest.mark.parametrize(
        "event",
        [
            Row(CH_SLAVE, math.nan, 3e-10, 1.0),
            Row(CH_PERT, 1e-10, 0.0, 0.4),
            Row(CH_PERT, 1e-10, 1.5e-10, math.inf),
            Row("mystery", 1e-10, 1.5e-10, 0.4),
        ],
    )
    def test_bad_hand_built_event_rejected(self, event):
        t = TimingParams()
        events = _rows(_compiled([EncodingSymbol("Z", 0)]).events) + [event]
        with pytest.raises(ScheduleParseError, match="^event at t="):
            decompile_schedule(_schedule(t, events), t, CalibrationCurve())

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda ev: [], "schedule has no master drive events"),
            (lambda ev: ev + [replace(ev[1], level=math.nan)],
             "event at t=0.0: start, duration and level must be finite, got 0.0 3e-10 nan"),
            (lambda ev: ev[:1] + ev[3:],
             "expected 2 perturbation events in master window at t=0.0, found 1"),
            (lambda ev: ev + [replace(ev[1], start=-1e-9)],
             "slave_drive event at t=-1e-09 lies outside every master window"),
            (lambda ev: ev[:-1] + [replace(ev[-1], duration=1e-9)],
             "slave_drive event at t=2.5e-09 lies outside every master window"),
            (lambda ev: ev + [Row("mystery", 1e-10, 1.5e-10, 0.4)],
             "event at t=1e-10: unknown channel 3"),
            (lambda ev: ev[:3] + [replace(ev[3], start=1e-10)] + ev[4:],
             "overlapping events on channel slave_drive at t=1e-10"),
            # A finite level whose phase overflows at v_pi = 0.8 V.
            (lambda ev: ev[:2] + [replace(ev[2], level=1e308)] + ev[3:],
             "voltage 1e+308 at v_pi=0.8 gives no finite phase"),
        ],
        ids=["empty", "nan-duplicate", "both-counts", "before-first", "stretched",
             "unknown-channel", "overlap", "level-without-finite-phase"],
    )
    def test_first_fault_message(self, edit, message):
        # Events of [Z0s, Y1s] in order: master, slave, perturbation, slave,
        # perturbation, slave, then the same for the second symbol.
        t = TimingParams()
        events = edit(_rows(_compiled([EncodingSymbol("Z", 0), EncodingSymbol("Y", 1)]).events))
        with pytest.raises(ScheduleParseError) as info:
            decompile_schedule(_schedule(t, events), t, CalibrationCurve())
        assert str(info.value) == message

    def test_field_fault_is_reported_before_an_earlier_overlap(self):
        # The schedule checks every event's fields when it is built, so a
        # field fault is named before any fault decompile_schedule finds.
        t = TimingParams()
        ev = _rows(_compiled([EncodingSymbol("Z", 0), EncodingSymbol("Y", 1)]).events)
        events = ev[:3] + [replace(ev[3], start=1e-10)] + ev[4:] + [replace(ev[-1], level=math.nan)]
        with pytest.raises(ScheduleParseError, match="^event at t=2.5e-09: start, duration"):
            decompile_schedule(_schedule(t, events), t, CalibrationCurve())

    @pytest.mark.parametrize("code", [-1, 3, 127])
    def test_channel_code_outside_the_three_rejected(self, code):
        cols = EventColumns(np.array([0, code], dtype=np.int8), np.array([0.0, 1e-10]),
                            np.array([1.4e-9, 1.5e-10]), np.array([1.0, 0.4]))
        with pytest.raises(ScheduleParseError, match=f"^event at t=1e-10: unknown channel {code}$"):
            WaveformSchedule(TimingParams(), cols)
