"""Logical symbols, phase encoding, drive-voltage calibration and schedules.

Maps BB84/decoy symbols to the phase pair (phi12, phi23) applied between the
three slave pulses, converts target intensity fractions to phases, translates
phases into master-laser perturbation voltages through the linear V-pi
calibration, and compiles symbol streams into timed electrical waveform
schedules (master gate, two perturbations, three slave drive pulses per
symbol).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from .errors import ConfigurationError, DmqkdError, InvalidSymbolError, ScheduleParseError
from .photonics import Phase

SIGNAL = "signal"
DECOY = "decoy"
VACUUM = "vacuum"
INTENSITY_CLASSES = (SIGNAL, DECOY, VACUUM)

# Channels of the electrical schedule.
CH_MASTER = "master_drive"
CH_PERT = "master_perturbation"
CH_SLAVE = "slave_drive"
_CHANNELS = (CH_MASTER, CH_PERT, CH_SLAVE)

# Nominal gate level for drive events; only perturbation levels carry encoding.
DRIVE_LEVEL_V = 1.0


# Slack (s) for comparing an event time with the time t: a compiled event may
# overrun its neighbour's start or its master window's end t by float rounding,
# e.g. when the three slave pulses fill the master gate exactly. Rounding grows
# with t, so the slack is four ulps of t and at least 1 fs (also for t = inf).
def _time_slack(t: float) -> float:
    return max(1e-15, 4 * math.ulp(t)) if t < math.inf else 1e-15


@dataclass(frozen=True)
class EncodingSymbol:
    """A logical symbol: basis Z or Y, bit 0/1, and an intensity class.

    Decoy and vacuum classes exist only in the Z basis; the Y basis carries
    signal states exclusively.
    """

    basis: str
    bit: int
    intensity_class: str = SIGNAL

    def __post_init__(self) -> None:
        if self.basis not in ("Z", "Y"):
            raise InvalidSymbolError(f"basis must be 'Z' or 'Y', got {self.basis!r}")
        if self.bit not in (0, 1):
            raise InvalidSymbolError(f"bit must be 0 or 1, got {self.bit!r}")
        if self.intensity_class not in INTENSITY_CLASSES:
            raise InvalidSymbolError(f"unknown intensity class {self.intensity_class!r}")
        if self.basis == "Y" and self.intensity_class != SIGNAL:
            raise InvalidSymbolError(
                "decoy/vacuum states are prepared in the Z basis only"
            )


@dataclass(frozen=True)
class PhasePair:
    """The (phi12, phi23) realisation of one symbol."""

    phi12: Phase
    phi23: Phase


@dataclass(frozen=True)
class CalibrationCurve:
    """Linear phase-vs-voltage calibration through the origin.

    v_pi is the voltage producing a pi phase shift; the pulse intensity then
    follows a cosine in the applied voltage.
    """

    v_pi: float = 0.8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_pi) and self.v_pi > 0.0):
            raise ConfigurationError(f"v_pi must be > 0, got {self.v_pi!r}")


@dataclass(frozen=True)
class TimingParams:
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


_TIMING_FIELDS = tuple(f.name for f in fields(TimingParams))


@dataclass(frozen=True)
class ScheduleEvent:
    """One timed electrical event: channel, start, duration (s), level (V)."""

    channel: str
    start: float
    duration: float
    level: float


@dataclass(frozen=True)
class WaveformSchedule:
    """A time-sorted list of events realizing a symbol stream.

    Times are absolute offsets in seconds from the first master onset, stored
    at double precision. Events are kept in canonical (start, channel) order,
    sorted once here, so every reader and writer can rely on it.
    """

    timing: TimingParams
    events: tuple[ScheduleEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        events = sorted(self.events, key=lambda ev: (ev.start, ev.channel))
        object.__setattr__(self, "events", tuple(events))


def intensity_to_phase(fraction: float) -> Phase:
    """Phase step yielding an output bin at the given mean-photon-number fraction.

    Inverts |r/A|^2 = cos^2(phi/2): phi = 2*arccos(sqrt(fraction)). Monotone
    decreasing in the fraction; fraction 1 maps to phase 0.
    """
    if not (math.isfinite(fraction) and 0.0 < fraction <= 1.0):
        raise ConfigurationError(
            f"intensity fraction must lie in (0, 1], got {fraction!r}"
        )
    return Phase(2.0 * math.acos(math.sqrt(fraction)))


def voltage_for_phase(phi: float, cal: CalibrationCurve) -> float:
    """Perturbation voltage for a phase step, via the linear V-pi calibration."""
    phi = Phase(phi)
    return (float(phi) / math.pi) * cal.v_pi


def phase_for_voltage(v: float, cal: CalibrationCurve) -> Phase:
    """Inverse of voltage_for_phase."""
    if not math.isfinite(v):
        raise ScheduleParseError(f"voltage must be finite, got {v!r}")
    return Phase((v / cal.v_pi) * math.pi)


def predicted_pulse_amplitude(v: float, cal: CalibrationCurve, a: float = 1.0) -> float:
    """Output-pulse amplitude versus perturbation voltage.

    Composition of the linear voltage-to-phase map with the interference
    cosine: A*|cos(pi*v / (2*v_pi))|, the curve traced in the intensity
    calibration measurement (null at v_pi).
    """
    if not (math.isfinite(v) and v >= 0.0):
        raise ConfigurationError(f"voltage must be >= 0, got {v!r}")
    return a * abs(math.cos(math.pi * v / (2.0 * cal.v_pi)))


_Z_SIGNAL = {0: (Phase(0.0), Phase(math.pi)), 1: (Phase(math.pi), Phase(0.0))}
_Y_SIGNAL = {
    0: (Phase(math.pi / 2.0), Phase(math.pi / 2.0)),
    1: (Phase(3.0 * math.pi / 2.0), Phase(3.0 * math.pi / 2.0)),
}


def encode_symbol(
    sym: EncodingSymbol, decoy_table: Mapping[str, float]
) -> PhasePair:
    """Phase pair realising a logical symbol.

    Z-basis states put all light in one bin (the other suppressed with a pi
    step); Y-basis states split it evenly with relative phase pi/2 or 3*pi/2.
    Decoy/vacuum states dim the occupied bin to the intensity fraction given
    by decoy_table (fractions of the signal intensity).
    """
    if sym.intensity_class not in decoy_table:
        raise ConfigurationError(
            f"decoy table has no entry for class {sym.intensity_class!r}"
        )
    fraction = decoy_table[sym.intensity_class]
    if sym.intensity_class == SIGNAL:
        if fraction != 1.0:
            raise ConfigurationError(
                f"signal intensity fraction must be 1.0, got {fraction!r}"
            )
        if sym.basis == "Y":
            p12, p23 = _Y_SIGNAL[sym.bit]
        else:
            p12, p23 = _Z_SIGNAL[sym.bit]
        return PhasePair(p12, p23)
    # Dim classes keep the timing pattern of the Z signal states: the dim bin
    # keeps its slot, the suppressed bin stays at pi.
    dim = intensity_to_phase(fraction)
    if sym.bit == 0:
        return PhasePair(dim, Phase(math.pi))
    return PhasePair(Phase(math.pi), dim)


def compile_schedule(
    symbols: Sequence[EncodingSymbol],
    timing: TimingParams,
    cal: CalibrationCurve,
    decoy_table: Mapping[str, float],
) -> WaveformSchedule:
    """Compile a symbol stream into a timed waveform schedule.

    Each symbol occupies one master period: a master gate of master_on_time,
    three slave drive pulses one AMZI delay apart, and two perturbation events
    carrying voltage_for_phase(phi12) and voltage_for_phase(phi23). Each
    perturbation is centered in the interval between consecutive slave onsets.
    TimingParams already guarantees that events on one channel never overlap,
    so none is checked here.
    """
    if not symbols:
        raise ConfigurationError("symbol stream is empty")
    events: list[ScheduleEvent] = []
    delay = timing.amzi_delay
    pert_offset = (delay - timing.perturbation_width) / 2.0
    for i, sym in enumerate(symbols):
        pair = encode_symbol(sym, decoy_table)
        t0 = i * timing.symbol_period
        events.append(ScheduleEvent(CH_MASTER, t0, timing.master_on_time, DRIVE_LEVEL_V))
        for k in range(3):
            events.append(
                ScheduleEvent(CH_SLAVE, t0 + k * delay, timing.slave_on_time, DRIVE_LEVEL_V)
            )
        for k, phi in enumerate((pair.phi12, pair.phi23)):
            events.append(
                ScheduleEvent(
                    CH_PERT,
                    t0 + k * delay + pert_offset,
                    timing.perturbation_width,
                    voltage_for_phase(phi, cal),
                )
            )
    return WaveformSchedule(timing=timing, events=tuple(events))


def _event_problem(ev: ScheduleEvent) -> str | None:
    """Why an event cannot appear in a schedule, or None if it can."""
    if ev.channel not in _CHANNELS:
        return f"unknown channel {ev.channel!r}"
    if not (math.isfinite(ev.start) and math.isfinite(ev.duration) and math.isfinite(ev.level)):
        return (
            "start, duration and level must be finite, "
            f"got {ev.start!r} {ev.duration!r} {ev.level!r}"
        )
    if ev.duration <= 0.0:
        return f"duration must be > 0, got {ev.duration!r}"
    return None


def _check_window(master: ScheduleEvent, n_perts: int, n_slaves: int) -> None:
    """Raise unless a master window holds two perturbations and three slave pulses."""
    for want, found, what in ((2, n_perts, "perturbation"), (3, n_slaves, "slave-drive")):
        if found != want:
            raise ScheduleParseError(
                f"expected {want} {what} events in master window at t={master.start}, "
                f"found {found}"
            )


def decompile_schedule(
    sched: WaveformSchedule, timing: TimingParams, cal: CalibrationCurve
) -> list[PhasePair]:
    """Recover the per-symbol phase pairs from a schedule.

    Accepts schedules produced by compile_schedule or hand-written with the
    same conventions: every master window [start, start + duration] holds
    exactly two perturbations and three slave-drive pulses, and no
    perturbation or slave pulse lies outside every master window. Non-finite
    fields, non-positive durations, unknown channels, malformed event counts
    and overlaps raise ScheduleParseError, as does a timing that differs from
    the one the schedule carries.

    One pass over the canonical (start, channel) order: a master opens a
    window, and every other event must end inside the window of the latest
    master. A master sorts before the other channels at the same start, and
    masters do not overlap, so no earlier window can hold the event.
    """
    if timing != sched.timing:
        raise ScheduleParseError(
            f"schedule was compiled for {sched.timing}, not {timing}"
        )
    levels: list[float] = []  # perturbation levels, two per checked window
    earliest_start: dict[str, float] = {}  # per channel: last event's end, less slack
    master: ScheduleEvent | None = None
    window_end = -math.inf  # the latest master's end, plus slack
    n_perts = n_slaves = 0
    for ev in sched.events:
        problem = _event_problem(ev)
        if problem is not None:
            raise ScheduleParseError(f"event at t={ev.start!r}: {problem}")
        end = ev.start + ev.duration
        if ev.start < earliest_start.get(ev.channel, -math.inf):
            raise ScheduleParseError(
                f"overlapping events on channel {ev.channel} at t={ev.start}"
            )
        earliest_start[ev.channel] = end - _time_slack(end)
        if ev.channel == CH_MASTER:
            if master is not None:
                _check_window(master, n_perts, n_slaves)
            master, n_perts, n_slaves = ev, 0, 0
            window_end = end + _time_slack(end)
        elif end > window_end:
            raise ScheduleParseError(
                f"{ev.channel} event at t={ev.start!r} lies outside every master window"
            )
        elif ev.channel == CH_PERT:
            levels.append(ev.level)
            n_perts += 1
        else:
            n_slaves += 1
    if master is None:
        raise ScheduleParseError("schedule has no master drive events")
    _check_window(master, n_perts, n_slaves)
    return [
        PhasePair(phase_for_voltage(v12, cal), phase_for_voltage(v23, cal))
        for v12, v23 in zip(levels[::2], levels[1::2])
    ]


# --- serialization -----------------------------------------------------------

def schedule_to_text(sched: WaveformSchedule) -> str:
    """Line-oriented text form: a one-line timing header, then one event per line.

    Event lines are `channel start_s duration_s level_V`, sorted by start
    time. Floats use repr (shortest round-trip), so output is byte-stable.
    """
    header = "# timing " + " ".join(
        f"{name}={getattr(sched.timing, name)!r}" for name in _TIMING_FIELDS
    )
    lines = [header]
    for ev in sched.events:
        lines.append(f"{ev.channel} {ev.start!r} {ev.duration!r} {ev.level!r}")
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> WaveformSchedule:
    """Parse the text form produced by schedule_to_text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# timing "):
        raise ScheduleParseError("missing timing header line")
    kv: dict[str, float] = {}
    for tok in lines[0][len("# timing "):].split():
        try:
            name, value = tok.split("=", 1)
            number = float(value)
        except ValueError as exc:
            raise ScheduleParseError(f"bad timing token {tok!r}") from exc
        if name not in _TIMING_FIELDS or name in kv:
            what = "duplicate" if name in kv else "unknown"
            raise ScheduleParseError(f"{what} timing field {name!r}")
        kv[name] = number
    try:
        timing = TimingParams(**{name: kv[name] for name in _TIMING_FIELDS})
    except (KeyError, ConfigurationError) as exc:
        raise ScheduleParseError(f"invalid timing header: {exc}") from exc
    events = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 4:
            raise ScheduleParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            start, duration, level = (float(x) for x in parts[1:])
        except ValueError as exc:
            raise ScheduleParseError(f"line {lineno}: bad number") from exc
        ev = ScheduleEvent(parts[0], start, duration, level)
        problem = _event_problem(ev)
        if problem is not None:
            raise ScheduleParseError(f"line {lineno}: {problem}")
        events.append(ev)
    return WaveformSchedule(timing=timing, events=tuple(events))


def _json_number(x: float) -> str:
    """A number as json.dumps writes it: repr, or NaN/Infinity/-Infinity."""
    return repr(x) if type(x) is float and math.isfinite(x) else json.dumps(x)


def schedule_to_json(sched: WaveformSchedule) -> str:
    """JSON form of a schedule (same content as the text form).

    The bytes equal json.dumps(doc, indent=2) + "\n" for the document
    {"timing": {...}, "events": [{"channel", "start_s", "duration_s",
    "level_v"}, ...]}. Only the timing header goes through json; each event is
    written from a fixed template, because json.dumps falls back to its
    pure-Python encoder whenever indent is set.
    """
    head = json.dumps(
        {
            "timing": {name: getattr(sched.timing, name) for name in _TIMING_FIELDS},
            "events": [],
        },
        indent=2,
    )
    if not sched.events:
        return head + "\n"
    names = {ch: json.dumps(ch) for ch in {ev.channel for ev in sched.events}}
    items = [
        f'{{\n      "channel": {names[ev.channel]},'
        f'\n      "start_s": {_json_number(ev.start)},'
        f'\n      "duration_s": {_json_number(ev.duration)},'
        f'\n      "level_v": {_json_number(ev.level)}\n    }}'
        for ev in sched.events
    ]
    # head ends with the empty list and the closing brace: '[]\n}'.
    return head[:-4] + "[\n    " + ",\n    ".join(items) + "\n  ]\n}\n"


# --- symbol-stream mini-language --------------------------------------------

_CLASS_CODES = {"s": SIGNAL, "d": DECOY, "v": VACUUM}


def parse_symbol_token(token: str) -> EncodingSymbol:
    """Parse one `<basis><bit><class>` token, e.g. Z0s, Y1s, Z0d."""
    if len(token) != 3 or token[0] not in "ZY" or token[1] not in "01" \
            or token[2] not in _CLASS_CODES:
        raise InvalidSymbolError(f"bad symbol token {token!r}")
    return EncodingSymbol(token[0], int(token[1]), _CLASS_CODES[token[2]])


def parse_symbol_stream(text: str) -> list[EncodingSymbol]:
    """Parse a whitespace-separated symbol stream, reporting line numbers."""
    symbols: list[EncodingSymbol] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for token in body.split():
            try:
                symbols.append(parse_symbol_token(token))
            except InvalidSymbolError as exc:
                raise InvalidSymbolError(f"line {lineno}: {exc}") from exc
    return symbols


def symbol_token(sym: EncodingSymbol) -> str:
    """Inverse of parse_symbol_token."""
    code = {v: k for k, v in _CLASS_CODES.items()}[sym.intensity_class]
    return f"{sym.basis}{sym.bit}{code}"
