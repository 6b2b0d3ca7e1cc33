"""Logical symbols, phase encoding, drive-voltage calibration and schedules.

Maps BB84/decoy symbols to the phase pair (phi12, phi23) applied between the
three slave pulses, converts target intensity fractions to phases, translates
phases into master-laser perturbation voltages through the linear V-pi
calibration, and compiles symbol streams into timed electrical waveform
schedules (master gate, two perturbations, three slave drive pulses per
symbol). TimingParams and CalibrationCurve are defined in photonics.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidSymbolError, ScheduleParseError
from .photonics import _TIMING_FIELDS, CalibrationCurve, Phase, TimingParams

SIGNAL = "signal"
DECOY = "decoy"
VACUUM = "vacuum"
INTENSITY_CLASSES = (SIGNAL, DECOY, VACUUM)

# Channels of the electrical schedule. Their codes 0, 1, 2 follow the
# alphabetical order of the names, so sorting by (start, code) is sorting by
# (start, channel).
CH_MASTER = "master_drive"
CH_PERT = "master_perturbation"
CH_SLAVE = "slave_drive"
_CHANNELS = (CH_MASTER, CH_PERT, CH_SLAVE)
_CODES = {ch: code for code, ch in enumerate(_CHANNELS)}
# An event line for np.loadtxt. No channel is 20 characters long, so a name cut to 20 matches none.
_ROW = np.dtype([("channel", "U20"), ("start", float), ("duration", float), ("level", float)])
# Characters of schedule text split into lines at a time (plus the rest of a
# line), and the most lines np.loadtxt reads at once.
_CHUNK, _BLOCK = 1 << 16, 4096

# Nominal gate level for drive events; only perturbation levels carry encoding.
DRIVE_LEVEL_V = 1.0


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


class EventColumns:
    """A schedule's events as parallel columns: code indexes _CHANNELS; start,
    duration and level are float64. Two are equal when their columns are equal
    value by value (-0.0 equals 0.0; a schedule holds no NaN)."""

    def __init__(self, code, start, duration, level):
        self.code, self.start, self.duration, self.level = code, start, duration, level
        self._text_parts = None

    def __len__(self) -> int:
        return len(self.start)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return all(map(np.array_equal, (self.code, self.start, self.duration, self.level),
                       (other.code, other.start, other.duration, other.level)))


@dataclass(frozen=True)
class WaveformSchedule:
    """A time-sorted list of valid events realizing a symbol stream.

    Times are absolute offsets in seconds from the first master onset, stored
    at double precision. Building a schedule checks every event: the first
    with a channel code outside the three channels, a non-finite field or a
    duration <= 0 raises ScheduleParseError. Events are kept in canonical
    (start, channel) order, sorted only if an O(n) check finds them out of it.
    The columns it keeps are made read-only, since the writers cache pieces of
    the text made from them.
    """

    timing: TimingParams
    events: EventColumns

    def __post_init__(self) -> None:
        ev = self.events
        ok = (np.isfinite(ev.start) & np.isfinite(ev.duration) & np.isfinite(ev.level)
              & (ev.duration > 0.0) & (ev.code >= 0) & (ev.code < len(_CHANNELS)))
        if not ok.all():
            i = int(ok.argmin())
            code, t, d, lv = (col[i].item() for col in (ev.code, ev.start, ev.duration, ev.level))
            channel = _CHANNELS[code] if 0 <= code < len(_CHANNELS) else code
            raise ScheduleParseError(f"event at t={t!r}: {_event_problem(channel, t, d, lv)}")
        s, c = ev.start, ev.code  # compared, not subtracted: -1e308 - 1e308 overflows
        if not ((s[1:] > s[:-1]) | ((s[1:] == s[:-1]) & (c[1:] >= c[:-1]))).all():
            o = np.lexsort((ev.code, ev.start))
            ev = EventColumns(ev.code[o], ev.start[o], ev.duration[o], ev.level[o])
        for col in (ev.code, ev.start, ev.duration, ev.level):
            col.flags.writeable = False
        object.__setattr__(self, "events", ev)


def intensity_to_phase(fraction: float) -> Phase:
    """Phase step yielding an output bin at the given mean-photon-number fraction.

    Inverts |r/A|^2 = cos^2(phi/2): phi = 2*arccos(sqrt(fraction)). Monotone
    decreasing in the fraction; fraction 1 maps to exactly 0.0 and fraction 0
    (a true vacuum) to exactly pi.
    """
    if not (math.isfinite(fraction) and 0.0 <= fraction <= 1.0):
        raise ConfigurationError(
            f"intensity fraction must lie in [0, 1], got {fraction!r}"
        )
    return Phase(2.0 * math.acos(math.sqrt(fraction)))


def voltage_for_phase(phi: float, cal: CalibrationCurve) -> float:
    """Perturbation voltage for a phase step, via the linear V-pi calibration."""
    phi = Phase(phi)
    return (float(phi) / math.pi) * cal.v_pi


def phase_for_voltage(v: float, cal: CalibrationCurve) -> Phase:
    """Inverse of voltage_for_phase; a voltage whose phase is not finite
    raises ScheduleParseError."""
    phi = (v / cal.v_pi) * math.pi
    if not math.isfinite(phi):
        raise ScheduleParseError(f"voltage {v!r} at v_pi={cal.v_pi!r} gives no finite phase")
    return Phase(phi)


def encode_symbol(
    sym: EncodingSymbol, decoy_table: Mapping[str, float]
) -> PhasePair:
    """Phase pair realising a logical symbol.

    A Z-basis state puts the light of its class, the fraction of the signal
    intensity given by decoy_table, in the bin of its bit, with a step of
    intensity_to_phase(fraction) there and a pi step suppressing the other
    bin; the signal (fraction 1.0) steps by 0. Y-basis states split the
    signal evenly with relative phase pi/2 or 3*pi/2.
    """
    if sym.intensity_class not in decoy_table:
        raise ConfigurationError(
            f"decoy table has no entry for class {sym.intensity_class!r}"
        )
    fraction = decoy_table[sym.intensity_class]
    if sym.intensity_class == SIGNAL and fraction != 1.0:
        raise ConfigurationError(f"signal intensity fraction must be 1.0, got {fraction!r}")
    if sym.basis == "Y":
        phi = Phase(math.pi / 2.0 + math.pi * sym.bit)
        return PhasePair(phi, phi)
    dim = intensity_to_phase(fraction)
    return PhasePair(dim, Phase(math.pi)) if sym.bit == 0 else PhasePair(Phase(math.pi), dim)


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
    n = len(symbols)
    kinds: dict = {}  # distinct symbols, each with its first-seen index
    kind = np.fromiter((kinds.setdefault(sym, len(kinds)) for sym in symbols), np.intp, n)
    volts = np.array([[voltage_for_phase(phi, cal) for phi in (pair.phi12, pair.phi23)]
                      for pair in (encode_symbol(sym, decoy_table) for sym in kinds)])
    # A symbol's six events, in their canonical order unless rounding says
    # otherwise: master, slave 0, perturbation 0, slave 1, perturbation 1,
    # slave 2. Each start is (t0 + k*delay) + offset, the float an
    # event-by-event loop computes.
    delay, pert, on = timing.amzi_delay, timing.perturbation_width, timing.slave_on_time
    offset = (delay - pert) / 2.0
    steps, offsets = [0, 0, 0, 1, 1, 2], [0, 0, offset, 0, offset, 0]
    with np.errstate(over="ignore"):
        start = (np.arange(n) * timing.symbol_period)[:, None] + np.array(steps) * delay + offsets
    if not np.isfinite(start[-1]).all():  # the last symbol's starts are the largest
        raise ConfigurationError(f"event times of {n} symbols overflow at this timing")
    level = np.full((n, 6), DRIVE_LEVEL_V)
    level[:, [2, 4]] = volts[kind]
    code = [_CODES[ch] for ch in (CH_MASTER, CH_SLAVE, CH_PERT, CH_SLAVE, CH_PERT, CH_SLAVE)]
    return WaveformSchedule(timing, EventColumns(
        np.tile(np.array(code, dtype=np.int8), n), start.ravel(),
        np.tile([timing.master_on_time, on, pert, on, pert, on], n), level.ravel()))


def _event_problem(channel, start: float, duration: float, level: float) -> str | None:
    """Why an event cannot appear in a schedule, or None if it can."""
    if channel not in _CHANNELS:
        return f"unknown channel {channel!r}"
    if not (math.isfinite(start) and math.isfinite(duration) and math.isfinite(level)):
        return f"start, duration and level must be finite, got {start!r} {duration!r} {level!r}"
    if duration <= 0.0:
        return f"duration must be > 0, got {duration!r}"
    return None


def _perturbation_levels(ev: EventColumns) -> np.ndarray:
    """The perturbation levels in order, or ScheduleParseError naming the first
    event to break a rule of decompile_schedule. Row i of the table `bad` marks
    the rules event i breaks, in the order they are checked (the schedule has
    checked its fields): no overlap on its channel, the counts of the window its
    master closes, lying in the latest master's window. Row n, the end of the
    stream, closes the last window. The first mark in row-major order is the
    fault."""
    code, start, duration, n = ev.code, ev.start, ev.duration, len(ev)
    if not n:
        raise ScheduleParseError("schedule has no master drive events")
    # A compiled event may overrun its neighbour's start or its master window's
    # end by float rounding, e.g. when the three slave pulses fill the master
    # gate exactly. Rounding grows with the end time, so the slack is four ulps
    # of it and at least 1 fs (also for an end that overflows to inf).
    with np.errstate(over="ignore", invalid="ignore"):
        end = start + duration
        slack = np.fmax(1e-15, 4 * np.spacing(np.abs(end)))
    bad = np.zeros((n + 1, 3), dtype=bool)
    for c in range(len(_CHANNELS)):
        i = np.flatnonzero(code == c)
        bad[i[1:], 0] = start[i[1:]] < (end - slack)[i[:-1]]
    masters = np.flatnonzero(code == 0)
    window = np.cumsum(code == 0)  # 1 + the latest master at or before each event
    # Per window: a master, perturbations, slaves; window 0, before any master, is dropped.
    counts = np.bincount(window * 3 + code, minlength=3 * len(masters) + 3)[3:].reshape(-1, 3)
    miscounted = (counts[:, 1] != 2) | (counts[:, 2] != 3)
    bad[np.append(masters, n)[1:][miscounted], 1] = True
    bad[:n, 2] = (code != 0) & (end > np.append(-np.inf, (end + slack)[masters])[window])
    row, rule = divmod(int(bad.argmax()), 3)
    if not bad[row, rule]:
        return ev.level[code == 1]
    if rule == 1:
        w = miscounted.argmax()
        want, what = (2, "perturbation") if counts[w, 1] != 2 else (3, "slave-drive")
        raise ScheduleParseError(
            f"expected {want} {what} events in master window at t={float(start[masters[w]])}, "
            f"found {counts[w, want - 1]}")
    channel, t = _CHANNELS[code[row]], float(start[row])
    if rule == 0:
        raise ScheduleParseError(f"overlapping events on channel {channel} at t={t}")
    raise ScheduleParseError(f"{channel} event at t={t!r} lies outside every master window")


def decompile_schedule(
    sched: WaveformSchedule, timing: TimingParams, cal: CalibrationCurve
) -> list[PhasePair]:
    """Recover the per-symbol phase pairs from a schedule.

    Accepts schedules produced by compile_schedule or hand-written with the
    same conventions: every master window [start, start + duration] holds
    exactly two perturbations and three slave-drive pulses, and no
    perturbation or slave pulse lies outside every master window. Malformed
    event counts and overlaps raise ScheduleParseError, as does a timing that
    differs from the one the schedule carries; the schedule itself holds only
    events with known channels, finite fields and positive durations.

    In canonical (start, channel) order a master opens a window, and every
    other event must end inside the window of the latest master: a master
    sorts first at equal starts, and masters do not overlap, so no earlier
    window can hold the event. The columns are checked with array operations,
    which also name the first bad event of a schedule that fails.
    """
    if timing != sched.timing:
        raise ScheduleParseError(
            f"schedule was compiled for {sched.timing}, not {timing}"
        )
    levels = _perturbation_levels(sched.events)
    keys = levels.view(np.complex128).tolist()  # one (v12, v23) pair per symbol
    pairs = {k: PhasePair(phase_for_voltage(k.real, cal), phase_for_voltage(k.imag, cal))
             for k in set(keys)}
    return list(map(pairs.__getitem__, keys))


# --- serialization -----------------------------------------------------------

def _row_pieces(ev: EventColumns, head, tail) -> list[str]:
    """head(channel), start and tail(channel, duration, level) of every event,
    to be joined: the first event's head, then two pieces per event, its start
    and its tail joined to the next event's head (the last event's tail
    alone). head and tail are made once per group, a distinct (channel,
    duration, level) told apart by its bits so that -0.0 is not 0.0, and each
    joined separator once per distinct pair of adjacent groups. The groups,
    the pairs and the reprs of the starts are made once per schedule, for
    both writers."""
    n = len(ev)
    if not n:
        return []
    if ev._text_parts is None:
        cols = (ev.level.view(np.int64), ev.duration.view(np.int64), ev.code)
        order = np.lexsort(cols)
        new = np.zeros(n, dtype=bool)  # where a group begins, in sorted order
        new[:1] = True
        for col in cols:
            new[1:] |= col[order][1:] != col[order][:-1]
        key = np.empty(n, dtype=np.intp)
        key[order] = np.cumsum(new) - 1
        groups = int(np.count_nonzero(new))
        adjacent = key[:-1] * groups + key[1:]
        # Sorted, deduplicated (keys are >= 0) and searched: np.unique costs 3x more.
        pairs = np.sort(adjacent)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        # Index len(pairs) is the last event's tail.
        pair = [*np.searchsorted(pairs, adjacent).tolist(), len(pairs)]
        ev._text_parts = (list(map(repr, ev.start.tolist())), order[new], int(key[0]),
                          (pairs // groups).tolist(), (pairs % groups).tolist(), pair,
                          int(key[-1]))
    reprs, first, first_key, left, right, pair, last_key = ev._text_parts
    names = [_CHANNELS[c] for c in ev.code[first].tolist()]
    heads = list(map(head, names))
    tails = list(map(tail, names, ev.duration[first].tolist(), ev.level[first].tolist()))
    seps = [tails[a] + heads[b] for a, b in zip(left, right)]
    seps.append(tails[last_key])
    pieces = [heads[first_key]] * (2 * n + 1)
    pieces[1::2] = reprs
    pieces[2::2] = [seps[p] for p in pair]
    return pieces


def schedule_to_text(sched: WaveformSchedule) -> str:
    """Line-oriented text form: a one-line timing header, then one event per line.

    Event lines are `channel start_s duration_s level_V`, sorted by start
    time. Floats use repr (shortest round-trip), so output is byte-stable.
    """
    header = "# timing " + " ".join(
        f"{name}={getattr(sched.timing, name)!r}" for name in _TIMING_FIELDS
    )
    pieces = _row_pieces(sched.events, lambda ch: ch + " ", lambda ch, d, lv: f" {d!r} {lv!r}\n")
    pieces.insert(0, header + "\n")
    return "".join(pieces)


def _parse_lines(lines: list[str], first: int) -> tuple[np.ndarray, ...]:
    """Code, start, duration and level of the event lines lines[first:], read one
    at a time; ScheduleParseError names the first bad line, counted from 1."""
    rows = []
    for lineno, parts in enumerate(map(str.split, lines[first:]), start=first + 1):
        if not parts:
            continue
        if len(parts) != 4:
            raise ScheduleParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            numbers = tuple(map(float, parts[1:]))
        except ValueError as exc:
            raise ScheduleParseError(f"line {lineno}: bad number") from exc
        if problem := _event_problem(parts[0], *numbers):
            raise ScheduleParseError(f"line {lineno}: {problem}")
        rows.append((_CODES[parts[0]], *numbers))
    code, *floats = np.array(rows, float).reshape(-1, 4).T.copy()
    return (code.astype(np.int8), *floats)


def _read_block(lines: list[str]) -> tuple[np.ndarray, ...]:
    """Code, start, duration and level of event lines, read by np.loadtxt and
    copied out of its rows; an unknown name gets a code the schedule refuses."""
    if not any(map(str.strip, lines)):  # loadtxt warns when it reads no rows
        return _parse_lines(lines, 0)
    rows = np.loadtxt(lines, _ROW, comments=None, ndmin=1)
    names = rows["channel"]
    code = np.full(len(rows), len(_CHANNELS), dtype=np.int8)
    for c, name in enumerate(_CHANNELS):
        code[names == name] = c
    return (code, *(rows[f].copy() for f in _ROW.names[1:]))


def _chunks(text: str):
    """The lines of text, in lists of at most _BLOCK lines that together are
    text.splitlines(). The text is split about _CHUNK characters at a time,
    each piece cut just after the first line ending past _CHUNK characters: a
    "\n", or a "\r" that no "\n" follows, so never inside a "\r\n" (the rest
    of a text with no such ending is one piece). The next "\n" and "\r" found
    are kept until a cut passes them, so each character is searched once."""
    pos, n = 0, len(text)
    lf = cr = -1
    while pos < n:
        cut = pos + _CHUNK
        if lf < cut:
            lf = text.find("\n", cut) % (n + 1)  # n where there is none
        if cr < cut:
            cr = text.find("\r", cut) % (n + 1)
        end = cr + 1 if cr + 1 < lf else min(lf + 1, n)
        lines = text[pos:end].splitlines()
        for i in range(0, len(lines), _BLOCK):
            yield lines[i:i + _BLOCK]
        pos = end


def _header_index(lines: list[str]) -> int:
    """Index of the first line that is not blank, or len(lines)."""
    return next((i for i, ln in enumerate(lines) if ln.strip()), len(lines))


def schedule_from_text(text: str) -> WaveformSchedule:
    """Parse the text form produced by schedule_to_text.

    Blank lines are skipped, and the first other line is the timing header.
    The text is split into lines a piece at a time (see _chunks), and each
    piece's event lines are read by np.loadtxt. Where it refuses one (`1_0`, say, which float reads) or they fail the
    schedule's checks, the whole text is read again line by line.
    """
    chunks = _chunks(text)
    lines = next((part for part in chunks if _header_index(part) < len(part)), [])
    first = _header_index(lines)
    if first == len(lines) or not lines[first].startswith("# timing "):
        raise ScheduleParseError("missing timing header line")
    kv: dict[str, float] = {}
    for tok in lines[first][len("# timing "):].split():
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
    if "\0" not in text:  # numpy's str column would drop a name's trailing NULs
        with suppress(ValueError):  # ScheduleParseError is a ValueError
            blocks = [_read_block(lines[first + 1:]), *map(_read_block, chunks)]
            return WaveformSchedule(timing, EventColumns(*map(np.concatenate, zip(*blocks))))
    lines = text.splitlines()
    return WaveformSchedule(timing, EventColumns(*_parse_lines(lines, _header_index(lines) + 1)))


def schedule_to_json(sched: WaveformSchedule) -> str:
    """JSON form of a schedule (same content as the text form).

    The bytes equal json.dumps(doc, indent=2) + "\n" for the document
    {"timing": {...}, "events": [{"channel", "start_s", "duration_s",
    "level_v"}, ...]}. Only the timing header goes through json; each event is
    written from a fixed template, because json.dumps falls back to its
    pure-Python encoder whenever indent is set.
    """
    head = json.dumps({"timing": sched.timing.asdict(), "events": []}, indent=2)
    ev = sched.events
    if not len(ev):
        return head + "\n"
    items = _row_pieces(
        ev, lambda ch: f'{{\n      "channel": {json.dumps(ch)},\n      "start_s": ',
        lambda ch, d, lv: f',\n      "duration_s": {json.dumps(d)},'
                          f'\n      "level_v": {json.dumps(lv)}\n    }},\n    ')
    items[-1] = items[-1][:-6]  # the last item gives up its separator ',\n    '
    # head ends with the empty list and the closing brace: '[]\n}'.
    items.insert(0, head[:-4] + "[\n    ")
    items.append("\n  ]\n}\n")
    return "".join(items)


# --- symbol-stream mini-language --------------------------------------------

_CLASS_CODES = {"s": SIGNAL, "d": DECOY, "v": VACUUM}
_CLASS_TOKENS = {v: k for k, v in _CLASS_CODES.items()}


def parse_symbol_token(token: str) -> EncodingSymbol:
    """Parse one `<basis><bit><class>` token, e.g. Z0s, Y1s, Z0d."""
    if len(token) != 3 or token[0] not in "ZY" or token[1] not in "01" \
            or token[2] not in _CLASS_CODES:
        raise InvalidSymbolError(f"bad symbol token {token!r}")
    return EncodingSymbol(token[0], int(token[1]), _CLASS_CODES[token[2]])


def parse_symbol_stream(text: str) -> list[EncodingSymbol]:
    """Parse a whitespace-separated symbol stream, reporting line numbers.
    Each distinct token is parsed once, and its symbol shared."""
    symbols: list[EncodingSymbol] = []
    memo: dict[str, EncodingSymbol] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.split("#", 1)[0].split():
            if token not in memo:
                try:
                    memo[token] = parse_symbol_token(token)
                except InvalidSymbolError as exc:
                    raise InvalidSymbolError(f"line {lineno}: {exc}") from exc
            symbols.append(memo[token])
    return symbols


def symbol_token(sym: EncodingSymbol) -> str:
    """Inverse of parse_symbol_token."""
    return f"{sym.basis}{sym.bit}{_CLASS_TOKENS[sym.intensity_class]}"
