"""In-memory span tracer for the benchmark.

A span records its name, start, end, the span that opened it and the op it
belongs to: every span opened while a root span is open shares that root's op
id. Spans stay in memory until the run ends, when `dump` writes them out.
Self time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    span_id: int
    op_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    ref: float | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, ref: float | None = None) -> Iterator[Span]:
        """Open a span; `ref` (the reference loop's time just before a root
        span) lets layer_times calibrate the op's times."""
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        s = Span(
            span_id=sid,
            op_id=parent.op_id if parent else sid,
            parent=parent.span_id if parent else None,
            name=name,
            start=time.perf_counter(),
            ref=ref,
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    _null = nullcontext()

    def span(self, name: str, ref: float | None = None):
        return self._null


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def layer_times(spans: list[Span], root: str, nominal: float | None = None) -> dict[str, float]:
    """Span name -> median over ops with this root name of the name's self time.

    Self times of spans sharing a name within one op are summed first. With
    `nominal`, an op whose root span has a `ref` has its times scaled by
    nominal / ref.
    """
    selfs = self_times(spans)
    scale = {
        s.span_id: nominal / s.ref if nominal and s.ref else 1.0
        for s in spans if s.parent is None and s.name == root
    }
    per_op: dict[int, dict[str, float]] = {}
    for s in spans:
        if s.op_id in scale:
            op = per_op.setdefault(s.op_id, {})
            op[s.name] = op.get(s.name, 0.0) + selfs[s.span_id] * scale[s.op_id]
    names = {name for op in per_op.values() for name in op}
    return {
        name: statistics.median(op[name] for op in per_op.values() if name in op)
        for name in names
    }
