"""Tests of the benchmark itself: span self times, seeded inputs, failure counting.

    python3 -m pytest qkdbench/tests -q
"""

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import workloads as wl  # noqa: E402
from dmqkd.config import RunConfig  # noqa: E402
from tracing import NullTracer, Span, Tracer, layer_times, self_times  # noqa: E402

REF = json.loads((HERE / "reference.json").read_text())
CFG = RunConfig()
WLS = wl.build(CFG, REF)


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, 0, None, "op", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 1, "a.inner", 2.0, 3.0),
        Span(3, 0, 0, "b", 5.0, 9.0),
        Span(4, 4, None, "op", 20.0, 22.0),
        Span(5, 4, 4, "b", 20.5, 21.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5, 5: 0.5}
    # Per op, self times of a name are summed; across ops, the median is taken.
    assert layer_times(spans, "op") == {"op": 2.25, "a": 2.0, "a.inner": 1.0, "b": 2.25}
    # A root's reference time scales the whole op: here op 4 runs twice as slow.
    spans[4].ref = 2.0
    assert layer_times(spans, "op", nominal=1.0) == {"op": 1.875, "a": 2.0, "a.inner": 1.0, "b": 2.125}


def test_tracer_links_children_to_their_parent_and_op():
    tr = Tracer()
    for _ in range(2):
        with tr.span("op"):
            with tr.span("stage"):
                with tr.span("inner"):
                    pass
    op0, stage0, inner0, op1, *_ = tr.spans
    assert (stage0.parent, inner0.parent) == (op0.span_id, stage0.span_id)
    assert {s.op_id for s in tr.spans[:3]} == {op0.span_id}
    assert {s.op_id for s in tr.spans[3:]} == {op1.span_id} != {op0.span_id}
    selfs = self_times(tr.spans)
    assert all(v >= 0.0 for v in selfs.values())
    assert selfs[op0.span_id] + selfs[stage0.span_id] + selfs[inner0.span_id] == pytest.approx(
        op0.end - op0.start
    )


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    make = WLS[name].make_input

    def dump(seed, index):
        return json.dumps(make(seed, index), sort_keys=True).encode()

    assert dump(7, 3) == dump(7, 3)
    assert dump(7, 3) != dump(8, 3)
    assert dump(7, 3) != dump(7, 4)


def _corrupting(workload, corrupt):
    """The workload with every odd op's output corrupted after it ran."""
    calls = []

    def op(tr, inp):
        out = workload.op(tr, inp)
        calls.append(inp)
        if len(calls) % 2 == 0:
            corrupt(out)
        return out

    return replace(workload, op=op)


def test_corrupted_schedule_output_is_counted_as_failed():
    small = replace(
        WLS["schedule_roundtrip"], make_input=lambda seed, i: wl.schedule_input(seed, i, 64)
    )

    def corrupt(out):
        out["pairs"][5] = replace(out["pairs"][5], phi12=out["pairs"][5].phi12 + 1e-9)

    tally = bench.Tally()
    loop = bench.run_loop(_corrupting(small, corrupt), 0, 0.0, tally)
    assert tally.attempted == 2 and tally.failed == 1
    assert len(loop.plain) == 0  # op 0 is the untimed warm-up; op 1 failed


def test_mc_and_analytic_checks_flag_corrupted_outputs():
    inp = WLS["mc_link"].make_input(0, 0)
    out = WLS["mc_link"].op(NullTracer(), inp)
    assert WLS["mc_link"].check(inp, out) == []
    bad = copy.deepcopy(out)
    bad["tallies"].rows[("decoy", "Z")].errors += 1
    assert any("digest" in p for p in WLS["mc_link"].check(inp, bad))
    bad["tallies"].rows[("signal", "Y")].errors = bad["tallies"].rows[("signal", "Y")].detected + 1
    assert any("errors <= detected" in p for p in WLS["mc_link"].check(inp, bad))

    inp = WLS["analytic_verify"].make_input(0, 0)
    out = WLS["analytic_verify"].op(NullTracer(), inp)
    assert WLS["analytic_verify"].check(inp, out) == []
    out["cutoff"] += 0.01
    out["report"]["all_passed"] = False
    assert len(WLS["analytic_verify"].check(inp, out)) == 2


def test_an_op_that_raises_is_counted_as_failed():
    def op(tr, inp):
        raise ValueError("boom")

    tally = bench.Tally()
    out, _ = bench.run_op(replace(WLS["mc_link"], op=op), {"mc_seed": 0}, NullTracer(), tally)
    assert out is None and (tally.attempted, tally.failed) == (1, 1)


def test_tail_needs_ten_samples_beyond_it():
    assert bench.tail([1.0] * 10) is None
    t = bench.tail([float(i) for i in range(40)])
    assert t == {"value": 29.0, "percentile": 75.0, "beyond": 10}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_benchmark_metric(trace, kind, capsys):
    assert bench.main(["--workload", "analytic_verify", "--seed", "1",
                       "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]
    }
