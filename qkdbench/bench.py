"""The benchmark's harness: closed loop, set-up probes, traced section and metrics.

Imported by run.py once the program's src/ is on sys.path.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import dmqkd
import workloads as wl
from dmqkd import cli
from dmqkd.config import RunConfig
from tracing import NullTracer, Tracer, layer_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".bench_build" / "qkdbench"
WORKLOADS = ("mc_link", "schedule_roundtrip", "analytic_verify")
SETUP_REPEATS = 9
PROBE_REPEATS = 3
# The reference loop runs before every op; its time measures how fast the
# machine is at that moment. Shared machines drift between speed levels some
# 40% apart for tens of seconds at a time, which moves every op's wall time
# alike. An op's calibrated time is its wall time scaled to the speed at
# which the reference loop takes REF_NOMINAL_S.
REF_LOOP_STEPS = 400_000
REF_NOMINAL_S = 0.025
# Count metrics of the traced run are taken on the inputs of this seed, so
# they repeat exactly in every traced run, whatever its --seed.
COUNT_SEED = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class LoopResult:
    """Wall seconds of the timed ops, untraced and traced, each with the
    reference loop's time just before it."""

    plain: list[float] = field(default_factory=list)
    plain_ref: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    traced_ref: list[float] = field(default_factory=list)


def calibrated(ops: list[float], refs: list[float]) -> list[float]:
    return [op * REF_NOMINAL_S / ref for op, ref in zip(ops, refs)]


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that shares no code with dmqkd."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_STEPS):
        acc += i * i
    return time.perf_counter() - t0


def run_op(workload, inp: dict, tr, tally: Tally, ref: float | None = None):
    """Run and check one op. Returns (output, seconds), or (None, seconds)
    when the op raised or its output failed its check; either way it counts
    as attempted, and a failure as failed. `ref` goes on the op's root span."""
    tally.attempted += 1
    out, seconds = None, math.nan
    try:
        t0 = time.perf_counter()
        with tr.span(workload.name, ref):
            out = workload.op(tr, inp)
        seconds = time.perf_counter() - t0
        problems = workload.check(inp, out)
    except Exception:  # a broken op is a failed op; the run goes on
        traceback.print_exc()
        problems = ["op raised"]
    if problems:
        tally.failed += 1
        print(f"{workload.name}: op failed: {'; '.join(problems[:3])}", file=sys.stderr)
        return None, seconds
    return out, seconds


def run_loop(workload, seed: int, seconds: float, tally: Tally, tracer=None,
             probe=None, n_probes: int = 0) -> LoopResult:
    """Closed loop with one caller. Op 0 warms up and is checked but not
    timed; then ops run back to back until `seconds` have passed. With a
    tracer, odd ops run traced and even ones untraced, to measure overhead.
    `probe` is called `n_probes` times between ops, spread evenly over the
    timed interval, so that it sees the same machine as the ops do. The
    reference loop runs just before each op, outside its timing."""
    null = NullTracer()
    res = LoopResult()
    min_ops = 3 if tracer else 2
    index = probed = 0
    start = deadline = math.inf
    while index < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        inp = workload.make_input(seed, index)
        ref = reference_loop()
        out, dt = run_op(workload, inp, tracer if traced else null, tally, ref)
        if index == 0:
            start = time.perf_counter()
            deadline = start + seconds
        elif out is not None and traced:
            res.traced.append(dt)
            res.traced_ref.append(ref)
        elif out is not None:
            res.plain.append(dt)
            res.plain_ref.append(ref)
        while probed < n_probes and time.perf_counter() >= start + probed * seconds / n_probes:
            probe()
            probed += 1
        index += 1
    for _ in range(probed, n_probes):
        probe()
    return res


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"value": sorted(samples)[k - 1], "percentile": 100.0 * k / n, "beyond": 10}


class SetupProbe:
    """Each call runs the reference loop, then starts a fresh interpreter that
    imports dmqkd and round-trips the default config through flat text
    (setup_probe.py); records the reference time, the wall time from spawn to
    exit and the probe's own phase times."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {"ref": [], "setup_s": [], "import_s": [], "load_s": []}
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._env = {**os.environ, "PYTHONPATH": path}

    def __call__(self) -> None:
        self.times["ref"].append(reference_loop())
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(WORK / "default_config.txt")],
            env=self._env, capture_output=True, text=True, timeout=120,
        )
        self.times["setup_s"].append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        for key, value in json.loads(proc.stdout).items():
            self.times[key].append(value)

    def calibrated_median(self, key: str) -> float:
        return statistics.median(calibrated(self.times[key], self.times["ref"]))


def cli_argv(workload: str, inp: dict, tmp: Path) -> list[list[str]]:
    """The `dmqkd` command lines a user runs for this workload's op."""
    out = ["--out", str(tmp)]
    if workload == "mc_link":
        return [out + ["--frames", str(wl.N_FRAMES), "--seed", str(inp["mc_seed"]), "mc"]]
    if workload == "schedule_roundtrip":
        stream = tmp / "stream.txt"
        stream.write_text(inp["text"])
        return [out + ["encode", str(stream)]]
    lo, hi, step = wl.SWEEP_DB
    return [
        out + ["--loss-min", str(lo), "--loss-max", str(hi), "--loss-step", str(step), "sweep"],
        out + ["--seed", str(inp["verify_seed"]), "verify"],
    ]


def run_cli(tracer, workload: str, inp: dict, tally: Tally) -> None:
    """Run the workload's `dmqkd` command(s) through cli.main into a temp dir;
    a nonzero exit code or an exception counts as a failed op."""
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    sink = io.StringIO()
    tally.attempted += 1
    try:
        ref = reference_loop()
        with tracer.span("cli.main", ref), redirect_stdout(sink), redirect_stderr(sink):
            codes = [cli.main(argv) for argv in cli_argv(workload, inp, tmp)]
    except Exception:  # a broken command is a failed op; the run goes on
        traceback.print_exc()
        codes = ["raised"]
    finally:
        shutil.rmtree(tmp)
    if any(codes):
        tally.failed += 1
        print(f"cli exit codes {codes}: {sink.getvalue()[-500:]}", file=sys.stderr)


def traced_section(wls: dict, cfg: RunConfig, ref: dict, workload: str, tracer: Tracer, tally: Tally) -> dict:
    """One traced op of every workload on the COUNT_SEED inputs, a 1,024-symbol
    schedule op, the layer probes and the workload's CLI command. Returns the
    count-seed outputs by workload name."""
    outs = {
        name: run_op(w, w.make_input(COUNT_SEED, 0), tracer, tally, reference_loop())[0]
        for name, w in wls.items()
    }
    small = replace(wls["schedule_roundtrip"], name="schedule_small")
    run_op(small, wl.schedule_input(COUNT_SEED, 0, wl.N_SYMBOLS_SMALL), tracer, tally,
           reference_loop())
    if tally.failed:
        return outs
    sifted, detected = ratios(outs["mc_link"])
    for _ in range(PROBE_REPEATS):
        with tracer.span("probe.rng_floor", reference_loop()):
            wl.rng_floor(tracer, wl.mc_input(COUNT_SEED, 0)["mc_seed"], sifted, detected)
        with tracer.span("probe.decoy", reference_loop()):
            wl.decoy_split(tracer, cfg)
        with tracer.span("probe.secprops", reference_loop()):
            wl.secprops_split(tracer, wl.verify_input(COUNT_SEED, 0, ref)["verify_seed"])
    run_cli(tracer, workload, wls[workload].make_input(COUNT_SEED, 0), tally)
    return outs


def ratios(mc_out: dict) -> tuple[float, float]:
    """(sum sent / frames, sum detected / sum sent) of one MC op."""
    rows = mc_out["tallies"].rows.values()
    sent = sum(t.sent for t in rows)
    return sent / wl.N_FRAMES, sum(t.detected for t in rows) / sent


def layer_metrics(spans, outs: dict, loop: LoopResult, setup: SetupProbe) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, by name, as (value, unit). Times are
    calibrated seconds."""
    mc, sched, small, ana, floor, dec, sec, cli_s = (
        layer_times(spans, root, REF_NOMINAL_S)
        for root in ("mc_link", "schedule_roundtrip", "schedule_small", "analytic_verify",
                     "probe.rng_floor", "probe.decoy", "probe.secprops", "cli.main")
    )
    sifted, detected = ratios(outs["mc_link"])
    m: dict[str, tuple[float, str]] = {
        "linksim.mc_s": (mc["linksim.mc"], "s"),
        "linksim.mc_ns_per_frame": (mc["linksim.mc"] / wl.N_FRAMES * 1e9, "ns"),
        "linksim.rng_floor_s": (floor["linksim.rng_floor"], "s"),
        "linksim.mc_over_floor": (mc["linksim.mc"] / floor["linksim.rng_floor"], "ratio"),
        "linksim.blocks": (float(-(-wl.N_FRAMES // wl.linksim.DEFAULT_BLOCK_SIZE)), "count"),
        "linksim.sifted_ratio": (sifted, "ratio"),
        "linksim.detected_ratio": (detected, "ratio"),
        "decoy.gains_s": (dec["decoy.gains"], "s"),
        "decoy.bounds_s": (dec["decoy.bounds"], "s"),
        "decoy.rate_s": (dec["decoy.rate"], "s"),
        "decoy.sweep_s": (ana["decoy.sweep"], "s"),
        "decoy.sweep_us_per_point": (ana["decoy.sweep"] / wl.SWEEP_POINTS * 1e6, "us"),
        "decoy.csv_s": (ana["decoy.csv"], "s"),
        "secprops.verify_s": (ana["secprops.verify"], "s"),
        "secprops.exact_s": (sec["secprops.exact"], "s"),
        "secprops.uniformity_s": (sec["secprops.uniformity"], "s"),
        "secprops.mi_s": (sec["secprops.mi"], "s"),
        "secprops.properties_passed": (
            float(sum(p["passed"] for p in outs["analytic_verify"]["report"]["properties"])), "count"),
    }
    for stage in ("parse", "compile", "to_text", "to_json", "from_text", "decompile"):
        s = sched[f"encoding.{stage}"]
        m[f"encoding.{stage}_s"] = (s, "s")
        m[f"encoding.{stage}_us_per_symbol"] = (s / wl.N_SYMBOLS * 1e6, "us")
    m["encoding.decompile_scaling"] = (
        (sched["encoding.decompile"] / wl.N_SYMBOLS)
        / (small["encoding.decompile"] / wl.N_SYMBOLS_SMALL), "ratio")
    so = outs["schedule_roundtrip"]
    m["encoding.events"] = (float(so["events"]), "count")
    m["encoding.text_bytes"] = (float(len(so["text"].encode())), "bytes")
    m["encoding.json_bytes"] = (float(len(so["json"].encode())), "bytes")
    m["photonics.render_s"] = (sched["photonics.render"], "s")
    m["cli.import_s"] = (setup.calibrated_median("import_s"), "s")
    m["config.load_s"] = (setup.calibrated_median("load_s"), "s")
    m["cli.main_s"] = (cli_s["cli.main"], "s")
    m["trace.overhead_ratio"] = (
        statistics.median(calibrated(loop.traced, loop.traced_ref))
        / statistics.median(calibrated(loop.plain, loop.plain_ref)), "ratio")
    return m


def end_to_end_metrics(workload, loop: LoopResult, setup: SetupProbe) -> dict[str, tuple[float, str]]:
    cal_p50 = statistics.median(calibrated(loop.plain, loop.plain_ref))
    return {
        "items_per_cal_s": (workload.items_per_op / cal_p50, "1/s"),
        "op_cal_s_p50": (cal_p50, "s"),
        "setup_s": (setup.calibrated_median("setup_s"), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def wall_metrics(workload, loop: LoopResult, setup: SetupProbe) -> dict[str, tuple[float, str]]:
    """Uncalibrated wall-clock figures, printed beside the result."""
    p50 = statistics.median(loop.plain)
    return {
        "items_per_s": (workload.items_per_op / p50, "1/s"),
        "op_s_p50": (p50, "s"),
        "setup_wall_s": (statistics.median(setup.times["setup_s"]), "s"),
        "reference_s_p50": (statistics.median(loop.plain_ref), "s"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    setup = SetupProbe()
    cfg = RunConfig()
    ref = json.loads((HERE / "reference.json").read_text())
    wls = wl.build(cfg, ref)
    workload = wls[args.workload]
    tally = Tally()
    tracer = Tracer() if args.trace else None
    loop = run_loop(workload, args.seed, args.seconds, tally, tracer, setup, SETUP_REPEATS)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": workload.item,
        "items_per_op": workload.items_per_op,
        "sizes": {"mc_frames": wl.N_FRAMES, "block_size": wl.linksim.DEFAULT_BLOCK_SIZE,
                  "symbols": wl.N_SYMBOLS, "symbols_small": wl.N_SYMBOLS_SMALL,
                  "sweep_points": wl.SWEEP_POINTS, "sweep_db": list(wl.SWEEP_DB),
                  "setup_repeats": SETUP_REPEATS},
        "ops_timed": len(loop.plain) + len(loop.traced),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dmqkd": dmqkd.__version__,
    }
    if tracer:
        outs = traced_section(wls, cfg, ref, args.workload, tracer, tally)
        trace_path = WORK / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        info["trace_file"] = str(trace_path.relative_to(HERE.parent))
        info["spans"] = len(tracer.spans)
        metrics = layer_metrics(tracer.spans, outs, loop, setup) if tally.failed == 0 else {}
    else:
        metrics = end_to_end_metrics(workload, loop, setup) if loop.plain else {}
        shown = {**metrics, **wall_metrics(workload, loop, setup)} if loop.plain else {}
        info["wall"] = {name: value for name, (value, _) in shown.items() if name not in metrics}
        info["op_s_p50_samples"] = len(loop.plain)
        info["op_s_tail"] = tail(loop.plain)
    info["failed_ratio"] = tally.failed / tally.attempted
    print(json.dumps({"info": info}))
    for name, (value, unit) in (metrics if tracer else shown).items():
        print(f"{name:>34} {value:.6g} {unit}")
    if not tracer:
        print(f"{'op_s_p50 samples':>34} {len(loop.plain)} count")
        if info["op_s_tail"]:
            t = info["op_s_tail"]
            print(f"{'op_s_tail':>34} {t['value']:.6g} s (p{t['percentile']:.1f}, {t['beyond']} ops beyond)")
        print(f"{'failed_ratio':>34} {info['failed_ratio']:.6g} ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
