"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 qkdbench/spread.py --workload mc_link --seeds 1-10 --seconds 20 \
        [--trace 0] [--out results.json]

Spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. Runs are made
one after another with the same command the benchmark's users run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            return 1
        info = next(json.loads(ln)["info"] for ln in lines if ln.startswith('{"info"'))
        runs.append({"seed": seed, **result, "wall": info.get("wall", {})})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {
        name: {"unit": m["unit"], **summarise([r["metrics"][name]["value"] for r in runs])}
        for name, m in runs[0]["metrics"].items()
    }
    wall = {name: summarise([r["wall"][name] for r in runs]) for name in runs[0]["wall"]}
    for name, s in summary.items():
        print(f"{name:>34} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}")
    for name, s in wall.items():
        print(f"{name:>34} median {s['median']:.6g} (uncalibrated)  spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "summary": summary, "wall": wall, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
