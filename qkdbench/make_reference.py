"""Regenerate reference.json: the outputs the benchmark's checks compare against.

    python3 qkdbench/make_reference.py

Records, at the current code:
- the tally digest of `simulate_frames_mc` at 10^7 frames for MC seeds
  0..POOL-1 (the ROADMAP requires bit-identical tallies for every seed);
- the first POOL verify seeds whose `run_verification` passes every property
  (each of its nine statistical properties fails by chance at rate ~1%, so
  about 7% of seeds fail; the benchmark measures passing runs only);
- the cutoff loss and the 15 dB key rate of the 0.01 dB sweep.
Run it only when a change of output is intended, and say so where the change
is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dmqkd import decoy, secprops  # noqa: E402
from dmqkd.config import RunConfig  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main() -> int:
    cfg = RunConfig()
    tr = NullTracer()
    digests = {}
    for s in range(wl.POOL):
        out = wl.mc_op(tr, {"mc_seed": s}, cfg)
        digests[str(s)] = wl.tally_digest(out["tallies"])
        ref = {"mc_digests": digests}
        problems = wl.check_mc({"mc_seed": s}, out, ref)
        if problems:
            print(f"mc seed {s}: {problems}", file=sys.stderr)
            return 1
    verify_seeds = []
    s = 0
    while len(verify_seeds) < wl.POOL:
        if secprops.run_verification(seed=s)["all_passed"]:
            verify_seeds.append(s)
        s += 1
    points = decoy.sweep_loss(*wl.SWEEP_DB, cfg.link, cfg.intensities)
    ref = {
        "cutoff_db": decoy.cutoff_loss(points),
        "r_bps_15db": decoy.rate_at_loss(15.0, cfg.link, cfg.intensities).r_bps,
        "verify_seeds": verify_seeds,
        "mc_digests": digests,
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
