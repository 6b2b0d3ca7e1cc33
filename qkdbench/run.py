"""dmqkd benchmark: one closed-loop workload per run, every output checked.

    python3 qkdbench/run.py --workload mc_link --seed 1 --seconds 20 --trace 0
    python3 qkdbench/run.py --workload mc_link --seed 1 --seconds 20 --trace 1

The program is imported from the src/ directory beside this one, so the
command works from any checkout of the repository, and fails with exit code 2
where there is none. One caller on one thread runs ops back to back (closed
loop) for --seconds after one warm-up op. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports the per-layer split instead
(see README.md). The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "dmqkd" / "__init__.py").is_file():
        print(f"error: no dmqkd sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import bench

    raise SystemExit(bench.main())
