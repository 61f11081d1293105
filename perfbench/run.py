"""Benchmark entry point for mhd2d.

Run one workload, from the repository root:

    python3 perfbench/run.py --workload ot256-sparse --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Without `--workload`
every workload runs untraced, each in its own process, and each metric is
printed by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

# One process, one thread: pocketfft and numpy elementwise code are
# single-threaded, and no BLAS pool may add noise.  Set before numpy loads.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


def prepare():
    """Pin threads and import mhd2d from this checkout's source tree, or
    exit non-zero when the tree is missing."""
    os.environ.update(PINNED_THREADS)
    if not (SOURCE / "mhd2d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mhd2d source tree at {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import harness

    if args.workload is None:
        return harness.run_all(args.seed, args.seconds)
    return harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
