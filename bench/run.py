"""Run the endoperm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is johnson-vector, corpus-j4, or all (the two in turn).  Each
workload prints its metrics by name with their units, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The package is imported
from the src/ directory of the checkout this script sits in.
"""

import argparse
import os
import sys
from pathlib import Path

NAMES = ("johnson-vector", "corpus-j4")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "endoperm" / "__init__.py").is_file():
        sys.exit(f"error: no endoperm package under {src}")
    # one process, one thread: keep numpy's BLAS pool from spreading out
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness
    names = NAMES if args.workload == "all" else (args.workload,)
    harness.main(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
