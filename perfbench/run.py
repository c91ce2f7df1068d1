"""Run the sepscope benchmark from the root of a checkout.

    python3 perfbench/run.py --workload scan-small --seed 1 --seconds 35 --trace 0

``--workload all`` (the default) runs every workload in this one process.
The run prints the machine facts, each command's fastest time and stdout
digest, every metric by name and unit, and as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Full details,
spans included, go to perfbench/results/.  Exits 2 without a result when the
sepscope sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="sepscope benchmark")
    parser.add_argument("--workload", default="all",
                        help="scan-small, analyze-large, verify-all or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="time budget of the timed passes (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sepscope", "__init__.py")):
        print(f"error: no sepscope sources under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads; pin it to one thread
    # in this process's environment (inherited by the set-up children) before
    # anything imports numpy, so timings do not follow the load on other cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
