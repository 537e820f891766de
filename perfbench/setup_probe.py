"""One set-up of a benchmark run, timed in a fresh interpreter.

Imports numpy, scipy and convexgauss from the checkout's ``src`` and
generates the workload's inputs from the seed, then prints the elapsed
seconds and the median time of three runs of the calibration kernel that
follow. ``run.py`` starts several of these, scales each set-up to
reference speed by its kernel time and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload ibp_volume --seed 1
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import convexgauss  # noqa: F401
    import convexgauss.cli  # noqa: F401
    import workloads

    workloads.generate(args.workload, args.seed)
    elapsed = time.perf_counter() - START

    import statistics

    import calibrate

    kernel = calibrate.Kernel()
    print(f"{elapsed:.6f} {statistics.median(kernel() for _ in range(3)):.6f}")


if __name__ == "__main__":
    main()
