"""Set-up time of one fresh interpreter: ``import savbdf`` plus a workload's grids and problems.

Usage: python3 perfbench/setup_probe.py WORKLOAD
Prints the elapsed seconds as its only line.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from host import import_savbdf  # noqa: E402
from workloads import build_problems  # noqa: E402


def main() -> int:
    savbdf = import_savbdf()
    build_problems(savbdf, sys.argv[1])
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
