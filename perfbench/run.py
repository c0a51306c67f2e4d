"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The BLAS thread count is pinned before numpy loads, and the solver is
imported from the checkout's ``src`` directory.
"""

import os
import sys

BLAS_THREADS = 1  # one thread ran the tCG-bound workload faster than two


def prepare():
    """Pin BLAS threads and put the checkout's sources on the path;
    returns the thread count, or None when the sources are missing."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "lrsdp", "__init__.py")):
        print(f"perfbench: no lrsdp sources under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, src)
    return threads


def main():
    threads = prepare()
    if threads is None:
        return 2
    import harness
    return harness.main(sys.argv[1:], threads)


if __name__ == "__main__":
    sys.exit(main())
