"""Measure the cost of reading a problem's entries on both input paths.

    python tools/input_memory.py [--q Q] [--samples K]

SDPA: writes ``gen_bqp_moment(*random_bqp(q, 0))`` (default q = 16) with
``write_sdpa`` into a temporary directory and reads it back with
``read_sdpa``. Completion: draws K samples (default 10 000) of a rank-3
s x s matrix, s = 2 ceil(sqrt(K)) so that a quarter of the entries is
sampled, with ``random_completion`` and builds the problem with
``gen_matrix_completion``. Each step is timed once untraced, then run
again under tracemalloc for its peak. Prints one line per path: the
entries (triplets of C and the A_i, or samples), the times, and the
tracemalloc peak in bytes per entry. The file is removed on exit.
"""

import argparse
import math
import os
import sys
import tempfile
import time
import tracemalloc

from lrsdp import generators, io_cli


def timed(step):
    """``step()``'s result, its time, and its tracemalloc peak in a
    second run."""
    t0 = time.perf_counter()
    out = step()
    elapsed = time.perf_counter() - t0
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, elapsed, peak


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("--q", type=int, default=16,
                        help="binary variables of the BQP instance")
    parser.add_argument("--samples", type=int, default=10_000,
                        help="samples of the completion instance")
    args = parser.parse_args(argv)

    sdp = generators.gen_bqp_moment(*generators.random_bqp(args.q, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bqp.dat-s")
        t0 = time.perf_counter()
        io_cli.write_sdpa(sdp, path)
        write_s = time.perf_counter() - t0
        back, read_s, peak = timed(lambda: io_cli.read_sdpa(path))
    entries = back.C.vals.size + back.A.vals.size
    print(f"sdpa q={args.q} n={back.n} m={back.m} entries={entries} "
          f"write={write_s:.3f}s read={read_s:.3f}s "
          f"read_peak={peak / entries:.0f}B/entry")

    s = 2 * math.ceil(math.sqrt(args.samples))
    (_, samples), draw_s, draw_peak = timed(
        lambda: generators.random_completion(s, s, 3, args.samples, 0))
    _, build_s, build_peak = timed(
        lambda: generators.gen_matrix_completion(s, s, samples))
    k = max(args.samples, 1)
    print(f"completion s=t={s} samples={args.samples} "
          f"generate={draw_s:.3f}s build={build_s:.3f}s "
          f"generate_peak={draw_peak / k:.0f}B/sample "
          f"build_peak={build_peak / k:.0f}B/sample")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
