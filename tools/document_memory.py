"""Measure the cost of writing and checking one result document.

    python tools/document_memory.py [--q Q]

Builds ``gen_bqp_moment(*random_bqp(q, 0))`` (default q = 16), solves it
with one outer iteration, then writes its result document with
``result_document`` and ``write_result`` into a temporary directory, reads
it back with ``json.load`` and checks it with ``check_document``. Prints
one line: n, m, the triplets of C and the A_i, the file's size, the write
and check times, and the process's peak RSS (``ru_maxrss``) after the
solve, after the write and after the check. The file is removed on exit.
Memory figures depend on the numpy build; set OPENBLAS_NUM_THREADS=1 to
compare machines. Run from anywhere: the checkout's ``src`` comes first
on the path.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from lrsdp import generators, io_cli  # noqa: E402
from lrsdp.alm import SolverOptions, solve  # noqa: E402


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("--q", type=int, default=16,
                        help="binary variables of the BQP instance")
    args = parser.parse_args(argv)
    sdp = generators.gen_bqp_moment(*generators.random_bqp(args.q, 0))
    opts = SolverOptions(max_outer_iters=1)
    solution = solve(sdp, opts)
    rss = [peak_rss_mb()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.json")
        t0 = time.perf_counter()
        io_cli.write_result(io_cli.result_document(sdp, solution, opts), path)
        write_s = time.perf_counter() - t0
        rss.append(peak_rss_mb())
        size_mb = os.path.getsize(path) / 1e6
        t0 = time.perf_counter()
        with open(path) as fh:
            io_cli.check_document(json.load(fh), opts.tol)
        check_s = time.perf_counter() - t0
        rss.append(peak_rss_mb())
    triplets = sdp.C.vals.size + sdp.A.vals.size
    print(f"q={args.q} n={sdp.n} m={sdp.m} triplets={triplets} "
          f"file={size_mb:.1f}MB write={write_s:.2f}s check={check_s:.2f}s "
          f"rss_mb solve={rss[0]:.0f} written={rss[1]:.0f} "
          f"checked={rss[2]:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
