"""Solve BQP moment relaxations under the last-bit roundings of their data.

    python tools/ulp_ensemble.py [--q Q] [--seeds FIRST LAST] [--delta-ne D]

Run from anywhere: the checkout's ``src`` comes first on the path.
For each seed s in FIRST..LAST (default 0 1, the ``bqp-moment`` benchmark
instances at the default q = 16), builds ``gen_bqp_moment(*random_bqp(q, s))``
and solves it with ``SolverOptions(seed=s, delta_ne=D)`` eight times, with C
scaled by (1 + k 2^-52) for k = 0..7; each factor is exact in binary. D, the
most columns one saddle escape adds, defaults to ``SolverOptions().delta_ne``;
other values sweep the rank path (ROADMAP item 2). Prints one line
per rounding with the Hessian products, outer iterations, peak rank p,
status and objective, then one line per instance with the median and max of
the products and the largest relative spread of the objectives. A solve
path that does not depend on the last bit of the data shows products within
a small factor of their median. Exits 1 if any rounding does not converge.
Counts repeat for one machine and BLAS build; set OPENBLAS_NUM_THREADS=1 to
compare machines.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from lrsdp import generators, manifolds  # noqa: E402
from lrsdp.alm import SolverOptions, solve  # noqa: E402
from lrsdp.problem import SdpProblem  # noqa: E402

ROUNDINGS = range(8)


def rounded(sdp, k):
    """``sdp`` with C scaled by (1 + k 2^-52)."""
    C = dataclasses.replace(sdp.C, vals=sdp.C.vals * (1.0 + k * 2.0 ** -52))
    return SdpProblem(sdp.n, C, sdp.A, sdp.b, sdp.manifold,
                      sdp.objective_sign, sdp.objective_offset)


def counted_solve(sdp, opts):
    """``(solution, Hessian products)`` of one solve."""
    products = 0
    hess_vec = manifolds.riem_hess_vec

    def counted(*args, **kwargs):
        nonlocal products
        products += 1
        return hess_vec(*args, **kwargs)

    manifolds.riem_hess_vec = counted
    try:
        sol = solve(sdp, opts)
    finally:
        manifolds.riem_hess_vec = hess_vec
    return sol, products


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().split("\n\n")[0])
    parser.add_argument("--q", type=int, default=16)
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 1),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--delta-ne", type=int,
                        default=SolverOptions().delta_ne)
    args = parser.parse_args(argv)
    all_converged = True
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        sdp = generators.gen_bqp_moment(*generators.random_bqp(args.q, seed))
        products, objectives = [], []
        for k in ROUNDINGS:
            sol, count = counted_solve(
                rounded(sdp, k),
                SolverOptions(seed=seed, delta_ne=args.delta_ne))
            products.append(count)
            objectives.append(sol.objective)
            all_converged = all_converged and sol.status == "converged"
            print(f"q={args.q} seed={seed} delta_ne={args.delta_ne} k={k}: "
                  f"products {count} outer {len(sol.trace)} "
                  f"peak_p {max(t.p for t in sol.trace)} {sol.status} "
                  f"objective {sol.objective:.12g}", flush=True)
        median = float(np.median(products))
        spread = (max(objectives) - min(objectives)) \
            / max(1.0, abs(objectives[0]))
        print(f"q={args.q} seed={seed}: products median {median:g} "
              f"max {max(products)} (max/median {max(products) / median:.2f})"
              f", objectives within {spread:.1e} relative", flush=True)
    return 0 if all_converged else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
