"""Check that this checkout and another solve the benchmark bit for bit alike.

    python tools/same_iterates.py PARENT_CHECKOUT

Solves the benchmark instances, ``bqp-moment`` 0-1 and ``completion`` 0-3
as perfbench's ``WORKLOADS`` defines them, three seeded ``unit-trace``
instances, two seeded ``free-overlap`` instances and one seeded ``max-cut``
instance, which no workload builds, with the sources of this checkout and
of PARENT_CHECKOUT. Max-Cut is the one family here whose rows reach
eta_p, eta_g <= tol without converging; ``free-overlap`` the one whose
slack reads A(C) != 0 and an overlap K = R n C that is not empty.
Each solve runs in its own subprocess with one BLAS thread. Compared:
each trace column except ``time`` on its own (named ``trace.<column>``; a
column only one checkout has differs), the bytes of Y, y, z and S,
lambda_min and lambda_max, the objective and the status.
Prints one line per instance, naming the fields that differ, and exits 1
on any difference. Under a line that names differences it prints the
relative difference of the two objectives, abs(ours - theirs) /
abs(theirs) (absolute where theirs is 0), and both statuses and
outer-iteration counts, this checkout's first.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = [("bqp-moment", i) for i in range(2)] \
    + [("completion", i) for i in range(4)] \
    + [("unit-trace", i) for i in range(3)] \
    + [("free-overlap", i) for i in range(2)] \
    + [("max-cut", 0)]


def unit_trace_instance(seed):
    """A feasible problem on the sphere Tr(X) = 1, n = 12 and m = 4: random
    sparse C and A_i, and b = A(Y0 Y0^T) at a random point Y0. Built from
    the public API only, so that any checkout can solve it."""
    import numpy as np
    import lrsdp
    from lrsdp import manifolds, problem
    n, m, nnz = 12, 4, 12
    kind = lrsdp.ManifoldKind.UNIT_TRACE
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n)

    def sparse():
        k = np.sort(rng.choice(iu.size, size=nnz, replace=False))
        return lrsdp.SparseSymMatrix(n, iu[k], ju[k], rng.standard_normal(nnz))

    C, A = sparse(), [sparse() for _ in range(m)]
    Y0 = manifolds.random_point(n, 2, kind, seed).Y
    b = problem.apply_constraints(
        lrsdp.SdpProblem(n, C, A, np.zeros(m), kind), Y0)
    return (lrsdp.SdpProblem(n, C, A, b, kind),
            lrsdp.SolverOptions(seed=seed, max_outer_iters=40))


def free_overlap_instance(seed):
    """A feasible problem on the free manifold, n = 14 and m = 5: 10
    random triplets per A_i, so their rows and columns overlap, C = G G^T
    / n stored whole, and b = A(Y0 Y0^T) at a random point Y0. Built from
    the public API only, so that any checkout can solve it."""
    import numpy as np
    import lrsdp
    from lrsdp import manifolds, problem
    n, m, nnz = 14, 5, 10
    kind = lrsdp.ManifoldKind.FREE
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n)
    G = rng.standard_normal((n, n))
    C = lrsdp.SparseSymMatrix(n, iu, ju, (G @ G.T / n)[iu, ju])
    A = []
    for _ in range(m):
        k = np.sort(rng.choice(iu.size, size=nnz, replace=False))
        A.append(lrsdp.SparseSymMatrix(n, iu[k], ju[k],
                                       rng.standard_normal(nnz)))
    Y0 = manifolds.random_point(n, 2, kind, seed).Y
    b = problem.apply_constraints(
        lrsdp.SdpProblem(n, C, A, np.zeros(m), kind), Y0)
    return (lrsdp.SdpProblem(n, C, A, b, kind),
            lrsdp.SolverOptions(seed=seed, max_outer_iters=40))


def max_cut_instance(seed, n=300):
    """Max-Cut of a random graph on n nodes with 3n distinct unit edges,
    drawn with ``np.random.default_rng(seed)``; public API only."""
    import numpy as np
    import lrsdp
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 3 * n:
        i, j = rng.choice(n, size=2, replace=False) + 1
        edges.add((min(i, j), max(i, j)))
    graph = lrsdp.WeightedGraph(n, tuple((int(i), int(j), 1.0)
                                         for i, j in sorted(edges)))
    return lrsdp.gen_maxcut(graph), lrsdp.SolverOptions(seed=seed)


def fingerprint(workload, index):
    """Digest of every compared field of one solve, by field name, and the
    objective, status and outer-iteration count as values."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    import lrsdp
    if workload == "unit-trace":
        sol = lrsdp.solve(*unit_trace_instance(index))
    elif workload == "free-overlap":
        sol = lrsdp.solve(*free_overlap_instance(index))
    elif workload == "max-cut":
        sol = lrsdp.solve(*max_cut_instance(index))
    else:
        w = harness.WORKLOADS[workload]
        sol = lrsdp.solve(w.build(w.inputs(w.params, index)),
                          lrsdp.SolverOptions(seed=index))
    columns = [f.name for f in dataclasses.fields(sol.trace[0])
               if f.name != "time"]
    arrays = {"Y": sol.Y.Y, "y": sol.y, "z": sol.z, "S": sol.S.dense}
    fields = {name: repr((a.dtype.str, a.shape)).encode() + a.tobytes()
              for name, a in arrays.items()}
    fields.update({
        "trace." + c: repr([getattr(t, c) for t in sol.trace]).encode()
        for c in columns})
    fields.update({
        "lambda": repr((sol.lambda_min, sol.lambda_max)).encode(),
        "objective": repr(sol.objective).encode(),
        "status": sol.status.encode()})
    return {"digests": {k: hashlib.sha256(v).hexdigest()
                        for k, v in fields.items()},
            "objective": sol.objective, "status": sol.status,
            "outer_iters": sol.iterations}


def solve_in(tree, workload, index):
    """The ``fingerprint`` of one solve with the sources of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--worker", workload, str(index)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv):
    if len(argv) == 3 and argv[0] == "--worker":
        print(json.dumps(fingerprint(argv[1], int(argv[2]))))
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "lrsdp").is_dir():
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    differs = False
    for workload, index in INSTANCES:
        ours = solve_in(ROOT, workload, index)
        theirs = solve_in(argv[0], workload, index)
        a, b = ours["digests"], theirs["digests"]
        diff = [k for k in {**a, **b} if a.get(k) != b.get(k)]
        differs = differs or bool(diff)
        print(f"{workload} {index}: "
              + ("differs in " + ", ".join(diff) if diff else "identical"))
        if diff:
            rel = abs(ours["objective"] - theirs["objective"]) \
                / (abs(theirs["objective"]) or 1.0)
            print(f"    objective rel. difference {rel:.1e}; status "
                  f"{ours['status']} / {theirs['status']}; outer iterations "
                  f"{ours['outer_iters']} / {theirs['outer_iters']}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
