"""Record the reference objective of every suite instance:

    python3 perfbench/record.py [SUITE ...]

SUITE is a workload name, or ``smoke/NAME`` for its tiny suite; the
default is every suite. Each instance is solved once with its fixed solver
seed, and its objective is kept only when the solve converged and passed
``io_cli.check_document``. Re-record whenever a suite's parameters change.
"""

import json
import sys

import run


def record_suite(harness, workload, smoke):
    params = harness.suite_params(workload, smoke)
    size = harness.SMOKE_SIZE if smoke else workload.size
    objectives = []
    for index in range(size):
        inst = harness.build_instance(workload, params, index, None, [])
        solution = harness.lrsdp.solve(inst.problem, inst.options())
        inst.reference = solution.objective
        check = harness.certify(inst, solution)
        if not check["certified"]:
            raise SystemExit(f"record: {harness.suite_key(workload, smoke)} "
                             f"instance {index} did not certify: {check}")
        print(f"{harness.suite_key(workload, smoke)} {index}: "
              f"{solution.objective!r} ({solution.wall_time:.2f} s)",
              flush=True)
        objectives.append(solution.objective)
    return {"params": params, "objectives": objectives}


def main(keys):
    if run.prepare() is None:
        return 2
    import harness
    try:
        with open(harness.REFERENCES) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"tol": harness.lrsdp.SolverOptions().tol, "suites": {}}
    for workload in harness.WORKLOADS.values():
        for smoke in (True, False):
            key = harness.suite_key(workload, smoke)
            if not keys or key in keys:
                doc["suites"][key] = record_suite(harness, workload, smoke)
    with open(harness.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
