"""Seeded end-to-end benchmark of the lrsdp solver.

A workload is a fixed suite of seeded instances of one problem family,
sized so that one layer of the solver carries most of the solve time.
A run solves the whole suite, then solves its instances again, in the same
order, while the next solve still fits in ``--seconds``.
Instance ``i`` of a suite is generated from seed ``i`` and solved with
``SolverOptions(seed=i)``, and its optimal objective is recorded in
``references.json``. The workload seed passed on the command line fixes
the order in which a run solves the suite and which instance a traced run
profiles.

Every solve is checked: it is certified when its status is "converged",
when ``io_cli.check_document`` passes after a JSON round trip of its result
document, and when its objective matches the recorded reference. A failed
check is counted, never dropped, and the run goes on.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it solves one instance untraced and twice traced, prints the
per-layer metrics of the first traced solve and requires the two traced
solves to repeat every count exactly.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import lrsdp
from lrsdp import io_cli

import tracing

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"

OBJECTIVE_RTOL = 1e-6
# set-up of a few milliseconds is repeated: each instance is built until it
# has had SETUP_MIN_BUILDS builds and SETUP_MIN_SECONDS, and setup_s is the
# median build
SETUP_MIN_BUILDS = 2
SETUP_MIN_SECONDS = 0.2
SETUP_MAX_BUILDS = 50
SMOKE_SIZE = 2
# named before any later change was measured; claims are re-checked on it
HELD_OUT_SEED = 20261017


# --- instance families ------------------------------------------------

def bqp_data(params, seed):
    return lrsdp.random_bqp(params["q"], seed)


def build_bqp(data):
    return lrsdp.gen_bqp_moment(*data)


def completion_samples(params, seed):
    _, entries = lrsdp.random_completion(params["s"], params["t"],
                                         params["rank"], params["samples"],
                                         seed)
    return params["s"], params["t"], entries


def build_completion(data):
    return lrsdp.gen_matrix_completion(*data)


@dataclass(frozen=True)
class Workload:
    """A suite of ``size`` instances; ``inputs`` is the benchmark's own
    random generation (untimed), ``build`` the timed lrsdp set-up."""

    name: str
    layer: str
    inputs: Callable
    build: Callable
    params: dict
    size: int
    smoke_params: dict


WORKLOADS = {w.name: w for w in (
    Workload("bqp-moment", "rtr (tCG Hessian products)",
             bqp_data, build_bqp, {"q": 16}, 2, {"q": 4}),
    Workload("completion", "problem (n^2 adjoint) and Hessian products",
             completion_samples, build_completion,
             {"s": 200, "t": 200, "rank": 3, "samples": 10000}, 4,
             {"s": 6, "t": 6, "rank": 1, "samples": 24}),
)}


def suite_key(workload, smoke):
    return ("smoke/" if smoke else "") + workload.name


def suite_params(workload, smoke):
    return workload.smoke_params if smoke else workload.params


def load_references(workload, smoke, path=REFERENCES):
    """Recorded objectives of the suite; refuses a suite that changed."""
    with open(path) as fh:
        recorded = json.load(fh)["suites"].get(suite_key(workload, smoke))
    if recorded is None or recorded["params"] != suite_params(workload, smoke):
        raise SystemExit(f"perfbench: no references recorded for "
                         f"{suite_key(workload, smoke)} with these parameters;"
                         f" run perfbench/record.py")
    return recorded["objectives"]


# --- one instance -----------------------------------------------------

@dataclass
class Instance:
    index: int
    problem: lrsdp.SdpProblem
    reference: float

    def options(self):
        return lrsdp.SolverOptions(seed=self.index)


def build_instance(workload, params, index, reference, setup_times):
    """Build instance ``index`` repeatedly, timing only lrsdp's part."""
    data = workload.inputs(params, index)
    spent = 0.0
    for builds in range(1, SETUP_MAX_BUILDS + 1):
        t0 = time.perf_counter()
        sdp = workload.build(data)
        setup_times.append(time.perf_counter() - t0)
        spent += setup_times[-1]
        if builds >= SETUP_MIN_BUILDS and spent >= SETUP_MIN_SECONDS:
            break
    return Instance(index, sdp, reference)


def certify(instance, solution):
    """The `lrsdp check` path plus the reference match; returns a record."""
    opts = instance.options()
    gc.collect()
    t0 = time.perf_counter()
    doc = io_cli.result_document(instance.problem, solution, opts)
    doc = json.loads(json.dumps(doc))
    res, ok = io_cli.check_document(doc, opts.tol)
    seconds = time.perf_counter() - t0
    ref = instance.reference
    matches = abs(solution.objective - ref) \
        <= OBJECTIVE_RTOL * max(1.0, abs(ref))
    return {
        "index": instance.index, "status": solution.status,
        "objective": solution.objective, "reference": ref,
        "eta_max": solution.residues.eta_max, "check_eta_max": res.eta_max,
        "certified": bool(solution.status == "converged" and ok and matches),
        "certify_s": seconds,
    }


def solve_and_certify(instance):
    gc.collect()
    t0 = time.perf_counter()
    solution = lrsdp.solve(instance.problem, instance.options())
    solve_s = time.perf_counter() - t0
    record = certify(instance, solution)
    record["solve_s"] = solve_s
    return record


# --- runs -------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(instances, seconds):
    """One pass over the suite, then further solves in the same order while
    the next one, timed by its previous solve, fits in ``seconds``."""
    start = time.perf_counter()
    records = [solve_and_certify(inst) for inst in instances]
    last = {r["index"]: r["solve_s"] + r["certify_s"] for r in records}
    for inst in itertools.cycle(instances):
        if time.perf_counter() - start + last[inst.index] > seconds:
            return records
        records.append(solve_and_certify(inst))
        last[inst.index] = records[-1]["solve_s"] + records[-1]["certify_s"]


def median_of_instances(records, key):
    """Median over instances of each instance's median ``key``, so that
    instances solved once more than others do not shift the figure."""
    per_instance = {}
    for r in records:
        per_instance.setdefault(r["index"], []).append(r[key])
    return statistics.median(statistics.median(v)
                             for v in per_instance.values())


def end_to_end_metrics(records, setup_times):
    certified = sum(r["certified"] for r in records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "solve_s": metric(median_of_instances(records, "solve_s"), "s"),
        "certified_frac": metric(certified / len(records), "ratio"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def traced_solve(instance):
    tracer = tracing.Tracer()
    gc.collect()
    with tracing.traced(tracer):
        solve = tracer.wrap("alm.solve", lrsdp.solve, None)
        solution = solve(instance.problem, instance.options())
        record = certify(instance, solution)
    record["solve_s"] = (tracer.ends[0] - tracer.starts[0]) * 1e-9
    return solution, tracer, record


def exact_counts(solution, tracer):
    """Every count a traced solve must repeat bit for bit."""
    counts = {f"{name}_calls": n for name, n in tracer.calls().items()}
    counts.update(tracer.counts)
    counts["alm.outer_iters"] = solution.iterations
    counts["alm.final_rank"] = solution.Y.p
    return counts


PER_LAYER_SECONDS = (
    ("alm.self_s", "alm.solve"),
    ("alm.subproblem_at_s", "alm.subproblem_at"),
    ("alm.assemble_dual_s", "alm.assemble_dual"),
    ("alm.escape_s", "alm.escape"),
    ("alm.truncate_rank_s", "alm.truncate_rank"),
    ("rtr.minimize_s", "rtr.minimize"),
    ("rtr.tcg_s", "rtr.tcg"),
    ("manifolds.hess_vec_s", "manifolds.hess_vec"),
    ("problem.apply_constraints_s", "problem.apply_constraints"),
    ("problem.adjoint_times_s", "problem.adjoint_times"),
    ("problem.adjoint_dense_s", "problem.adjoint_dense"),
    ("problem.kkt_residues_s", "problem.kkt_residues"),
    ("spectral.eigs_s", "spectral.eigs"),
    ("spectral.matvec_s", "spectral.matvec"),
    ("spectral.svd_s", "spectral.svd"),
    ("io_cli.result_document_s", "io_cli.result_document"),
    ("io_cli.check_document_s", "io_cli.check_document"),
)

PER_LAYER_CALLS = (
    ("alm.subproblem_at_calls", "alm.subproblem_at"),
    ("rtr.tcg_calls", "rtr.tcg"),
    ("manifolds.hess_vecs", "manifolds.hess_vec"),
    ("problem.apply_constraints_calls", "problem.apply_constraints"),
    ("problem.adjoint_times_calls", "problem.adjoint_times"),
    ("problem.adjoint_dense_calls", "problem.adjoint_dense"),
    ("spectral.eigs_calls", "spectral.eigs"),
)

PER_LAYER_COUNTS = ("alm.escape_cols", "rtr.inner_iters",
                    "spectral.matvec_cols") \
    + tuple("rtr.tcg_stop." + s for s in tracing.TCG_STOPS)


def per_layer_metrics(solution, tracer, untraced):
    own = tracer.self_seconds()
    calls = tracer.calls()
    out = {
        "io_cli.certify_s": metric(untraced["certify_s"], "s"),
        "alm.outer_iters": metric(solution.iterations, "count"),
        "alm.final_rank": metric(solution.Y.p, "count"),
        "alm.final_eta_max": metric(solution.residues.eta_max, "ratio"),
    }
    for key, span in PER_LAYER_SECONDS:
        out[key] = metric(own.get(span, 0.0), "s")
    for key, span in PER_LAYER_CALLS:
        out[key] = metric(calls.get(span, 0), "count")
    for key in PER_LAYER_COUNTS:
        out[key] = metric(tracer.counts.get(key, 0), "count")
    traced_s = (tracer.ends[0] - tracer.starts[0]) * 1e-9
    out["trace.overhead_frac"] = metric(traced_s / untraced["solve_s"] - 1.0,
                                        "ratio")
    return out


def run_traced(instance):
    """One untraced solve, then two traced solves that must repeat every
    count; returns (records, per-layer metrics, tracer of the first)."""
    untraced = solve_and_certify(instance)
    solution, tracer, first = traced_solve(instance)
    again, again_tracer, second = traced_solve(instance)
    if exact_counts(solution, tracer) != exact_counts(again, again_tracer):
        second["certified"] = False
        second["counts_repeated"] = False
    return [untraced, first, second], \
        per_layer_metrics(solution, tracer, untraced), tracer


# --- machine record and entry point -----------------------------------

def machine_record(blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed (held-out seed for claims: "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes over the suite while "
                             "another fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the benchmark's own tests")
    return parser.parse_args(argv)


def run(args, blas_threads):
    """Run one benchmark invocation; returns the result line and the
    record written to ``OUT_DIR``."""
    workload = WORKLOADS[args.workload]
    params = suite_params(workload, args.smoke)
    references = load_references(workload, args.smoke)
    order = np.random.default_rng(args.seed).permutation(len(references))
    if args.trace:
        order = order[:1]
    # first calls pay one-off costs (lazy imports, first LAPACK and ARPACK
    # calls); a tiny instance of the same family takes them untimed
    warm = build_instance(workload, workload.smoke_params, 0, 0.0, [])
    lrsdp.solve(warm.problem, warm.options())
    setup_times = []
    instances = [build_instance(workload, params, int(i), references[i],
                                setup_times) for i in order]
    record = {"workload": workload.name, "layer": workload.layer,
              "params": params, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(blas_threads)}
    if args.trace:
        records, metrics, tracer = run_traced(instances[0])
        record["spans"] = tracer.spans()
    else:
        records = run_end_to_end(instances, args.seconds)
        metrics = end_to_end_metrics(records, setup_times)
    failed = sum(not r["certified"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    record.update(solves=records, result=result)
    return result, record


def main(argv, blas_threads):
    args = parse_args(argv)
    result, record = run(args, blas_threads)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}{'-smoke' if args.smoke else ''}" \
        f"-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    print("machine " + json.dumps(record["machine"]))
    for r in record["solves"]:
        print(f"instance {r['index']}: {r['status']} "
              f"objective={r['objective']!r} solve_s={r['solve_s']:.3f} "
              f"certified={r['certified']}")
    print(json.dumps(result))
    return 0
