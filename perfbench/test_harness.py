"""Tests of the benchmark harness on its smoke suites (tiny instances).

Run from the repository root:  python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload, trace, seed=5):
    args = harness.parse_args(["--workload", workload, "--seed", str(seed),
                               "--seconds", "0", "--trace", str(trace),
                               "--smoke"])
    return harness.run(args, blas_threads=1)


def expected(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_end_to_end_smoke_certifies_and_reports_every_metric(workload):
    result, record = smoke_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(record["solves"]) >= 2
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected("end_to_end")
    assert result["metrics"]["certified_frac"]["value"] == 1.0
    assert record["machine"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_smoke_reports_every_per_layer_metric(workload):
    result, record = smoke_run(workload, trace=1)
    assert result["correct"] and result["attempted"] == 3
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected("per_layer")
    metrics = result["metrics"]
    assert metrics["manifolds.hess_vecs"]["value"] > 0
    assert metrics["rtr.tcg_calls"]["value"] == sum(
        metrics[f"rtr.tcg_stop.{s}"]["value"] for s in tracing.TCG_STOPS)
    assert record["spans"][0][0] == "alm.solve"


def test_seed_fixes_the_order():
    def order():
        return [r["index"] for r in smoke_run("completion", 0, 3)[1]["solves"]]
    assert order() == order()


def test_instances_solved_more_often_do_not_shift_the_median():
    records = [{"index": 0, "solve_s": 1.0}, {"index": 0, "solve_s": 3.0},
               {"index": 0, "solve_s": 2.0}, {"index": 1, "solve_s": 10.0}]
    assert harness.median_of_instances(records, "solve_s") == 6.0


def test_wrong_reference_is_counted_and_the_run_goes_on(monkeypatch):
    real = harness.load_references

    def off_by_one_percent(workload, smoke):
        refs = list(real(workload, smoke))
        refs[0] *= 1.01
        return refs

    monkeypatch.setattr(harness, "load_references", off_by_one_percent)
    result, record = smoke_run("completion", trace=0)
    bad = [r for r in record["solves"] if not r["certified"]]
    assert bad and all(r["index"] == 0 for r in bad)
    assert result["failed"] == len(bad) and not result["correct"]
    assert result["attempted"] == len(record["solves"])
    assert result["metrics"]["certified_frac"]["value"] \
        == 1.0 - len(bad) / len(record["solves"])


def test_count_mismatch_between_traced_solves_fails(monkeypatch):
    calls = iter(range(100))
    monkeypatch.setattr(harness, "exact_counts",
                        lambda solution, tracer: {"call": next(calls)})
    result, record = smoke_run("bqp-moment", trace=1)
    assert not result["correct"] and result["failed"] == 1
    assert record["solves"][2]["counts_repeated"] is False


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.names[:] = ["outer", "inner", "inner"]
    tracer.parents[:] = [-1, 0, 0]
    tracer.starts[:] = [0, 10, 50]
    tracer.ends[:] = [100, 30, 80]
    own = tracer.self_seconds()
    assert own["outer"] == pytest.approx(50e-9)
    assert own["inner"] == pytest.approx(50e-9)
    assert tracer.calls() == {"outer": 1, "inner": 2}


def test_traced_block_restores_every_attribute():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            during = [vars(owner)[attr]
                      for owner, attr, _, _ in tracing.TARGETS]
            assert not any(a is b for a, b in zip(before, during))
            raise RuntimeError("stop")
    after = [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "completion",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
