"""Self-test of the benchmark at tiny sizes.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types

import iclsq.harness
import pytest

import bench
import layers
import run
from workloads import TINY, WORKLOADS


@pytest.fixture(scope="module")
def samples():
    """Two traced workers per tiny workload, both on the same seed."""
    return {name: [bench.run_worker(w, 3, trace=True) for _ in range(2)] for name, w in TINY.items()}


def test_every_metric_is_emitted_with_its_unit(samples):
    for name, results in samples.items():
        end_to_end = run.aggregate(results, trace=False)
        assert end_to_end["correct"], (name, [r["solve"]["errors"] for r in results])
        assert end_to_end["failed"] == 0 and end_to_end["attempted"] > 0
        assert list(end_to_end["metrics"]) == list(run.END_TO_END)
        for metric, entry in end_to_end["metrics"].items():
            assert entry["unit"] == run.END_TO_END[metric]
            assert entry["value"] > 0, (name, metric)

        per_layer = run.aggregate(results, trace=True)
        assert per_layer["correct"], name
        assert list(per_layer["metrics"]) == list(layers.LAYER_METRICS)
        for metric, entry in per_layer["metrics"].items():
            assert entry["unit"] == layers.LAYER_METRICS[metric][0]
            assert isinstance(entry["value"], (int, float)), (name, metric)


def test_counts_repeat_exactly_for_a_seed(samples):
    for name, results in samples.items():
        solves = [r["solve"] for r in results] + [r["traced"] for r in results]
        assert all(s["counts"] == solves[0]["counts"] for s in solves), name
        for metric, (unit, _) in layers.LAYER_METRICS.items():
            if unit == "count":
                assert results[0]["layers"][metric] == results[1]["layers"][metric], (name, metric)


def test_self_times_fit_in_the_traced_solve(samples):
    for name, results in samples.items():
        for r in results:
            m = r["layers"]
            named = m["solver.self_s"] + m["subproblem.krylov_self_s"] + m["core.operator_s"] + m["harness.self_s"]
            every = sum(row["self_s"] for row in r["spans"].values())
            assert 0 < named <= every <= r["traced"]["solve_s"], name


def test_layer_metrics_follow_the_workload(samples):
    zero = samples["tiny-burgers-zero"][0]["layers"]
    assert zero["subproblem.norm_estimates"] == 0
    assert zero["subproblem.norm_estimate_s"] == 0.0
    assert zero["adjoint.counted_ratio"] == 1.0
    elliptic = samples["tiny-elliptic"][0]["layers"]
    assert elliptic["burgers.state_solves"] == 0 and elliptic["elliptic.state_solves"] > 0
    assert elliptic["harness.trace_bytes"] == 0
    sweep = samples["tiny-sweep"][0]["layers"]
    assert sweep["subproblem.norm_estimates"] > 0 and sweep["adjoint.counted_ratio"] < 1.0
    assert sweep["burgers.newton_iters"] >= sweep["burgers.state_solves"] > 0
    assert sweep["harness.trace_bytes"] > 0 and sweep["harness.self_s"] > 0


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setitem(layers.TARGETS, "burgers.lin_solve",
                        [("iclsq.burgers", "BurgersProblem.removed_method")])
    result = bench.run_worker(TINY["tiny-sweep"], 0, trace=True)
    out = run.aggregate([result], trace=True)
    assert out["correct"]
    for metric in ("burgers.lin_solve_s", "burgers.linear_solves", "burgers.factor_builds"):
        entry = out["metrics"][metric]
        assert entry["value"] is None and entry["absent"], metric
    assert out["metrics"]["burgers.adj_solve_s"]["value"] > 0


def test_layer_times_are_reference_seconds(samples):
    result = samples["tiny-sweep"][0]
    out = run.aggregate([result], trace=True)["metrics"]
    for name in ("subproblem.krylov_s", "burgers.state_solve_s"):
        assert out[name]["value"] == run.solve_reference_s(result, result["layers"][name])
    overhead = result["traced"]["solve_s"] - result["solve"]["solve_s"]
    assert out["trace.overhead_s"]["value"] == pytest.approx(run.solve_reference_s(result, overhead))


def test_sweep_the_benchmark_cannot_intercept_counts_as_failed(monkeypatch):
    # A harness whose cells look ``solve`` and ``default_control`` up
    # somewhere other than on its module.
    cell = iclsq.harness._run_cell
    detached = types.FunctionType(cell.__code__, dict(vars(iclsq.harness)), cell.__name__)
    monkeypatch.setattr(iclsq.harness, "_run_cell", detached)
    result = bench.run_worker(TINY["tiny-sweep"], 3, trace=False)
    out = run.aggregate([result], trace=False)
    assert not out["correct"] and out["failed"] == out["attempted"] > 0
    assert "not intercepted" in result["solve"]["errors"][0]


def test_sweep_fails_loudly_without_the_harness_names(monkeypatch):
    monkeypatch.delattr(iclsq.harness, "default_control")
    with pytest.raises(AttributeError):
        bench.run_worker(TINY["tiny-sweep"], 0, trace=False)


def test_wrong_result_counts_as_failed():
    workload = TINY["tiny-burgers-zero"]
    [(key, value)] = workload.reference.items()
    wrong = dataclasses.replace(workload, reference={key: 2 * value})
    out = run.aggregate([bench.run_worker(wrong, 0, trace=False)], trace=False)
    assert not out["correct"] and out["failed"] == out["attempted"] == 1


def test_benchmark_json_declares_what_is_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.LAYER_METRICS.items()
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burgers-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
