"""Benchmark of iclsq: time to solution, memory and counted work, per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh single-threaded worker process (``bench.py``) that
sets the problem up, solves once, checks the result and exits; samples are
taken one after another (a closed loop with one client) until ``--seconds``
is used up, and never fewer than ``MIN_WORKERS``. Every metric is the median
over the samples. With ``--trace 0`` the result holds the end-to-end metrics;
with ``--trace 1`` every worker also repeats its solve with the layer entry
points wrapped, and the result holds the per-layer metrics.

The last line of standard output is the result as JSON; the lines before it
give the environment, every sample and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_WORKERS = 3
# A run stops starting workers once it would pass this many seconds, so that
# it ends within the 180 s a run may take.
DEADLINE_S = 150.0

COUNTS = ("iterations", "pde_solves", "adjoint_solves", "jvp", "cg_iters")
# end-to-end metric -> unit; each is summed over the solves of one sample
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    **{name: "count" for name in COUNTS},
}

# setup_s, solve_s and every per-layer time are reference seconds: each
# worker's wall time scaled by CALIB_REF_S over the mean time the same worker
# took for a fixed calibration kernel (``bench.calibrate``) around it: the
# pair before and after the set-up, or for the solves every calibration from
# the end of the set-up on. The shared host's speed drifts by a third between
# runs minutes apart and the ratio does not; the wall times are printed
# beside them. CALIB_REF_S is about the kernel's time on the
# 2-vCPU Xeon host the bounds were set on, so the two read alike there.
CALIB_REF_S = 0.16

# One BLAS thread: the workloads are single-threaded batch solves.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One sample in a fresh process; raises RuntimeError if it does not finish cleanly."""
    env = dict(os.environ, **WORKER_ENV, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "bench.py"), workload, str(seed), str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_s(calib_s: list[float], wall_s: float) -> float:
    """A wall time in reference seconds, given the calibrations around it (see CALIB_REF_S)."""
    return wall_s * CALIB_REF_S / statistics.fmean(calib_s)


def setup_reference_s(result: dict) -> float:
    return reference_s(result["calib_s"][:2], result["setup_s"])


def solve_reference_s(result: dict, wall_s: float) -> float:
    return reference_s(result["calib_s"][1:], wall_s)


def layer_values(result: dict) -> dict:
    """A traced worker's layer metrics, every time in reference seconds.

    ``trace.overhead_s`` is the traced solve's time less the untraced one's.
    """
    values = {}
    for name, value in result["layers"].items():
        unit = layers.LAYER_METRICS[name][0]
        values[name] = solve_reference_s(result, value) if unit == "s" and value is not None else value
    values["trace.overhead_s"] = (solve_reference_s(result, result["traced"]["solve_s"])
                                  - solve_reference_s(result, result["solve"]["solve_s"]))
    return values


def aggregate(results: list[dict], trace: bool) -> dict:
    """The result line from the samples' results.

    Counts must repeat exactly across every solve of one seed; a solve whose
    counts differ from the first one's counts as failed. Timings are medians
    over the solves that passed their check.
    """
    solves = [r["solve"] for r in results] + [r["traced"] for r in results if "traced" in r]
    attempted = sum(s["attempted"] for s in solves)
    failed = sum(s["failed"] for s in solves)
    reference = next((s["counts"] for s in solves if s["counts"] is not None), None)
    for s in solves:
        if s["counts"] is not None and s["counts"] != reference:
            failed += s["attempted"] - s["failed"]
            s["errors"].append(f"counts {s['counts']} differ from {reference}")
    passed = [r for r in results if r["solve"]["failed"] == 0] or results
    if trace:
        metrics = {}
        per_sample = [layer_values(r) for r in passed]
        for name, (unit, _) in layers.LAYER_METRICS.items():
            values = [v[name] for v in per_sample]
            if any(v is None for v in values):
                metrics[name] = {"value": None, "unit": unit, "absent": True}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setup_reference_s(r) for r in results),
            "solve_s": statistics.median(solve_reference_s(r, r["solve"]["solve_s"]) for r in passed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            **{name: (reference or {}).get(name) for name in COUNTS},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iclsq" / "__init__.py").is_file():
        print(f"no iclsq package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    env = {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        **WORKER_ENV,
    }
    start = time.monotonic()
    results: list[dict] = []
    while True:
        begun = time.monotonic()
        try:
            result = run_worker(args.workload, args.seed, bool(args.trace),
                                timeout=DEADLINE_S + 20.0 - (begun - start))
        except RuntimeError as exc:
            print(f"sample {len(results)} failed: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        solve = result["solve"]
        print(f"sample {len(results) - 1}: setup_s={result['setup_s']:.6f} "
              f"(n={result['setups']}) solve_s={solve['solve_s']:.6f} "
              f"calib_s={statistics.fmean(result['calib_s']):.6f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} counts={solve['counts']} "
              f"errors={solve['errors']}")
        now = time.monotonic()
        last = now - begun
        if now - start + last > DEADLINE_S:
            break
        if len(results) >= MIN_WORKERS and now - start + last > args.seconds:
            break
    env["versions"] = results[0]["versions"]
    env["samples"] = len(results)
    env["wall_s"] = time.monotonic() - start

    out = aggregate(results, bool(args.trace))
    env["setup_wall_s"] = statistics.median(r["setup_s"] for r in results)
    env["solve_wall_s"] = statistics.median(r["solve"]["solve_s"] for r in results)
    env["calib_s"] = statistics.median(t for r in results for t in r["calib_s"])
    print("env " + json.dumps(env, sort_keys=True))
    for name in ("setup_wall_s", "solve_wall_s", "calib_s"):
        print(f"{name} = {env[name]} s (wall time, median of {len(results)} samples)")
    for name, metric in out["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}" + (" (absent)" if metric.get("absent") else ""))
    print(f"failed_share = {out['failed'] / out['attempted']} fraction "
          f"({out['failed']} of {out['attempted']} solves or cells)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
