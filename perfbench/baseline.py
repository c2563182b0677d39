"""Record the seed-0 baseline: one untraced and one traced run per workload.

Run from the root of the repository::

    python3 perfbench/baseline.py

and it writes ``perfbench/baseline.json``: for every workload, the
environment and the result line of ``run.py`` with ``--trace 0`` and with
``--trace 1``, each at ``BENCHMARK.json``'s ``run_seconds``, so that a change
can cite its layer metrics before and after.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    baseline = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        baseline[name] = {"untraced": run(name, spec["run_seconds"], 0),
                          "traced": run(name, spec["run_seconds"], 1)}
        print(name, json.dumps(baseline[name]["untraced"]["result"]["metrics"]), flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
