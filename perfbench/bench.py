"""One benchmark worker: set up, solve, check and measure one workload in this process.

Run as a script it is the fresh single-threaded process that ``run.py``
starts for every sample::

    python3 perfbench/bench.py WORKLOAD SEED TRACE

and prints one JSON object. Imported, it gives the self-test the same code
path at tiny sizes.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import iclsq
import iclsq.harness
import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import layers
from workloads import OBJECTIVE_RTOL, TINY, WORKLOADS, Workload, cell_key

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

CONVERGED = ("converged_residual", "converged_scaled_gradient")
# Cheap constructors are repeated for this long and timed as one batch: the
# host switches between a fast and a slow state several times a second, and
# one construction of a fraction of a millisecond would land in either.
SETUP_SECONDS = 0.5

# The fresh evaluation at the returned control must reproduce the returned
# residual norm and scaled gradient to this relative tolerance.
RECHECK_RTOL = 1e-8


def time_setup(workload: Workload):
    """Construct the problem for at least SETUP_SECONDS (at least once).

    Returns the last problem, the mean seconds per construction and the
    number of constructions.
    """
    count = 0
    start = time.perf_counter()
    while True:
        problem = workload.build()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_SECONDS:
            return problem, elapsed / count, count


@contextlib.contextmanager
def _patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block.

    Raises AttributeError if ``owner`` has no ``attr``.
    """
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _relclose(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_outcome(workload: Workload, problem, cfg: dict, outcome) -> tuple[list[str], float]:
    """Reasons the solve's result is wrong (empty when it passes), and its objective.

    The state is solved again at the returned control through ``solve`` with
    no iterations, which recomputes the residual and the gradient there.
    """
    key = cell_key(cfg)
    errors = []
    if outcome.status.value not in CONVERGED:
        errors.append(f"{key}: status {outcome.status.value}")
    if outcome.counters.forward_solves != outcome.iterations + 1:
        errors.append(
            f"{key}: pde_solves {outcome.counters.forward_solves} != "
            f"iterations + 1 = {outcome.iterations + 1}"
        )
    fresh = iclsq.solve(
        problem,
        outcome.u,
        iclsq.SolverConfig(eps_R=cfg["eps_R"], eps_g=cfg["eps_g"], max_iter=0),
    )
    if not _relclose(fresh.residual_norm, outcome.residual_norm, RECHECK_RTOL):
        errors.append(
            f"{key}: residual norm {outcome.residual_norm!r} but {fresh.residual_norm!r} "
            "at the returned control"
        )
    if not _relclose(fresh.scaled_gradient, outcome.scaled_gradient, RECHECK_RTOL):
        errors.append(
            f"{key}: scaled gradient {outcome.scaled_gradient!r} but "
            f"{fresh.scaled_gradient!r} at the returned control"
        )
    objective = 0.5 * fresh.residual_norm**2
    reference = workload.reference.get(key)
    if reference is None:
        errors.append(f"{key}: no reference objective recorded")
    elif not _relclose(objective, reference, OBJECTIVE_RTOL):
        errors.append(f"{key}: objective {objective!r} vs reference {reference!r}")
    return errors, objective


def solve_once(workload: Workload, problem, seed: int, timed=contextlib.nullcontext) -> dict:
    """Time one solve (or one sweep) and check every result it returns.

    ``timed`` is entered around the timed call only, so a tracer records the
    solve and not the checks.
    """
    if workload.sweep is None:
        cfg = workload.cells()[0]
        counters = iclsq.EvalCounters()
        u0 = workload.start(problem.n, seed)
        config = iclsq.SolverConfig(**cfg)
        try:
            with timed():
                start = time.perf_counter()
                try:
                    outcome = iclsq.solve(problem, u0, config, counters=counters)
                finally:
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed solve is a benchmark result
            return _failed(elapsed, 1, f"{type(exc).__name__}: {exc}")
        errors, objective = check_outcome(workload, problem, cfg, outcome)
        counts = {
            "iterations": outcome.iterations,
            "pde_solves": counters.forward_solves,
            "adjoint_solves": counters.adjoint_solves,
            "jvp": counters.jacobian_applies,
            "cg_iters": counters.cg_iterations,
        }
        return {"solve_s": elapsed, "counts": counts, "attempted": 1,
                "failed": int(bool(errors)), "errors": errors, "trace_bytes": 0,
                "objectives": {cell_key(cfg): objective}}
    return _sweep_once(workload, problem, seed, timed)


def _sweep_once(workload: Workload, problem, seed: int, timed) -> dict:
    theta_grid, eps_grid = workload.sweep
    cells = workload.cells()
    outcomes, starts = [], []

    def capture(solve):
        def capturing(*args, **kwargs):
            outcomes.append(None)  # stays None for a cell whose solve raised
            outcomes[-1] = solve(*args, **kwargs)
            return outcomes[-1]
        return capturing

    def seeded(default_control):
        def start(prob, name):
            starts.append(name)
            return workload.start(prob.n, seed)
        return start

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT_ROOT))
    try:
        spec = iclsq.ExperimentSpec(
            problem=workload.problem,
            problem_params=dict(workload.params),
            theta_grid=theta_grid,
            eps_grid=eps_grid,
            hessian_mode=workload.solver.get("hessian_mode", "gauss_newton"),
            out_dir=out_dir,
        )
        # Every cell's solve is captured, and its starting control seeded,
        # through the names the harness looks up on its module.
        with _patched(iclsq.harness, "solve", capture), \
                _patched(iclsq.harness, "default_control", seeded):
            try:
                with timed():
                    start = time.perf_counter()
                    try:
                        rows = iclsq.run_experiment(spec)
                    finally:
                        elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed sweep is a benchmark result
                return _failed(elapsed, len(cells), f"{type(exc).__name__}: {exc}")
        trace_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if not len(cells) == len(rows) == len(outcomes) == len(starts):
        return _failed(elapsed, len(cells), (
            f"harness not intercepted: {len(cells)} cells, {len(rows)} rows, "
            f"{len(outcomes)} captured solves, {len(starts)} seeded starts"))
    errors, failed, objectives = [], 0, {}
    for cfg, row, outcome in zip(cells, rows, outcomes):
        cell_errors = [] if row.status in CONVERGED else [f"{cell_key(cfg)}: row status {row.status}"]
        if outcome is not None:
            outcome_errors, objectives[cell_key(cfg)] = check_outcome(workload, problem, cfg, outcome)
            cell_errors += outcome_errors
            if (row.pde_solves, row.jvp) != (outcome.counters.forward_solves,
                                             outcome.counters.jacobian_applies):
                cell_errors.append(f"{cell_key(cfg)}: summary row disagrees with the solve")
        failed += bool(cell_errors)
        errors += cell_errors
    counts = {
        "iterations": sum(r.iterations for r in rows),
        "pde_solves": sum(r.pde_solves for r in rows),
        "adjoint_solves": sum(r.adjoint_solves for r in rows),
        "jvp": sum(r.jvp for r in rows),
        "cg_iters": sum(r.cg_iters for r in rows),
    }
    return {"solve_s": elapsed, "counts": counts, "attempted": len(cells),
            "failed": failed, "errors": errors, "trace_bytes": trace_bytes,
            "objectives": objectives}


def _failed(elapsed: float, attempted: int, message: str) -> dict:
    return {"solve_s": elapsed, "counts": None, "attempted": attempted,
            "failed": attempted, "errors": [message], "trace_bytes": 0, "objectives": {}}


def run_worker(workload: Workload, seed: int, trace: bool) -> dict:
    """Everything one process measures: set-up times, one solve, and if
    ``trace`` a second, traced solve with its layer metrics.

    ``calib_s`` holds the calibration times taken before the set-up and
    after it and each solve; ``run.py`` scales every time by the mean of the
    calibrations around it.
    """
    before = calibrate()
    problem, setup_s, setups = time_setup(workload)
    result = {"workload": workload.name, "seed": seed, "setup_s": setup_s, "setups": setups,
              "calib_s": [before, calibrate()]}
    result["solve"] = solve_once(workload, problem, seed)
    result["calib_s"].append(calibrate())
    if trace:
        tracer = layers.Tracer()
        with tracer:
            run_id = tracer.start_run()
            traced = solve_once(workload, problem, seed, tracer.recording_on)
        jvp = traced["counts"]["jvp"] if traced["counts"] else 0
        metrics = layers.layer_metrics(tracer, run_id, jvp)
        metrics["harness.trace_bytes"] = traced["trace_bytes"]
        result["calib_s"].append(calibrate())
        result["traced"] = traced
        result["layers"] = metrics
        result["spans"] = layers.summarize(tracer.spans, run_id)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    return result


def calibrate() -> float:
    """Seconds this CPU takes for a fixed kernel that does not use iclsq.

    The shared host's speed drifts by a third over minutes, alike for this
    kernel and for the set-up and solve timed next to it; ``run.py`` divides
    by it to take the drift out of the gated times. The kernel mixes the
    kinds of work the solves do: interpreted Python, scipy calls on 16x16 and
    128x128 dense systems, and a sparse solve.
    """
    rng = np.random.default_rng(0)
    small = rng.standard_normal((16, 16)) + 16 * np.eye(16)
    large = rng.standard_normal((128, 128)) + 128 * np.eye(128)
    tri = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(4000, 4000), format="csc")
    tri_lu = spla.splu(tri)
    v16, v128, v4000 = small[0], large[0], rng.standard_normal(4000)
    start = time.perf_counter()
    for _ in range(30):
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(50):
            x = sla.lu_solve(sla.lu_factor(small), v16)
            acc += float(x @ x)
        for _ in range(5):
            sla.lu_solve(sla.lu_factor(large), v128)
        for _ in range(10):
            tri_lu.solve(tri @ v4000)
    return time.perf_counter() - start


def blas_info() -> list[dict]:
    """Every OpenBLAS loaded in this process, with the thread count in effect."""
    out = []
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                entry["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
            if threads is not None:
                break
        out.append(entry)
    return out


def versions() -> dict:
    """Interpreter and library versions of this process, and its BLAS threads."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas": blas_info(),
    }


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    workload = {**WORKLOADS, **TINY}[name]
    print(json.dumps(run_worker(workload, seed, trace), allow_nan=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
