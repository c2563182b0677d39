"""Per-layer tracing from outside the package.

The traced run wraps the public entry points of each layer and records one
span per call: name, start, end, parent span and run id. Spans stay in
memory until the run ends; layer metrics are computed from them afterwards.

Wrappers are installed where callers look the targets up: the solver's
helpers on ``iclsq.solver``, the per-cell ``solve`` on ``iclsq.harness``,
problem and Jacobian methods on their classes. A target that does not exist
(say, after a refactor removes it) is skipped, and every metric that needs it
is reported as absent rather than as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# span name -> (module, attribute path) of every target that opens it
TARGETS = {
    "solver.solve": [("iclsq", "solve"), ("iclsq.harness", "solve")],
    "harness.run_experiment": [("iclsq", "run_experiment")],
    "subproblem.norm_estimate": [("iclsq.solver", "estimate_operator_norm")],
    "subproblem.krylov": [
        ("iclsq.solver", "exact_step"),
        ("iclsq.solver", "truncated_cg_step"),
    ],
    "adjoint.apply": [("iclsq.adjoint", "ReducedJacobian.apply")],
    "adjoint.apply_transpose": [("iclsq.adjoint", "ReducedJacobian.apply_transpose")],
    "core.operator": [
        ("iclsq.core", "LinearOperator.matvec"),
        ("iclsq.core", "LinearOperator.rmatvec"),
    ],
    "burgers.state_solve": [("iclsq.burgers", "BurgersProblem.solve_state")],
    "burgers.step_jacobian": [("iclsq.burgers", "BurgersProblem.step_jacobian")],
    "burgers.lin_solve": [("iclsq.burgers", "BurgersProblem.solve_cy")],
    "burgers.adj_solve": [("iclsq.burgers", "BurgersProblem.solve_cy_transpose")],
    "elliptic.state_solve": [("iclsq.elliptic", "EllipticProblem.solve_state")],
    "elliptic.lin_solve": [("iclsq.elliptic", "EllipticProblem.solve_cy")],
    "elliptic.adj_solve": [("iclsq.elliptic", "EllipticProblem.solve_cy_transpose")],
}

# per-layer metric -> (unit, span names it is computed from)
LAYER_METRICS = {
    "subproblem.norm_estimate_s": ("s", ["subproblem.norm_estimate"]),
    "subproblem.norm_estimates": ("count", ["subproblem.norm_estimate"]),
    "subproblem.krylov_s": ("s", ["subproblem.krylov"]),
    "subproblem.krylov_self_s": ("s", ["subproblem.krylov"]),
    "subproblem.krylov_steps": ("count", ["subproblem.krylov"]),
    "adjoint.apply_s": ("s", ["adjoint.apply"]),
    "adjoint.applies": ("count", ["adjoint.apply"]),
    "adjoint.apply_transpose_s": ("s", ["adjoint.apply_transpose"]),
    "adjoint.apply_transposes": ("count", ["adjoint.apply_transpose"]),
    "adjoint.counted_ratio": ("ratio", ["adjoint.apply", "adjoint.apply_transpose"]),
    "burgers.state_solve_s": ("s", ["burgers.state_solve"]),
    "burgers.state_solves": ("count", ["burgers.state_solve"]),
    "burgers.newton_iters": ("count", ["burgers.state_solve", "burgers.step_jacobian"]),
    "burgers.lin_solve_s": ("s", ["burgers.lin_solve"]),
    "burgers.adj_solve_s": ("s", ["burgers.adj_solve"]),
    "burgers.linear_solves": ("count", ["burgers.lin_solve", "burgers.adj_solve"]),
    "burgers.factor_builds": (
        "count",
        ["burgers.lin_solve", "burgers.adj_solve", "burgers.step_jacobian"],
    ),
    "elliptic.state_solve_s": ("s", ["elliptic.state_solve"]),
    "elliptic.state_solves": ("count", ["elliptic.state_solve"]),
    "elliptic.lin_solve_s": ("s", ["elliptic.lin_solve"]),
    "elliptic.adj_solve_s": ("s", ["elliptic.adj_solve"]),
    "elliptic.linear_solves": ("count", ["elliptic.lin_solve", "elliptic.adj_solve"]),
    "core.operator_applies": ("count", ["core.operator"]),
    "core.operator_s": ("s", ["core.operator"]),
    "solver.self_s": ("s", ["solver.solve"]),
    "harness.self_s": ("s", ["harness.run_experiment"]),
    "harness.trace_bytes": ("bytes", []),
    "trace.overhead_s": ("s", []),
}


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted target, or None if any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span recorder that patches the layer entry points while installed.

    A span is ``[name, start, end, parent_index, run_id]``; ``parent_index``
    is -1 for a root. Calls made while ``recording`` is false open no span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.run_id = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> "Tracer":
        for name, targets in TARGETS.items():
            for module, path in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.add(name)
                    continue
                owner, attr = found
                original = owner.__dict__.get(attr)
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
                self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def recording_on(self):
        """Record spans for the duration of the block."""
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def start_run(self) -> int:
        """Open a new run id; spans recorded from now on carry it."""
        self.run_id += 1
        return self.run_id


def summarize(spans: list[list], run_id: int) -> dict:
    """Per span name: calls, inclusive seconds and self seconds for one run.

    Inclusive time counts only the outermost span of a name, so a name that
    nests in itself (an operator applied inside another) is not counted
    twice. Self time is a span's duration minus its direct children's, so
    self times of all names add up to the root span's duration.
    """
    index = {i: s for i, s in enumerate(spans) if s[4] == run_id}
    child_time: dict[int, float] = {}
    for s in index.values():
        if s[3] in index:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    out: dict[str, dict] = {}
    for i, s in index.items():
        row = out.setdefault(s[0], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        duration = s[2] - s[1]
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(i, 0.0)
        parent = s[3]
        while parent in index and index[parent][0] != s[0]:
            parent = index[parent][3]
        if parent not in index:
            row["inclusive_s"] += duration
    return out


def _calls_under(spans: list[list], run_id: int, name: str, parents: set[str]) -> tuple[int, int]:
    """(calls of ``name`` whose parent is in ``parents``, distinct such parents)."""
    calls, owners = 0, set()
    for s in spans:
        if s[4] == run_id and s[0] == name and s[3] >= 0 and spans[s[3]][0] in parents:
            calls += 1
            owners.add(s[3])
    return calls, len(owners)


def layer_metrics(tracer: Tracer, run_id: int, jvp: int) -> dict:
    """Every per-layer metric of one traced run except the two callers measure.

    ``harness.trace_bytes`` and ``trace.overhead_s`` come from outside the
    spans: the worker fills in the first and ``run.py`` the second. Times are
    wall seconds. A metric whose spans could not be installed has value None.
    """
    summary = summarize(tracer.spans, run_id)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def inclusive(name):
        return summary.get(name, {}).get("inclusive_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    applies = calls("adjoint.apply") + calls("adjoint.apply_transpose")
    newton, _ = _calls_under(tracer.spans, run_id, "burgers.step_jacobian", {"burgers.state_solve"})
    _, builds = _calls_under(
        tracer.spans, run_id, "burgers.step_jacobian", {"burgers.lin_solve", "burgers.adj_solve"}
    )
    values = {
        "subproblem.norm_estimate_s": inclusive("subproblem.norm_estimate"),
        "subproblem.norm_estimates": calls("subproblem.norm_estimate"),
        "subproblem.krylov_s": inclusive("subproblem.krylov"),
        # The Krylov kernel's direct children are its operator applications,
        # each of which wraps the adjoint work.
        "subproblem.krylov_self_s": self_s("subproblem.krylov"),
        "subproblem.krylov_steps": calls("subproblem.krylov"),
        "adjoint.apply_s": inclusive("adjoint.apply"),
        "adjoint.applies": calls("adjoint.apply"),
        "adjoint.apply_transpose_s": inclusive("adjoint.apply_transpose"),
        "adjoint.apply_transposes": calls("adjoint.apply_transpose"),
        "adjoint.counted_ratio": jvp / applies if applies else 0.0,
        "burgers.state_solve_s": inclusive("burgers.state_solve"),
        "burgers.state_solves": calls("burgers.state_solve"),
        "burgers.newton_iters": newton,
        "burgers.lin_solve_s": inclusive("burgers.lin_solve"),
        "burgers.adj_solve_s": inclusive("burgers.adj_solve"),
        "burgers.linear_solves": calls("burgers.lin_solve") + calls("burgers.adj_solve"),
        # One base point factors every time step inside the first linearized
        # or adjoint solve that reaches it.
        "burgers.factor_builds": builds,
        "elliptic.state_solve_s": inclusive("elliptic.state_solve"),
        "elliptic.state_solves": calls("elliptic.state_solve"),
        "elliptic.lin_solve_s": inclusive("elliptic.lin_solve"),
        "elliptic.adj_solve_s": inclusive("elliptic.adj_solve"),
        "elliptic.linear_solves": calls("elliptic.lin_solve") + calls("elliptic.adj_solve"),
        # Self time: validation and the operator bodies, without the nested
        # adjoint applications and linear solves.
        "core.operator_applies": calls("core.operator"),
        "core.operator_s": self_s("core.operator"),
        # The sweep's JSONL records are written by a sink the solver calls, so
        # that I/O counts in solver.self_s; harness.self_s is the rest.
        "solver.self_s": self_s("solver.solve"),
        "harness.self_s": self_s("harness.run_experiment"),
    }
    for metric, (_, needs) in LAYER_METRICS.items():
        if metric in values and tracer.missing.intersection(needs):
            values[metric] = None
    return values
