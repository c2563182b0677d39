"""Outer regularization loop for implicitly constrained least squares.

Levenberg-Marquardt style iteration: build a quadratic model of the reduced
objective with curvature H + gamma I, step, solve the constraint at the
trial control, and accept or reject on the ratio of actual to predicted
decrease. gamma halves (floored) after acceptance and doubles after
rejection. One stop rule, ``_stop``, read by ``solve`` and ``Trajectory``
alike, ends the run once the residual norm or the scaled gradient norm
falls below its tolerance, or at the iteration budget.

Each iteration calls ``exact_step`` (theta = 0) or ``truncated_cg_step``
once, with the model as arguments. With Gauss-Newton curvature the bound on
||J^T J|| they need comes from ``estimate_operator_norm`` at the first
point, on a Jacobian whose own counters give the run's
``norm_probe_applies``, and is kept across linearizations after it. Every
step checks the bound against the curvature CGLS sees and raises it if that
proves it wrong (``curvature_raises``); the run takes on each step's bound.
Once a step's ``curvature_seen`` passes the bound divided by its safety
factor ``SAFETY_FACTOR``, the margin is spent, and the next linearization
the run steps from gets a fresh estimate. The linear elliptic problem keeps
one linearization, so it is estimated once per run. A failed trial point
and a nonpositive predicted decrease are rejected alike.

Every trial state solve gets a start, a guess of its state. The first trial
from an iterate starts from the Euler predictor y + c_y^{-1}(-c_u s), one
linearized solve on the iterate's factors, tallied in ``predictor_solves``
(Allgower & Georg, Introduction to Numerical Continuation Methods, 2003). A
retry from the same iterate starts, at no cost, from the secant
y + (||s|| / ||s_old||)(y_old - y) through the state y_old of the last
trial from there whose state solve succeeded with a nonzero step s_old, and
from the predictor while there is none.

``solve`` runs the generator ``_iterate``, which yields each loop top, and
keeps only the current top. Every run begins at the start a ``Trajectory``
holds: the state solve, residual, linearization and gradient at u0, and the
first curvature-norm estimate there, none of which depends on theta or the
tolerances; a plain ``solve`` makes a fresh one. A ``Trajectory`` given to
``solve`` keeps one stream of iterates per config apart from the
tolerances, all from its one start, and each solve reads its result off
its config's stream: a sweep shares one trajectory among its cells, so it
runs one stream per theta, and a cell's ``wall_ms`` is its stream's elapsed
time at the cell's stop. Each stream's counters still count the start's
work, so every cell reads the counts of its independent run.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .adjoint import ReducedJacobian
from .core import EvalCounters, ImplicitProblem, StateSolveError, as_vector, norm
from .core import check_integer, check_positive
from .subproblem import SAFETY_FACTOR, estimate_operator_norm, exact_step, truncated_cg_step

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "IterationTrace",
    "SolveOutcome",
    "default_gamma0",
    "solve",
    "Trajectory",
]

HESSIAN_MODES = ("zero", "gauss_newton")


class SolveStatus(str, Enum):
    CONVERGED_RESIDUAL = "converged_residual"
    CONVERGED_SCALED_GRADIENT = "converged_scaled_gradient"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class SolverConfig:
    """All knobs of the outer loop.

    gamma0 = None selects the scale-aware default max{1, ||g0||, ||u0||_inf + 1}
    computed from the initial gradient. theta = 0 requests near-exact steps;
    theta in (0, 1) is the relative inexactness of the truncated CG solve.
    """

    eps_R: float = 1e-6
    eps_g: float = 1e-4
    eta: float = 0.1
    gamma0: Optional[float] = None
    gamma_min: float = 1e-10
    theta: float = 0.0
    max_iter: int = 300
    hessian_mode: str = "gauss_newton"

    def __post_init__(self):
        if self.gamma0 is not None:
            self.gamma0 = check_positive("gamma0", self.gamma0)
        for name in ("gamma_min", "eps_R", "eps_g", "eta"):
            setattr(self, name, check_positive(name, getattr(self, name)))
        if isinstance(self.theta, bool) or self.theta != 0:  # theta = 0 is allowed
            self.theta = check_positive("theta", self.theta)
        else:  # -0.0 is the same theta as 0.0
            self.theta = 0.0
        self.max_iter = check_integer("max_iter", self.max_iter, 0)
        if not self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.gamma0 is not None and self.gamma_min > self.gamma0:
            raise ValueError("gamma_min must not exceed gamma0")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(f"hessian_mode must be one of {HESSIAN_MODES}")


@dataclass
class IterationTrace:
    """Record of one outer iteration, successful or not, taken at the
    iterate ``u`` the step starts from."""

    k: int
    gamma: float
    residual_norm: float
    grad_norm: float
    scaled_gradient: float
    model_decrease: float
    actual_decrease: Optional[float]  # None when the trial point failed
    rho: Optional[float]
    success: bool
    cg_iters: int
    step_norm: float
    step_residual_norm: float
    h_norm_estimate: float  # the bound the step ended with, which set cg_tolerance
    cg_tolerance: float
    curvature_seen: float  # the step's largest CGLS Rayleigh quotient, 0 for zero curvature
    counters: dict = field(default_factory=dict)
    note: str = ""
    u: Optional[np.ndarray] = None  # a copy; writing to it does not steer the run

    def to_dict(self) -> dict:
        """Every field except the iterate ``u``, as one JSONL record."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "u"}


@dataclass
class SolveOutcome:
    """Where a run ended: its status, final point and counters. The
    per-iteration records go to ``solve``'s ``trace_sink`` as they happen."""

    status: SolveStatus
    u: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    gradient: np.ndarray
    gamma: float
    iterations: int
    successes: int
    counters: EvalCounters

    @property
    def residual_norm(self) -> float:
        return norm(self.residual)

    @property
    def scaled_gradient(self) -> float:
        rn = self.residual_norm
        return norm(self.gradient) / rn if rn > 0 else 0.0


def default_gamma0(g0, u0) -> float:
    """Initial regularization weight max{1, ||g0||, ||u0||_inf + 1}."""
    g0 = as_vector(g0, name="g0")
    u0 = as_vector(u0, name="u0")
    u_inf = float(np.max(np.abs(u0))) if u0.size else 0.0
    return max(1.0, norm(g0), u_inf + 1.0)


def _stop(config: SolverConfig, k: int, r_norm: float, g_norm: float) -> Optional[SolveStatus]:
    """The stop rule at loop top ``k`` with residual and gradient norms
    ``r_norm`` and ``g_norm``: a converged status, else ``BUDGET_EXHAUSTED``
    at ``k == config.max_iter``, else None. The residual test comes first,
    so a zero residual never reaches the scaled-gradient division, and a top
    that converges at the budget reads converged."""
    if r_norm <= config.eps_R:
        return SolveStatus.CONVERGED_RESIDUAL
    if g_norm / r_norm <= config.eps_g:
        return SolveStatus.CONVERGED_SCALED_GRADIENT
    return SolveStatus.BUDGET_EXHAUSTED if k == config.max_iter else None


def solve(
    problem: ImplicitProblem,
    u0,
    config: SolverConfig,
    counters: EvalCounters | None = None,
    trace_sink: Callable[[IterationTrace], None] | None = None,
    trajectory: Trajectory | None = None,
) -> SolveOutcome:
    """Run the outer loop from u0 until convergence or budget exhaustion.

    Each iteration, accepted or not, goes to ``trace_sink`` as an
    ``IterationTrace`` holding a copy of its starting iterate; without a sink
    none is built. The stop rule ``_stop`` runs before each step.

    One forward solve happens at u0 and one per trial point, so the forward
    counter always equals the number of completed iterations plus one. A
    trial point whose state solve raises ``StateSolveError``, or whose
    residual is not finite, is a rejected iteration (tallied in
    ``failed_trial_solves``); a failure at u0 propagates, and a non-finite
    residual at u0 raises ``ValueError`` before any gradient is taken, and a
    gradient at u0 whose norm overflows raises ``FloatingPointError`` before
    gamma0 or any stopping test is computed from it. The
    problem is linearized and the gradient recomputed only at accepted points;
    with zero curvature the adjoint counter is exactly 1 + number of successes.

    With a ``trajectory``, the result is read off the stream it keeps for
    the solves that differ from this one only in ``eps_R`` and ``eps_g``
    (see ``Trajectory``): the same outcome, records, counters and exception.
    """
    u = as_vector(u0, problem.n, name="u0").copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 must be finite")
    if counters is None:
        counters = EvalCounters()
    if trajectory is not None:
        return trajectory._read(problem, u, config, counters, trace_sink)
    for k, u, y, R, g, gamma, successes in _iterate(problem, u, config, counters, trace_sink,
                                                    Trajectory()):
        status = _stop(config, k, norm(R), norm(g))
        if status is not None:
            return SolveOutcome(status, u, y, R, g, gamma, k, successes, counters)


class Trajectory:
    """The iterates shared by the solves from one problem and ``u0``, one
    stream per config apart from ``eps_R`` and ``eps_g``, which enter the
    method only in the stopping test.

    The first ``solve`` given a trajectory binds it to its problem and
    ``u0``; a later one with another problem or ``u0`` is refused with
    ``ValueError``. Each solve advances its config's stream as far as its own
    stop needs, replays the stream's records up to there to its sink, each
    with its own ``u`` and with ``counters`` offset by the solve's counters
    before it, and adds the stream's counters there to its own, as a plain
    ``solve`` would. A solve whose stop the stream has passed starts it over,
    on the same code; a grid whose looser tolerances come first never does.
    A stream that raised raises the same exception in every solve that needs
    a later top, with the counters and records it had then.

    Every stream, restarts included, begins at the trajectory's start: the
    state solve, residual, linearization and gradient at ``u0``, and the
    first curvature-norm estimate there, which depend on neither the config
    nor theta. The first stream to need each does it once, on counters of its
    own; every stream adds those counts to its own counters, as an
    independent run's would, and steps from copies of the start's vectors on
    its shared linearization, whose factors it only reads. A sweep passes one
    trajectory to all its cells (``run_experiment``), so its streams, one per
    theta, share one start; a plain ``solve`` runs on a fresh one.

    ``wall_s`` is the elapsed time of the stream read last at that solve's
    stop (or failure).
    """

    def __init__(self):
        self._binding = None
        self._streams = {}  # {the config but its tolerances, as a tuple: _Stream}
        self._start = None  # (its counts, (y, R, lin, g) or the exception), once done
        self._estimate = None
        self.wall_s = 0.0

    def _read(self, problem, u, config, counters, trace_sink) -> SolveOutcome:
        if self._binding is None:
            self._binding = (problem, u)
        elif problem is not self._binding[0] or u.tobytes() != self._binding[1].tobytes():
            raise ValueError("the trajectory is bound to another problem or u0")
        key = astuple(replace(config, eps_R=1.0, eps_g=1.0))
        stream = self._streams.get(key)
        if stream is None or any(_stop(config, k, *top) for k, top in enumerate(stream.norms[:-1])):
            stream = self._streams[key] = _Stream(problem, u, config, self)
        while True:
            k = len(stream.norms) - 1
            status = _stop(config, k, *stream.norms[k]) if stream.norms else None
            if status is not None or stream.error is not None:
                break
            stream.advance()

        failed = status is None  # the stream raised before the stop
        if failed:
            saved, self.wall_s, records = stream.counters, stream.elapsed, stream.records
        else:
            state, saved, self.wall_s = stream.top
            records = stream.records[:k]
        before = counters.snapshot()
        _add(counters, saved)
        if trace_sink is not None:  # copies, so no sink changes what a later one reads
            for record in records:
                trace_sink(replace(record, u=record.u.copy(), counters={
                    name: before[name] + count for name, count in record.counters.items()}))
        if failed:
            raise stream.error
        k, u, y, R, g, gamma, successes = state  # copied: the stream steps on from them
        return SolveOutcome(status, u.copy(), y.copy(), R.copy(), g.copy(), gamma, k,
                            successes, counters)

    def _take(self, problem, u, counters):
        """``(y, R, jac, g)`` at the start for a run that tallies in
        ``counters``, after adding the start's counts to them, or the
        exception the start failed with."""
        if self._start is None:
            spent = EvalCounters()
            try:
                result = _begin(problem, u, spent)
            except Exception as exc:
                result = exc
            self._start = (spent, result)
        spent, result = self._start
        _add(counters, spent)
        if isinstance(result, Exception):
            raise result
        y, R, lin, g = result
        return y.copy(), R.copy(), ReducedJacobian(problem, lin, counters), g.copy()

    def _first_estimate(self, problem) -> tuple:
        """``_estimate`` at the start's linearization, taken once."""
        if self._estimate is None:
            self._estimate = _estimate(problem, self._start[1][2])
        return self._estimate


class _Stream:
    """One stream of a ``Trajectory``: a run's own ``counters``, every
    ``IterationTrace`` in ``records``, the ``(||R||, ||g||)`` of every top
    in ``norms``, and the current top in ``top``, with the counters and the
    elapsed seconds there; ``error`` is the exception the run raised."""

    def __init__(self, problem, u, config, start):
        self.counters = EvalCounters()
        self.records = []
        self.norms = []
        self.top = None  # (yielded state, counters there, elapsed seconds there)
        self.error = None
        self.elapsed = 0.0
        self._tops = _iterate(problem, u, config, self.counters, self.records.append, start)

    def advance(self):
        began = time.perf_counter()
        try:
            state = next(self._tops)
            self.norms.append((norm(state[3]), norm(state[4])))
        except Exception as exc:
            self.error = exc
        self.elapsed += time.perf_counter() - began
        if self.error is None:
            self.top = (state, replace(self.counters), self.elapsed)


def _add(counters: EvalCounters, more: EvalCounters):
    """Add every count of ``more`` to ``counters``."""
    for f in fields(EvalCounters):
        setattr(counters, f.name, getattr(counters, f.name) + getattr(more, f.name))


def _begin(problem, u, counters) -> tuple:
    """``(y, R, lin, g)`` at ``u``: the state solve, the residual and its
    finiteness check, the linearization, and the gradient and its overflow
    check, tallied in ``counters``."""
    counters.forward_solves += 1  # counted before it is tried, as at trial points
    y = problem.solve_state(u, counters=counters)
    R = problem.residual(y, u)
    if not np.all(np.isfinite(R)):
        raise ValueError("the residual at u0 is not finite")
    jac = ReducedJacobian(problem, problem.linearize(y, u), counters)
    g = jac.apply_transpose(R)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        g_norm = norm(g)
    if not math.isfinite(g_norm):
        raise FloatingPointError(f"the gradient at u0 overflowed: ||g|| = {g_norm}")
    return y, R, jac.lin, g


def _estimate(problem, lin) -> tuple:
    """``(bound, applies)``: the curvature-norm bound at ``lin`` and the
    Jacobian applications it took. Norm probes emulate a known curvature
    bound; they run on a Jacobian with its own counters, so the run's
    tallies match the cost model, and are tallied apart."""
    probe = ReducedJacobian(problem, lin)
    return estimate_operator_norm(probe), probe.counters.jacobian_applies


def _iterate(problem, u, config, counters, trace_sink, start):
    """The outer loop from the validated control ``u``, beginning at the
    start that the ``Trajectory`` ``start`` holds. Yields ``(k, u, y, R, g,
    gamma, successes)`` at each loop top, before its stopping test, and takes
    iteration k's step when resumed; it keeps no state of earlier tops.
    ``solve`` says what it counts and raises."""
    y, R, jac, g = start._take(problem, u, counters)
    gamma = config.gamma0 if config.gamma0 is not None else default_gamma0(g, u)
    if config.gamma_min > gamma:
        raise ValueError(
            f"gamma_min={config.gamma_min} exceeds the initial gamma {gamma}"
        )

    gauss_newton = config.hessian_mode == "gauss_newton"
    h_norm = None if gauss_newton else 0.0  # the curvature bound; None: estimate it
    spent = False  # whether a step from this linearization spent the bound's margin
    held = None  # (state, step norm) of the last trial from u whose state was solved
    successes = 0

    for k in itertools.count():
        yield k, u, y, R, g, gamma, successes

        if h_norm is None:  # at k = 0 the start's estimate, shared by its streams
            h_norm, probes = (start._first_estimate(problem) if k == 0
                              else _estimate(problem, jac.lin))
            counters.norm_estimates += 1
            counters.norm_probe_applies += probes
        # no later top reads the start; unreferenced, a plain solve's start and
        # the u0 arrays it keeps are freed here, not held to the end of the run
        start = None
        model = (jac, R) if gauss_newton else ()
        if config.theta == 0.0:
            step = exact_step(g, gamma, h_norm, *model)
        else:
            step = truncated_cg_step(g, gamma, config.theta, h_norm, *model)
        counters.cg_iterations += step.cg_iters
        if step.h_norm > h_norm:
            counters.curvature_raises += 1
        spent = spent or step.curvature_seen > h_norm / SAFETY_FACTOR

        u_trial = u + step.step
        step_norm = norm(step.step)
        def guess():
            if held is None:
                counters.predictor_solves += 1
                return y + problem.solve_cy(jac.lin, -(jac.lin.cu @ step.step))
            return y + (step_norm / held[1]) * (held[0] - y)
        counters.forward_solves += 1  # a failed attempt still costs a solve
        failure = ""
        try:
            y_trial = problem.solve_state(u_trial, start=guess, counters=counters)
        except StateSolveError as exc:
            failure = f"trial state solve failed ({type(exc).__name__}: {exc})"
        else:
            if step_norm > 0.0:  # a secant scales by this norm
                held = (y_trial, step_norm)
            R_trial = problem.residual(y_trial, u_trial)
            if not np.all(np.isfinite(R_trial)):
                failure = "trial residual is not finite"
        if failure:
            counters.failed_trial_solves += 1
        actual = None if failure else 0.5 * float(R @ R) - 0.5 * float(R_trial @ R_trial)
        predicted = step.model_decrease
        if not failure and predicted <= 0.0:  # underflow near convergence
            failure = "nonpositive predicted decrease"
        # An unusable trial point or prediction is a rejection, not the end of
        # the run: gamma doubles and the run goes on from the current iterate.
        rho = None if failure else actual / predicted
        success = rho is not None and rho >= config.eta
        note = f"{failure}, iteration rejected" if failure else ""

        if trace_sink is not None:
            rn = norm(R)
            trace_sink(IterationTrace(
                k=k,
                gamma=gamma,
                residual_norm=rn,
                grad_norm=norm(g),
                scaled_gradient=norm(g) / rn,
                model_decrease=predicted,
                actual_decrease=actual,
                rho=rho,
                success=success,
                cg_iters=step.cg_iters,
                step_norm=step_norm,
                step_residual_norm=step.residual_norm,
                h_norm_estimate=step.h_norm,
                cg_tolerance=step.cg_tolerance,
                curvature_seen=step.curvature_seen,
                counters=counters.snapshot(),
                note=note,
                u=u.copy(),
            ))

        h_norm = step.h_norm
        if success:
            successes += 1
            u, y, R, held = u_trial, y_trial, R_trial, None
            lin = problem.linearize(y, u)
            if spent and lin is not jac.lin:
                h_norm, spent = None, False
            jac = ReducedJacobian(problem, lin, counters)
            g = jac.apply_transpose(R)
            gamma = max(0.5 * gamma, config.gamma_min)
        else:
            gamma = 2.0 * gamma
