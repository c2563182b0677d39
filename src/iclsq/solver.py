"""Outer regularization loop for implicitly constrained least squares.

Levenberg-Marquardt style iteration: build a quadratic model of the reduced
objective with curvature H + gamma I, step, solve the constraint at the
trial control, and accept or reject on the ratio of actual to predicted
decrease. gamma halves (floored) after acceptance and doubles after
rejection. The run stops as soon as the residual norm or the scaled
gradient norm falls below its tolerance.

Each iteration calls ``exact_step`` (theta = 0) or ``truncated_cg_step``
once, with the model as arguments. With Gauss-Newton curvature the bound on
||J^T J|| they need comes from ``estimate_operator_norm`` at the first
point, on a Jacobian whose own counters give the run's
``norm_probe_applies``, and is kept across linearizations after it. Every
step checks the bound against the curvature CGLS sees and raises it if that
proves it wrong (``curvature_raises``); the run takes on each step's bound.
Once a step's ``curvature_seen`` passes the bound divided by its 1.5 safety
factor, the margin is spent, and the next linearization the run steps from
gets a fresh estimate. The linear elliptic problem keeps one linearization,
so it is estimated once per run. A failed trial point and a nonpositive
predicted decrease are rejected alike.

Every trial state solve gets a start, a guess of its state. The first trial
from an iterate starts from the Euler predictor y + c_y^{-1}(-c_u s), one
linearized solve on the iterate's factors, tallied in ``predictor_solves``
(Allgower & Georg, Introduction to Numerical Continuation Methods, 2003). A
retry from the same iterate starts, at no cost, from the secant
y + (||s|| / ||s_old||)(y_old - y) through the state y_old of the last
trial from there whose state solve succeeded with a nonzero step s_old, and
from the predictor while there is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .adjoint import ReducedJacobian
from .core import EvalCounters, ImplicitProblem, StateSolveError, as_vector, norm
from .core import check_integer, check_positive
from .subproblem import estimate_operator_norm, exact_step, truncated_cg_step

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "IterationTrace",
    "SolveOutcome",
    "default_gamma0",
    "stopping_check",
    "solve",
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


def stopping_check(R, g, eps_R: float, eps_g: float) -> Optional[SolveStatus]:
    """Termination test; the residual branch is checked first.

    A zero residual therefore never reaches the scaled-gradient division.
    """
    rn = norm(R)
    if rn <= eps_R:
        return SolveStatus.CONVERGED_RESIDUAL
    if norm(g) / rn <= eps_g:
        return SolveStatus.CONVERGED_SCALED_GRADIENT
    return None


def solve(
    problem: ImplicitProblem,
    u0,
    config: SolverConfig,
    counters: EvalCounters | None = None,
    trace_sink: Callable[[IterationTrace], None] | None = None,
) -> SolveOutcome:
    """Run the outer loop from u0 until convergence or budget exhaustion.

    Each iteration, accepted or not, goes to ``trace_sink`` as an
    ``IterationTrace`` holding a copy of its starting iterate; without a sink
    none is built. The stopping tests run before each step and at the budget.

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
    """
    u = as_vector(u0, problem.n, name="u0").copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 must be finite")
    if counters is None:
        counters = EvalCounters()

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

    gamma = config.gamma0 if config.gamma0 is not None else default_gamma0(g, u)
    if config.gamma_min > gamma:
        raise ValueError(
            f"gamma_min={config.gamma_min} exceeds the initial gamma {gamma}"
        )

    gauss_newton = config.hessian_mode == "gauss_newton"
    h_norm = None  # the curvature bound, kept across linearizations
    spent = None  # the linearization at which a step spent the bound's margin
    held = None  # (state, step norm) of the last trial from u whose state was solved
    successes = 0

    for k in range(config.max_iter + 1):
        status = stopping_check(R, g, config.eps_R, config.eps_g)
        if status is not None or k == config.max_iter:
            break

        if not gauss_newton:
            h_norm = 0.0
        elif h_norm is None or (spent is not None and jac.lin is not spent):
            # Norm probes emulate a known curvature bound; they run on a
            # Jacobian with its own counters at jac's linearization, so the
            # run's tallies match the cost model, and are tallied apart.
            probe = ReducedJacobian(problem, jac.lin)
            h_norm, spent = estimate_operator_norm(probe), None
            counters.norm_estimates += 1
            counters.norm_probe_applies += probe.counters.jacobian_applies
        model = (jac, R) if gauss_newton else ()
        if config.theta == 0.0:
            step = exact_step(g, gamma, h_norm, *model)
        else:
            step = truncated_cg_step(g, gamma, config.theta, h_norm, *model)
        counters.cg_iterations += step.cg_iters
        if step.h_norm > h_norm:
            counters.curvature_raises += 1
        if step.curvature_seen > h_norm / 1.5:
            spent = jac.lin

        u_trial = u + step.step
        step_norm = norm(step.step)
        if held is None:
            def start(s=step.step, y=y, lin=jac.lin):
                counters.predictor_solves += 1
                return y + problem.solve_cy(lin, -(lin.cu @ s))
        else:
            def start(y=y, y_old=held[0], ratio=step_norm / held[1]):
                return y + ratio * (y_old - y)
        counters.forward_solves += 1  # a failed attempt still costs a solve
        failure = ""
        try:
            y_trial = problem.solve_state(u_trial, start=start, counters=counters)
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
            jac = ReducedJacobian(problem, problem.linearize(y, u), counters)
            g = jac.apply_transpose(R)
            gamma = max(0.5 * gamma, config.gamma_min)
        else:
            gamma = 2.0 * gamma

    return SolveOutcome(
        status=status or SolveStatus.BUDGET_EXHAUSTED,
        u=u,
        y=y,
        residual=R,
        gradient=g,
        gamma=gamma,
        iterations=k,
        successes=successes,
        counters=counters,
    )
