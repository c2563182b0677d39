"""Outer regularization loop for implicitly constrained least squares.

Levenberg-Marquardt style iteration: build a quadratic model of the reduced
objective with curvature H + gamma I, step, solve the constraint at the
trial control, and accept or reject on the ratio of actual to predicted
decrease. gamma halves (floored) after acceptance and doubles after
rejection. The run stops as soon as the residual norm or the scaled
gradient norm falls below its tolerance.

Each iteration calls ``exact_step`` (theta = 0) or ``truncated_cg_step``
once, with the model as arguments. With Gauss-Newton curvature the bound on
||J^T J|| they need comes from ``estimate_operator_norm``, once per
linearization the run steps from (once per run on the linear elliptic problem),
cold at the first and warm-started from the last dominant vector after.
"""

from __future__ import annotations

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
    record_iterates: bool = False

    def __post_init__(self):
        if self.gamma0 is not None:
            self.gamma0 = check_positive("gamma0", self.gamma0)
        for name in ("gamma_min", "eps_R", "eps_g"):
            setattr(self, name, check_positive(name, getattr(self, name)))
        self.max_iter = check_integer("max_iter", self.max_iter, 0)
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.gamma0 is not None and self.gamma_min > self.gamma0:
            raise ValueError("gamma_min must not exceed gamma0")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(f"hessian_mode must be one of {HESSIAN_MODES}")


@dataclass
class IterationTrace:
    """Record of one outer iteration, successful or not."""

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
    h_norm_estimate: float
    cg_tolerance: float
    counters: dict = field(default_factory=dict)
    note: str = ""
    u: Optional[np.ndarray] = None  # populated only when record_iterates is set

    def to_dict(self) -> dict:
        """Every field except the iterate ``u``, as one JSONL record."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "u"}


@dataclass
class SolveOutcome:
    status: SolveStatus
    u: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    gradient: np.ndarray
    gamma: float
    iterations: int
    successes: int
    trace: list[IterationTrace]
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

    One forward solve happens at u0 and one per trial point, so the forward
    counter always equals the number of completed iterations plus one. A
    trial point whose state solve raises ``StateSolveError``, or whose
    residual is not finite, is a rejected iteration (tallied in
    ``failed_trial_solves``); a failure at u0 propagates, and a non-finite
    residual at u0 raises ``ValueError`` before any gradient is taken. The
    problem is linearized and the gradient recomputed only at accepted points;
    with zero curvature the adjoint counter is exactly 1 + number of successes.
    """
    u = as_vector(u0, problem.n, name="u0").copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 must be finite")
    if counters is None:
        counters = EvalCounters()

    y = problem.solve_state(u)
    counters.forward_solves += 1
    R = problem.residual(y, u)
    if not np.all(np.isfinite(R)):
        raise ValueError("the residual at u0 is not finite")
    jac = ReducedJacobian(problem, problem.linearize(y, u), counters)
    g = jac.apply_transpose(R)

    gamma = config.gamma0 if config.gamma0 is not None else default_gamma0(g, u)
    if config.gamma_min > gamma:
        raise ValueError(
            f"gamma_min={config.gamma_min} exceeds the initial gamma {gamma}"
        )

    gauss_newton = config.hessian_mode == "gauss_newton"
    h_norm = h_lin = None  # the curvature bound and the linearization it is estimated at
    h_vec = None  # dominant vector of the last estimate, the next one's start
    trace: list[IterationTrace] = []
    status: Optional[SolveStatus] = None

    for k in range(config.max_iter):
        status = stopping_check(R, g, config.eps_R, config.eps_g)
        if status is not None:
            break

        if not gauss_newton:
            h_norm = 0.0
        elif jac.lin is not h_lin:
            # Norm probes emulate a known curvature bound; they run on an
            # uncounted Jacobian at jac's linearization so tallies match
            # the cost model, and are tallied apart as two applications each.
            h_lin = jac.lin
            h_norm, h_vec, products = estimate_operator_norm(
                ReducedJacobian(problem, h_lin), start=h_vec
            )
            counters.norm_probe_applies += 2 * products
        model = (jac, R) if gauss_newton else ()
        if config.theta == 0.0:
            step = exact_step(g, gamma, h_norm, *model)
        else:
            step = truncated_cg_step(g, gamma, config.theta, h_norm, *model)
        counters.cg_iterations += step.cg_iters

        u_trial = u + step.step
        counters.forward_solves += 1  # a failed attempt still costs a solve
        failure = ""
        try:
            y_trial = problem.solve_state(u_trial)
        except StateSolveError as exc:
            failure = f"trial state solve failed ({type(exc).__name__}: {exc})"
        else:
            R_trial = problem.residual(y_trial, u_trial)
            if not np.all(np.isfinite(R_trial)):
                failure = "trial residual is not finite"

        actual = None if failure else 0.5 * float(R @ R) - 0.5 * float(R_trial @ R_trial)
        predicted = step.model_decrease

        note = ""
        if failure:
            # An unusable trial point is a rejection: gamma doubles and the
            # run goes on from the current iterate.
            counters.failed_trial_solves += 1
            rho = None
            success = False
            note = f"{failure}, iteration rejected"
        elif predicted <= 0.0:
            # Underflow near convergence; reject and grow gamma instead of
            # failing the run.
            rho = None
            success = False
            note = "nonpositive predicted decrease, iteration rejected"
        else:
            rho = actual / predicted
            success = rho >= config.eta

        rn = norm(R)
        trace_rec = IterationTrace(
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
            step_norm=norm(step.step),
            step_residual_norm=step.residual_norm,
            h_norm_estimate=h_norm,
            cg_tolerance=step.cg_tolerance,
            counters=counters.snapshot(),
            note=note,
            u=u.copy() if config.record_iterates else None,
        )
        trace.append(trace_rec)
        if trace_sink is not None:
            trace_sink(trace_rec)

        if success:
            u, y, R = u_trial, y_trial, R_trial
            jac = ReducedJacobian(problem, problem.linearize(y, u), counters)
            g = jac.apply_transpose(R)
            gamma = max(0.5 * gamma, config.gamma_min)
        else:
            gamma = 2.0 * gamma

    if status is None:
        status = stopping_check(R, g, config.eps_R, config.eps_g)
    if status is None:
        status = SolveStatus.BUDGET_EXHAUSTED

    return SolveOutcome(
        status=status,
        u=u,
        y=y,
        residual=R,
        gradient=g,
        gamma=gamma,
        iterations=len(trace),
        successes=sum(1 for t in trace if t.success),
        trace=trace,
        counters=counters,
    )
