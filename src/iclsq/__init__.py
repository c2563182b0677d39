"""Matrix-free solver library for implicitly constrained least squares.

Provides the problem contract, the adjoint-based reduced Jacobian, exact and
truncated-CG step computation for the quadratically regularized model, the
accept/reject outer loop with full evaluation counting, two PDE-control
benchmark problems, and an experiment harness with a command line interface.
"""

from .adjoint import ReducedJacobian
from .burgers import BurgersProblem
from .core import (
    DimensionMismatch,
    EvalCounters,
    ImplicitProblem,
    LinearOperator,
    Linearization,
    StateSolveError,
    norm,
)
from .elliptic import EllipticProblem
from .harness import (
    DEFAULT_THETA_GRID,
    ExperimentRow,
    ExperimentSpec,
    render_table,
    run_experiment,
)
from .solver import (
    IterationTrace,
    SolveOutcome,
    SolverConfig,
    SolveStatus,
    default_gamma0,
    solve,
    stopping_check,
)
from .subproblem import (
    IndefiniteOperator,
    StepResult,
    estimate_operator_norm,
    exact_step,
    truncated_cg_step,
)

__version__ = "0.1.0"

__all__ = [
    "BurgersProblem",
    "DEFAULT_THETA_GRID",
    "DimensionMismatch",
    "EllipticProblem",
    "EvalCounters",
    "ExperimentRow",
    "ExperimentSpec",
    "ImplicitProblem",
    "IndefiniteOperator",
    "IterationTrace",
    "LinearOperator",
    "Linearization",
    "ReducedJacobian",
    "SolveOutcome",
    "SolveStatus",
    "SolverConfig",
    "StateSolveError",
    "StepResult",
    "default_gamma0",
    "estimate_operator_norm",
    "exact_step",
    "norm",
    "render_table",
    "run_experiment",
    "solve",
    "stopping_check",
    "truncated_cg_step",
]
