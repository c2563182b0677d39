"""Problem contract and shared numerical primitives.

The solver stack is matrix free: a problem exposes its constraint and
residual Jacobians only through operator actions, gathered per base point in
a ``Linearization``, and every inner linear solve is tallied in an explicit
counter object owned by the caller, never in global state. The contract is
five abstract methods, exactly what the solver calls, and three sizes set as
data. The constraint c(y, u) = 0 is only ever solved, for the state or
linearized (and transposed), never evaluated. Both problems build their
partial Jacobians with ``sparse_operator``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DimensionMismatch",
    "StateSolveError",
    "as_vector",
    "check_integer",
    "check_positive",
    "norm",
    "LinearOperator",
    "sparse_operator",
    "EvalCounters",
    "Linearization",
    "ImplicitProblem",
]


class DimensionMismatch(ValueError):
    """Vector or operator dimensions violate the problem contract."""


class StateSolveError(RuntimeError):
    """The constraint could not be solved for the state."""

    def __init__(self, message: str, step_index=None, residual_norm=None):
        super().__init__(message)
        self.step_index = step_index
        self.residual_norm = residual_norm


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a 1-d float array, optionally enforcing its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


def check_integer(name: str, value, minimum: int) -> int:
    """A Python or numpy integer (not a bool) of at least ``minimum``, as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_positive(name: str, value) -> float:
    """A real number (not a bool) in (0, inf), as a ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def norm(a) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(as_vector(a, name="a")))


class LinearOperator:
    """Matrix-free linear map with explicit forward and transpose actions.

    Instances must satisfy the adjoint identity <A v, w> == <v, A^T w>;
    the test suite probes this on random vectors for every operator a
    problem exposes. A subclass may set ``shape`` and define ``_matvec`` and
    ``_rmatvec`` as methods instead of passing callables.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        matvec: Callable[[np.ndarray], np.ndarray],
        rmatvec: Callable[[np.ndarray], np.ndarray],
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self._matvec = matvec
        self._rmatvec = rmatvec

    def matvec(self, v) -> np.ndarray:
        v = as_vector(v, self.shape[1], name="operator input")
        out = as_vector(self._matvec(v), name="operator output")
        if out.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"operator produced length {out.shape[0]}, expected {self.shape[0]}"
            )
        return out

    def rmatvec(self, w) -> np.ndarray:
        w = as_vector(w, self.shape[0], name="transpose input")
        out = as_vector(self._rmatvec(w), name="transpose output")
        if out.shape[0] != self.shape[1]:
            raise DimensionMismatch(
                f"transpose produced length {out.shape[0]}, expected {self.shape[1]}"
            )
        return out

    def __matmul__(self, v) -> np.ndarray:
        return self.matvec(v)


def sparse_operator(S, S_T, scale: float, rows: int, first: int = 0) -> LinearOperator:
    """scale * S on rows ``first:first + S.shape[0]`` of a ``rows``-row
    operator, zero on the others, for a CSR matrix S and its CSR transpose
    ``S_T``. The transpose is passed, not built, so operators that share a
    matrix share it too (S.T @ w, a CSC view, made a reduced J^T apply
    79 -> 142 us on Burgers at 16 x 16 on one Xeon core). The scale stays
    outside the matrix, so a product rounds as scale * (S x) does."""
    part = slice(first, first + S.shape[0])

    def fwd(v):
        out = np.zeros(rows)
        out[part] = scale * (S @ v)
        return out

    return LinearOperator((rows, S.shape[1]), fwd, lambda w: scale * (S_T @ w[part]))


@dataclass
class EvalCounters:
    """Monotone tally of the costly operations of a single solver run.

    forward_solves counts nonlinear constraint solves for the state,
    linearized_solves and adjoint_solves count solves with the constraint
    Jacobian and its transpose, and cg_iterations sums the inner Krylov
    iterations of all step computations. Each application of the reduced
    residual Jacobian or its transpose is one of those solves, so
    jacobian_applies is their sum by definition. norm_estimates counts the
    runs of the curvature-norm estimator and norm_probe_applies the reduced
    Jacobian applications they take, on a Jacobian with counters of its own;
    those are excluded from the solve counters. curvature_raises counts the
    steps whose CGLS saw curvature above the bound they were given and
    raised it. failed_trial_solves counts the trial points whose state
    solve failed or whose residual was not finite; each is a rejected
    iteration and is still included in forward_solves. newton_iters counts
    the Newton iterations of the state solves that were handed these
    counters, failed ones and restarts included (each one factors and
    solves a step Jacobian); a direct state solve adds none.
    predictor_solves counts the linearized solves that predicted a trial
    point's state as the start of its state solve; they are excluded from
    linearized_solves.
    """

    forward_solves: int = 0
    adjoint_solves: int = 0
    linearized_solves: int = 0
    cg_iterations: int = 0
    norm_estimates: int = 0
    norm_probe_applies: int = 0
    curvature_raises: int = 0
    failed_trial_solves: int = 0
    newton_iters: int = 0
    predictor_solves: int = 0

    @property
    def jacobian_applies(self) -> int:
        return self.linearized_solves + self.adjoint_solves

    def snapshot(self) -> dict:
        return {**asdict(self), "jacobian_applies": self.jacobian_applies}


class Linearization:
    """R_u, R_y and c_u at one base point, as the operators ``Gu``, ``Gy`` and
    ``cu``, and ``factors``: what the problem's c_y solves reuse there, built
    by ``factor()`` on the first read and then shared (None without it)."""

    def __init__(self, Gu, Gy, cu, factor: Callable[[], object] | None = None):
        self.Gu, self.Gy, self.cu = Gu, Gy, cu
        self._factor, self._factors = factor, None

    @property
    def factors(self):
        if self._factor is not None:  # built once; dropping the builder frees its base state
            self._factors, self._factor = self._factor(), None
        return self._factors


class ImplicitProblem(ABC):
    """A least-squares objective 0.5*||R(y, u)||^2 constrained by c(y, u) = 0.

    The constraint is uniquely solvable for the state y given the control u,
    and its state Jacobian is square and invertible along the solution path.
    Implementations expose partial Jacobians of R and c as operators only,
    one ``Linearization`` per base point, and set the sizes ``n``, ``n_y``
    and ``m`` once, in ``__init__`` or as class attributes.

    Evaluations must be pure functions of (y, u), and whatever the solves at
    one base point share lives in its ``Linearization``, never on the
    problem, so distinct solver runs can share one instance concurrently.
    """

    n: int  # control dimension
    n_y: int  # state dimension; equals the constraint dimension
    m: int  # residual dimension

    @abstractmethod
    def solve_state(
        self,
        u: np.ndarray,
        start: Callable[[], np.ndarray] | None = None,
        counters: EvalCounters | None = None,
    ) -> np.ndarray:
        """Solve c(y, u) = 0 for y. Callers tally this as one forward solve.

        ``start``, if given, returns a guess of y(u) of length ``n_y`` when
        called; an iterative solve may call it once and begin there, and a
        direct one ignores it. The result may depend on the guess only
        within the solve's tolerance, and a guess must never make a solve
        fail that succeeds without one. An iterative solve adds its
        iterations to ``counters.newton_iters`` if counters are given."""

    @abstractmethod
    def residual(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Evaluate R(y, u)."""

    @abstractmethod
    def linearize(self, y: np.ndarray, u: np.ndarray) -> Linearization:
        """The partial Jacobians at (y, u); performs no solve."""

    @abstractmethod
    def solve_cy(self, lin: Linearization, rhs: np.ndarray) -> np.ndarray:
        """Solve the linearized constraint c_y x = rhs at lin's base point."""

    @abstractmethod
    def solve_cy_transpose(self, lin: Linearization, rhs: np.ndarray) -> np.ndarray:
        """Solve the transposed linearized constraint c_y^T x = rhs at lin's base point."""

