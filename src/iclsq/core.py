"""Problem contract and shared numerical primitives.

The solver stack is matrix free: a problem exposes its constraint and
residual Jacobians only through operator actions, gathered per base point in
a ``Linearization``, and every inner linear solve is tallied in an explicit
counter object owned by the caller, never in global state. The contract is
exactly what the solver calls: the constraint c(y, u) = 0 is only ever solved,
for the state or linearized (and transposed), never evaluated.
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


@dataclass
class EvalCounters:
    """Monotone tally of the costly operations of a single solver run.

    forward_solves counts nonlinear constraint solves for the state,
    linearized_solves and adjoint_solves count solves with the constraint
    Jacobian and its transpose, jacobian_applies counts applications of the
    reduced residual Jacobian or its transpose, and cg_iterations sums the
    inner Krylov iterations of all step computations. norm_probe_applies
    counts the reduced Jacobian applications of the curvature-norm estimator
    (two per Gauss-Newton product); they are excluded from jacobian_applies
    and from the solve counters. failed_trial_solves counts the trial points
    whose state solve failed or whose residual was not finite; each is a
    rejected iteration and is still included in forward_solves.
    """

    forward_solves: int = 0
    adjoint_solves: int = 0
    linearized_solves: int = 0
    jacobian_applies: int = 0
    cg_iterations: int = 0
    norm_probe_applies: int = 0
    failed_trial_solves: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


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
    one ``Linearization`` per base point.

    Evaluations must be pure functions of (y, u), and whatever the solves at
    one base point share lives in its ``Linearization``, never on the
    problem, so distinct solver runs can share one instance concurrently.
    """

    @property
    @abstractmethod
    def n(self) -> int:
        """Control dimension."""

    @property
    @abstractmethod
    def n_y(self) -> int:
        """State dimension; equals the constraint dimension."""

    @property
    @abstractmethod
    def m(self) -> int:
        """Residual dimension."""

    @abstractmethod
    def solve_state(self, u: np.ndarray) -> np.ndarray:
        """Solve c(y, u) = 0 for y. Callers tally this as one forward solve."""

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

