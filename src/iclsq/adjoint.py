"""Reduced residual Jacobian realized through linearized constraint solves.

Eliminating the state from the constrained least-squares problem leaves the
reduced residual u -> R(y(u), u). Its Jacobian is never assembled: a forward
application solves one linearized constraint, a transpose application solves
one adjoint (transposed) system, both with the factors of the base point's
``Linearization``, and each applies G = [R_u R_y] once: forward to the
stacked (v, w), in transpose to the residual-space vector. Every Jacobian
tallies its solves, in the caller's counters or its own.
"""

from __future__ import annotations

import numpy as np

from .core import EvalCounters, ImplicitProblem, LinearOperator, Linearization, as_vector

__all__ = ["ReducedJacobian"]


class ReducedJacobian(LinearOperator):
    """Matrix-free Jacobian J = R_u - R_y c_y^{-1} c_u at a fixed base point.

    It is itself the linear operator J: ``J @ v`` and ``J.rmatvec(w)`` check
    dimensions and call ``apply`` and ``apply_transpose``, and the reduced
    gradient is ``apply_transpose(R)``. The base point is given by its
    linearization, ``problem.linearize(y, u)``; Jacobians that share one
    share its factors. Construction performs no solves; each application
    solves once. Every forward application adds one linearized solve and
    every transpose application one adjoint solve to ``counters``, a fresh
    ``EvalCounters`` unless one is supplied.
    """

    def __init__(
        self,
        problem: ImplicitProblem,
        lin: Linearization,
        counters: EvalCounters | None = None,
    ):
        self.shape = (problem.m, problem.n)
        self.problem = problem
        self.lin = lin
        self.counters = EvalCounters() if counters is None else counters

    # Methods, not bound methods stored on the instance, which would make
    # every Jacobian a reference cycle that only the garbage collector frees.
    def _matvec(self, v) -> np.ndarray:
        return self.apply(v)

    def _rmatvec(self, w) -> np.ndarray:
        return self.apply_transpose(w)

    def apply(self, v) -> np.ndarray:
        """Forward product: direction in control space to residual space."""
        v = as_vector(v, self.shape[1], name="direction")
        # State response to the control perturbation: c_y w = -c_u v.
        w = self.problem.solve_cy(self.lin, -(self.lin.cu @ v))
        self.counters.linearized_solves += 1
        return self.lin.G @ np.concatenate([v, w])

    def apply_transpose(self, w) -> np.ndarray:
        """Transpose product: residual-space vector to control space."""
        w = as_vector(w, self.shape[0], name="residual direction")
        x = self.lin.G.rmatvec(w)  # (R_u^T w, R_y^T w)
        q = self.problem.solve_cy_transpose(self.lin, x[self.shape[1]:])
        self.counters.adjoint_solves += 1
        return x[: self.shape[1]] - self.lin.cu.rmatvec(q)
