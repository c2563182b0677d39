"""Reduced residual Jacobian realized through linearized constraint solves.

Eliminating the state from the constrained least-squares problem leaves the
reduced residual u -> R(y(u), u). Its Jacobian is never assembled: a forward
application solves one linearized constraint, a transpose application solves
one adjoint (transposed) system, and the reduced gradient is one transpose
application to the residual.
"""

from __future__ import annotations

import numpy as np

from .core import EvalCounters, ImplicitProblem, LinearOperator, as_vector

__all__ = ["ReducedJacobian"]


class ReducedJacobian(LinearOperator):
    """Matrix-free Jacobian J = G_u - G_y c_y^{-1} c_u at a fixed base point.

    It is itself the linear operator J: ``J @ v`` and ``J.rmatvec(w)`` check
    dimensions and call ``apply`` and ``apply_transpose``, and the reduced
    gradient is ``apply_transpose(R)``. Binding to a base point (u, y(u))
    fetches the partial-Jacobian operators and performs no solves; each
    application solves once. If a counter object is supplied, every forward
    application adds one linearized solve and every transpose application
    one adjoint solve, plus one Jacobian application each.
    """

    def __init__(
        self,
        problem: ImplicitProblem,
        u: np.ndarray,
        y: np.ndarray,
        counters: EvalCounters | None = None,
    ):
        self.shape = (problem.m, problem.n)
        self.problem = problem
        self.u = as_vector(u, problem.n, name="control")
        self.y = as_vector(y, problem.n_y, name="state")
        self.counters = counters
        self.op_Gu = problem.op_Gu(self.y, self.u)
        self.op_Gy = problem.op_Gy(self.y, self.u)
        self.op_cu = problem.op_cu(self.y, self.u)

    # Methods, not bound methods stored on the instance, which would make
    # every Jacobian a reference cycle that only the garbage collector frees.
    def _matvec(self, v) -> np.ndarray:
        return self.apply(v)

    def _rmatvec(self, w) -> np.ndarray:
        return self.apply_transpose(w)

    def apply(self, v) -> np.ndarray:
        """Forward product: direction in control space to residual space."""
        v = as_vector(v, self.problem.n, name="direction")
        # State response to the control perturbation: c_y w = -c_u v.
        w = self.problem.solve_cy(self.y, self.u, -(self.op_cu @ v))
        if self.counters is not None:
            self.counters.linearized_solves += 1
            self.counters.jacobian_applies += 1
        return self.op_Gu @ v + self.op_Gy @ w

    def apply_transpose(self, w) -> np.ndarray:
        """Transpose product: residual-space vector to control space."""
        w = as_vector(w, self.problem.m, name="residual direction")
        q = self.problem.solve_cy_transpose(self.y, self.u, self.op_Gy.rmatvec(w))
        if self.counters is not None:
            self.counters.adjoint_solves += 1
            self.counters.jacobian_applies += 1
        return self.op_Gu.rmatvec(w) - self.op_cu.rmatvec(q)
