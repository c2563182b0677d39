"""Reduced residual Jacobian realized through linearized constraint solves.

Eliminating the state from the constrained least-squares problem leaves the
reduced residual u -> R(y(u), u). Its Jacobian is never assembled: a forward
application solves one linearized constraint, a transpose application solves
one adjoint (transposed) system, both with the factors of the base point's
``Linearization``, and each applies G = [R_u R_y] once: forward to the
stacked (v, w), in transpose to the residual-space vector. Every Jacobian
tallies its solves, in the caller's counters or its own.

A Jacobian checks the shapes of G and c_u once, when built, and a product's
vectors once, at ``J @ v`` and ``J.rmatvec(w)``; inside, G and c_u are
applied unchecked (``apply``, ``apply_transpose``), and the c_y solves
check theirs.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch, EvalCounters, ImplicitProblem, LinearOperator, Linearization

__all__ = ["ReducedJacobian"]


class ReducedJacobian(LinearOperator):
    """Matrix-free Jacobian J = R_u - R_y c_y^{-1} c_u at a fixed base point.

    It is itself the linear operator J: ``J @ v`` and ``J.rmatvec(w)`` check
    dimensions and call its methods ``apply`` and ``apply_transpose``, and
    the reduced gradient is ``apply_transpose(R)``. The base point is given
    by its linearization, ``problem.linearize(y, u)``; Jacobians that share one
    share its factors. Construction checks the shapes of ``lin.G`` and
    ``lin.cu`` and performs no solves; each application solves once. Every
    forward application adds one linearized solve and every transpose
    application one adjoint solve to ``counters``, a fresh ``EvalCounters``
    unless one is supplied.
    """

    def __init__(
        self,
        problem: ImplicitProblem,
        lin: Linearization,
        counters: EvalCounters | None = None,
    ):
        n, n_y, m = problem.n, problem.n_y, problem.m
        if lin.G.shape != (m, n + n_y) or lin.cu.shape != (n_y, n):
            raise DimensionMismatch(f"G of shape {lin.G.shape} and c_u of shape "
                                    f"{lin.cu.shape}, expected {(m, n + n_y)} and {(n_y, n)}")
        self.shape = (m, n)
        self.problem = problem
        self.lin = lin
        self.counters = EvalCounters() if counters is None else counters

    def apply(self, v) -> np.ndarray:
        """Forward product J v of a float vector v of length n, unchecked (``J @ v`` checks)."""
        lin = self.lin
        # State response to the control perturbation: c_y w = -c_u v.
        w = self.problem.solve_cy(lin, -lin.cu.apply(v))
        self.counters.linearized_solves += 1
        return lin.G.apply(np.concatenate([v, w]))

    def apply_transpose(self, w) -> np.ndarray:
        """Transpose product J^T w of a float vector w of length m, unchecked
        (``J.rmatvec(w)`` checks)."""
        lin, n = self.lin, self.shape[1]
        x = lin.G.apply_transpose(w)  # (R_u^T w, R_y^T w)
        q = self.problem.solve_cy_transpose(lin, x[n:])
        self.counters.adjoint_solves += 1
        return x[:n] - lin.cu.apply_transpose(q)
