"""Shared test problems and probe helpers."""

import math

import numpy as np
import pytest

from iclsq.core import ImplicitProblem, LinearOperator
from iclsq.subproblem import SubproblemSpec


class IdentityProblem(ImplicitProblem):
    """c(y, u) = y - u with R(y, u) = y, so the reduced residual is u itself.

    The reduced Jacobian is the identity, which makes closed-form solver
    trajectories available as oracles.
    """

    def __init__(self, dim=3):
        self._dim = dim

    @property
    def n(self):
        return self._dim

    @property
    def n_y(self):
        return self._dim

    @property
    def m(self):
        return self._dim

    @property
    def feasibility_tol(self):
        return 1e-14

    def solve_state(self, u):
        return np.asarray(u, dtype=float).copy()

    def residual(self, y, u):
        return np.asarray(y, dtype=float).copy()

    def constraint_residual(self, y, u):
        return np.asarray(y) - np.asarray(u)

    def op_Gu(self, y, u):
        d = self._dim
        return LinearOperator((d, d), lambda v: np.zeros(d), lambda w: np.zeros(d))

    def op_Gy(self, y, u):
        d = self._dim
        return LinearOperator((d, d), lambda v: v.copy(), lambda w: w.copy())

    def op_cu(self, y, u):
        d = self._dim
        return LinearOperator((d, d), lambda v: -v, lambda w: -w)

    def solve_cy(self, y, u, rhs):
        return np.asarray(rhs, dtype=float).copy()

    def solve_cy_transpose(self, y, u, rhs):
        return np.asarray(rhs, dtype=float).copy()


class ConstantResidualProblem(IdentityProblem):
    """Residual independent of (y, u): the reduced gradient vanishes everywhere."""

    def __init__(self, value):
        super().__init__(dim=len(value))
        self.value = np.asarray(value, dtype=float)

    def residual(self, y, u):
        return self.value.copy()

    def op_Gy(self, y, u):
        d = self._dim
        return LinearOperator((d, d), lambda v: np.zeros(d), lambda w: np.zeros(d))


def operator_from_matrix(A):
    A = np.asarray(A, dtype=float)
    return LinearOperator(A.shape, lambda v: A @ v, lambda w: A.T @ w)


def assert_adjoint_identity(op, rng, probes=20, tol=1e-10):
    """<A v, w> must equal <v, A^T w> on random probes."""
    rows, cols = op.shape
    for _ in range(probes):
        v = rng.standard_normal(cols)
        w = rng.standard_normal(rows)
        lhs = float(op.matvec(v) @ w)
        rhs = float(v @ op.rmatvec(w))
        assert abs(lhs - rhs) <= tol * (1.0 + abs(lhs))


def tridiag_dense(op):
    """Dense matrix of a tridiagonal given by its ``(lower, diag, upper)``."""
    lower, diag, upper = op
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def random_factor(rng, dim, spread=1.0):
    """Random square J whose J^T J is the PSD matrix spread * A A^T / dim."""
    A = rng.standard_normal((dim, dim))
    return math.sqrt(spread / dim) * A.T


def factor_spec(J, g, gamma, theta=0.0, h_norm=None):
    """Model with curvature J^T J for square invertible J, residual J^-T g."""
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    if h_norm is None:
        h_norm = float(np.linalg.norm(J, 2)) ** 2
    return SubproblemSpec(
        g=g,
        gamma=gamma,
        theta=theta,
        h_norm_estimate=h_norm,
        gn_factor=operator_from_matrix(J),
        gn_residual=np.linalg.solve(J.T, g),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
