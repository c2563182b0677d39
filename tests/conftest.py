"""Shared test problems, probe helpers and the references the library is
checked against: the constraint c(y, u) evaluated directly, the elliptic
mesh and its stiffness matrix (assembled element by element here, sharing
no code with the library), finite-difference gradients and the densely
assembled partial and reduced Jacobians."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv

from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import ImplicitProblem, LinearOperator, Linearization, StateSolveError, as_vector
from iclsq.solver import solve


class IdentityProblem(ImplicitProblem):
    """c(y, u) = y - u with R(y, u) = y, so the reduced residual is u itself.

    The reduced Jacobian is the identity, which makes closed-form solver
    trajectories available as oracles.
    """

    def __init__(self, dim=3):
        self.n = self.n_y = self.m = dim

    def solve_state(self, u, start=None, counters=None):
        return np.asarray(u, dtype=float).copy()

    def residual(self, y, u):
        return np.asarray(y, dtype=float).copy()

    def linearize(self, y, u):
        d = self.n
        return Linearization(
            LinearOperator((d, d), lambda v: np.zeros(d), lambda w: np.zeros(d)),
            LinearOperator((d, d), lambda v: v.copy(), lambda w: w.copy()),
            LinearOperator((d, d), lambda v: -v, lambda w: -w),
        )

    def solve_cy(self, lin, rhs):
        return np.asarray(rhs, dtype=float).copy()

    def solve_cy_transpose(self, lin, rhs):
        return np.asarray(rhs, dtype=float).copy()


class ConstantResidualProblem(IdentityProblem):
    """Residual independent of (y, u): the reduced gradient vanishes everywhere."""

    def __init__(self, value):
        super().__init__(dim=len(value))
        self.value = np.asarray(value, dtype=float)

    def residual(self, y, u):
        return self.value.copy()

    def linearize(self, y, u):
        lin = super().linearize(y, u)
        d = self.n
        zero = LinearOperator((d, d), lambda v: np.zeros(d), lambda w: np.zeros(d))
        return Linearization(lin.Gu, zero, lin.cu)


def solve_traced(problem, u0, config, counters=None):
    """``solve`` with its iteration records collected: ``(outcome, records)``."""
    records = []
    outcome = solve(problem, u0, config, counters=counters, trace_sink=records.append)
    return outcome, records


def operator_from_matrix(A):
    A = np.asarray(A, dtype=float)
    return LinearOperator(A.shape, lambda v: A @ v, lambda w: A.T @ w)


class CountingOperator(LinearOperator):
    """A dense matrix as an operator that tallies its forward and transpose
    applications in ``applies``."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.shape = self.A.shape
        self.applies = 0

    def _matvec(self, v):
        self.applies += 1
        return self.A @ v

    def _rmatvec(self, w):
        self.applies += 1
        return self.A.T @ w


def assert_adjoint_identity(op, rng, probes=20, tol=1e-10):
    """<A v, w> must equal <v, A^T w> on random probes."""
    rows, cols = op.shape
    for _ in range(probes):
        v = rng.standard_normal(cols)
        w = rng.standard_normal(rows)
        lhs = float(op.matvec(v) @ w)
        rhs = float(v @ op.rmatvec(w))
        assert abs(lhs - rhs) <= tol * (1.0 + abs(lhs))


def tridiag_dense(op, n):
    """Dense n x n matrix of the tridiagonal ``(lower, diag, upper)``, each a
    constant or an array of the diagonal's length."""
    lower, diag, upper = (np.broadcast_to(x, (n + k,)) for x, k in zip(op, (-1, 0, -1)))
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def dense_cy(prob, y):
    """Dense block lower bidiagonal constraint Jacobian in the state."""
    nx, nt = prob.nx, prob.nt
    yb = y.reshape(nt, nx)
    M = tridiag_dense(prob.M, nx)
    cy = np.zeros((prob.n_y, prob.n_y))
    for i in range(nt):
        cy[i * nx:(i + 1) * nx, i * nx:(i + 1) * nx] = tridiag_dense(prob.step_jacobian(yb[i]), nx)
        if i > 0:
            cy[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = -M / prob.dt
    return cy


def dense_partials(prob):
    """Dense G_u, G_y and c_u of a ``BurgersProblem``, block by block: the
    scaled mass factor on the control and state halves of the residual, and
    -M from each control block after the first onto its time step."""
    nx, nt = prob.nx, prob.nt
    M = tridiag_dense(prob.M, nx)
    F = tridiag_dense(prob._sqrtM, nx)
    sd, so = math.sqrt(prob.dt), math.sqrt(prob.omega * prob.dt)
    Gu = np.zeros((prob.m, prob.n))
    for i in range(nt + 1):
        rows = (nt + 1 + i) * nx
        Gu[rows:rows + nx, i * nx:(i + 1) * nx] = so * F
    Gy = np.zeros((prob.m, prob.n_y))
    for i in range(1, nt + 1):
        Gy[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = sd * F
    cu = np.zeros((prob.n_y, prob.n))
    for i in range(nt):
        cu[i * nx:(i + 1) * nx, (i + 1) * nx:(i + 2) * nx] = -M
    return Gu, Gy, cu


def reference_step_jacobian(prob, y):
    """Step Jacobian diagonals computed from the full expression
    M/dt + B diag(y) + nu C on the stored coefficients, with no term cached."""
    (m_lo, m_diag, m_up), (b_lo, b_diag, b_up), (c_lo, c_diag, c_up) = prob.M, prob.B, prob.C
    dt, nu = prob.dt, prob.nu
    return (
        m_lo / dt + b_lo * y[:-1] + nu * c_lo,
        m_diag / dt + b_diag * y + nu * c_diag,
        m_up / dt + b_up * y[1:] + nu * c_up,
    )


def step_residual(prob, y_prev, y_next, u_next):
    """Implicit time-step equation of a ``BurgersProblem`` for one block."""
    y_prev = as_vector(y_prev, prob.nx, name="y_prev")
    y_next = as_vector(y_next, prob.nx, name="y_next")
    u_next = as_vector(u_next, prob.nx, name="u_next")
    M, B, C = (tridiag_dense(op, prob.nx) for op in (prob.M, prob.B, prob.C))
    return (
        (M @ (y_next - y_prev)) / prob.dt
        + 0.5 * (B @ (y_next * y_next))
        + prob.nu * (C @ y_next)
        - M @ u_next
    )


def elliptic_mesh(N):
    """Triangles and interior nodes of the elliptic problem's N x N grid.

    Returns ``(h, triangles, interior)``: ``triangles`` is a (2 N^2, 3)
    array of node indices, cell by cell in row-major order with each cell's
    lower triangle before its upper one. ``interior`` indexes the (N-1)^2
    non-boundary nodes in row-major order.
    """
    if N < 2:
        raise ValueError(f"need at least 2 subdivisions per side, got {N}")
    n_side = N + 1
    j, i = np.divmod(np.arange(N * N), N)
    sw = j * n_side + i  # southwest corner of each cell
    lower = np.stack([sw, sw + 1, sw + n_side + 1], axis=1)
    upper = np.stack([sw, sw + n_side + 1, sw + n_side], axis=1)
    triangles = np.stack([lower, upper], axis=1).reshape(-1, 3)
    jj, ii = np.divmod(np.arange((N - 1) ** 2), N - 1)
    interior = (jj + 1) * n_side + (ii + 1)
    return 1.0 / N, triangles, interior


def assemble_stiffness(N):
    """P1 stiffness matrix of the elliptic problem's N x N grid over all
    (N+1)^2 nodes, in CSR, and the indices of its interior nodes."""
    h, triangles, interior = elliptic_mesh(N)
    shapes = []  # element matrices of the lower and upper triangle
    for coords in ([[0, 0], [h, 0], [h, h]], [[0, 0], [h, h], [0, h]]):
        x, y = np.array(coords, dtype=float).T
        area = 0.5 * abs((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        shapes.append((np.outer(b, b) + np.outer(c, c)) / (4.0 * area))
    # Entry (a, b) of every element, elements in mesh order, a-major within one.
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    data = np.tile(np.concatenate([k.ravel() for k in shapes]), N * N)
    n_nodes = (N + 1) ** 2
    return sp.csr_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes)), interior


def interior_stiffness(N):
    """Stiffness matrix of the elliptic problem on its (N-1)^2 interior nodes."""
    K, interior = assemble_stiffness(N)
    return K[np.ix_(interior, interior)]


def constraint_residual(prob, y, u):
    """c(y, u) of a ``BurgersProblem`` or an ``EllipticProblem``, evaluated
    directly: the feasibility probe of ``solve_state``."""
    if isinstance(prob, BurgersProblem):
        yb = prob.state_blocks(y)
        ub = as_vector(u, prob.n, name="control").reshape(prob.nt + 1, prob.nx)
        parts = []
        y_prev = prob.y0
        for i in range(prob.nt):
            parts.append(step_residual(prob, y_prev, yb[i], ub[i + 1]))
            y_prev = yb[i]
        return np.concatenate(parts)
    y = as_vector(y, prob.n, name="state")
    u = as_vector(u, prob.n, name="control")
    return interior_stiffness(prob.N) @ y - prob.M @ u


def feasibility_tol(prob):
    """Bound on ||c(solve_state(u), u)|| honored for moderate controls."""
    if isinstance(prob, BurgersProblem):
        return 10.0 * prob.newton_tol * math.sqrt(prob.nt)
    return 1e-10  # direct fast Poisson solve; residuals sit at rounding level


def fd_gradient_oracle(problem: ImplicitProblem, u, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the reduced objective.

    Costs two forward solves per control coordinate; strictly a testing
    oracle for the adjoint gradient.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    u = np.asarray(u, dtype=float)

    def reduced_value(point):
        y = problem.solve_state(point)
        r = problem.residual(y, point)
        return 0.5 * float(r @ r)

    grad = np.zeros(problem.n)
    for i in range(problem.n):
        bump = np.zeros(problem.n)
        bump[i] = step
        grad[i] = (reduced_value(u + bump) - reduced_value(u - bump)) / (2.0 * step)
    return grad


def dense_jacobian_oracle(problem: ImplicitProblem, u) -> np.ndarray:
    """Assemble the reduced Jacobian column by column on basis vectors."""
    if problem.n * problem.m > 100_000:
        raise ValueError(
            f"dense assembly guard: {problem.n} x {problem.m} exceeds 10^5 entries"
        )
    u = np.asarray(u, dtype=float)
    y = problem.solve_state(u)
    jac = ReducedJacobian(problem, problem.linearize(y, u))
    out = np.zeros((problem.m, problem.n))
    for j in range(problem.n):
        e = np.zeros(problem.n)
        e[j] = 1.0
        out[:, j] = jac.apply(e)
    return out


def reference_solve_state(prob, u, jacobian=reference_step_jacobian):
    """Newton marching built on ``step_residual``, with the residual formed
    afresh at every iteration: the states ``solve_state`` must reproduce to
    Newton tolerance."""
    ub = as_vector(u, prob.n, name="control").reshape(prob.nt + 1, prob.nx)
    out = np.empty((prob.nt, prob.nx))
    y_prev = prob.y0
    for i in range(prob.nt):
        v = y_prev.copy()
        for _ in range(prob.newton_max_iter):
            res = step_residual(prob, y_prev, v, ub[i + 1])
            res_norm = float(np.linalg.norm(res))
            if res_norm <= prob.newton_tol:
                break
            *_, delta, info = dgtsv(*jacobian(prob, v), res)
            if info > 0:
                raise StateSolveError("singular", step_index=i + 1, residual_norm=res_norm)
            v = v - delta
        else:
            raise StateSolveError("no convergence", step_index=i + 1)
        out[i] = v
        y_prev = v
    return out.ravel()


def random_factor(rng, dim, spread=1.0):
    """Random square J whose J^T J is the PSD matrix spread * A A^T / dim."""
    A = rng.standard_normal((dim, dim))
    return math.sqrt(spread / dim) * A.T


def factor_spec(J, g, gamma, h_norm=None):
    """Step-kernel keywords of the model with curvature J^T J for square
    invertible J, residual J^-T g; theta is passed apart."""
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    if h_norm is None:
        h_norm = float(np.linalg.norm(J, 2)) ** 2
    return dict(
        g=g,
        gamma=gamma,
        h_norm=h_norm,
        J=operator_from_matrix(J),
        R=np.linalg.solve(J.T, g),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
