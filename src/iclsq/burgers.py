"""Optimal control of a viscous nonlinear transport equation on (0, 1).

Backward Euler in time, piecewise linear elements in space on a uniform
mesh, homogeneous Dirichlet ends. The spatial operators are constant-
coefficient tridiagonals and are stored as their three diagonals. Each time
step is advanced with Newton's method, one LAPACK tridiagonal solve
(``dgtsv``) per iteration. The Newton loop forms each step's right-hand side
(M y_prev)/dt + f + M u once per step, with the control terms of all steps
in one sparse apply of c_u, so each iteration only evaluates
A v + B(v v)/2 - rhs, A = M/dt + nu C. ``step_jacobian`` reads its
state-independent terms from a cache built on first use.
The linearized constraint is block lower bidiagonal in time, so its
(transposed) solves are forward (backward) substitutions over the time
blocks, each through one tridiagonal LU factor per time step (``dgttrf``,
applied with ``dgttrs``). ``linearize`` leaves the factoring to the first
solve at the base point, and the factors live in its ``Linearization``. The
per-step loops apply their Toeplitz operators to single blocks as one
3-point ``np.convolve`` each. The operators on all blocks at once, the
residual's mass factor and the partial Jacobians G_u, G_y and c_u, are
``scipy.sparse`` CSR matrices, built on first use.

Unknowns for the implicit-problem contract are the states at steps 1..Nt;
the initial state is data. Controls carry Nt + 1 blocks including a block
for time zero that enters no constraint and is felt only through its
regularization term.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf

from .core import ImplicitProblem, LinearOperator, Linearization, StateSolveError, as_vector

__all__ = ["BurgersProblem"]


def _tridiag(nx: int, lower: float, diag: float, upper: float) -> tuple:
    """Constant tridiagonal by its diagonals ``(lower, diag, upper)``:
    ``A[i, i-1] = lower[i-1]``, ``A[i, i] = diag[i]``, ``A[i, i+1] = upper[i]``."""
    return np.full(nx - 1, lower), np.full(nx, diag), np.full(nx - 1, upper)


def _block_matrix(
    T: tuple, count: int, shape: tuple, row0: int = 0, col0: int = 0
) -> sp.csr_matrix:
    """CSR matrix of ``shape`` holding ``count`` copies of the tridiagonal
    ``T = (lower, diag, upper)`` down the block diagonal that starts at entry
    (row0, col0), and zero elsewhere. Zero entries of T are not stored."""
    lower, diag, upper = T
    i = np.arange(diag.size)
    rows = np.concatenate([i[1:], i, i[:-1]])
    cols = np.concatenate([i[:-1], i, i[1:]])
    data = np.concatenate([lower, diag, upper])
    keep = data != 0
    shift = diag.size * np.arange(count)[:, None]
    return sp.csr_matrix(
        (
            np.tile(data[keep], count),
            ((row0 + shift + rows[keep]).ravel(), (col0 + shift + cols[keep]).ravel()),
        ),
        shape=shape,
    )


def _operator(S, scale: float) -> LinearOperator:
    """scale * S, applied through S and its transpose, both CSR. The scale
    stays outside the matrix, so a product rounds as scale * (F x) does."""
    S_T = S.T.tocsr()
    return LinearOperator(S.shape, lambda v: scale * (S @ v), lambda w: scale * (S_T @ w))


# scipy's dgttrf/dgttrs wrappers reject n = 2 with an array-size error, so a
# 2 x 2 tridiagonal A is factored and solved as diag(A, 1).
def _padded_gttrf(dl, d, du):
    return dgttrf(np.append(dl, 0.0), np.append(d, 1.0), np.append(du, 0.0))


def _padded_gttrs(dl, d, du, du2, ipiv, b, trans="N", overwrite_b=0):
    x, info = dgttrs(dl, d, du, du2, ipiv, np.append(b, 0.0), trans=trans, overwrite_b=1)
    return x[:2], info


class BurgersProblem(ImplicitProblem):
    """Distributed control of the discretized viscous transport dynamics.

    Parameters
    ----------
    nx, nt : spatial / temporal resolution (unit space and time horizons).
    nu : viscosity.
    omega : control regularization weight.
    y_init : initial state; defaults to a step profile with the first
        nx // 2 entries equal to one. It is also the desired state z, at
        every time.
    newton_tol, newton_max_iter : each time step's Newton solve stops once
        its residual norm is at most ``newton_tol`` (positive, finite) and
        fails after ``newton_max_iter`` (nonnegative) iterations.
    """

    def __init__(
        self,
        nx: int,
        nt: int,
        nu: float = 0.1,
        omega: float = 0.05,
        y_init=None,
        newton_tol: float = 1e-12,
        newton_max_iter: int = 25,
    ):
        if nx < 2 or nt < 1:
            raise ValueError(f"need nx >= 2 and nt >= 1, got nx={nx}, nt={nt}")
        if not (0 < nu < math.inf and 0 < omega < math.inf):
            raise ValueError(f"nu and omega must be positive and finite, got {nu} and {omega}")
        if not 0 < newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {newton_tol}")
        if newton_max_iter < 0:
            raise ValueError(f"newton_max_iter must be nonnegative, got {newton_max_iter}")
        self.nx = int(nx)
        self.nt = int(nt)
        self.nu = float(nu)
        self.omega = float(omega)
        self.h = 1.0 / nx
        self.dt = 1.0 / nt
        mass, stiff = self.h / 6.0, 1.0 / self.h
        self.M = _tridiag(nx, mass, 4.0 * mass, mass)
        self.B = _tridiag(nx, -0.5, 0.0, 0.5)
        self.C = _tridiag(nx, -stiff, 2.0 * stiff, -stiff)
        self.f = np.zeros(nx)
        if y_init is None:
            self.y0 = np.zeros(nx)
            self.y0[: nx // 2] = 1.0
        else:
            self.y0 = as_vector(y_init, nx, name="y_init").copy()
            if not np.all(np.isfinite(self.y0)):
                raise ValueError("y_init must be finite")
        self.z = self.y0.copy()
        self.newton_tol = float(newton_tol)
        self.newton_max_iter = int(newton_max_iter)
        # M = L D L^T with L unit lower bidiagonal, so F = sqrt(D) L^T is
        # upper bidiagonal with F^T F = M.
        m_lower, m_diag, _ = self.M
        d, e, _ = dpttrf(m_diag, m_lower)
        root = np.sqrt(d)
        self._sqrtM = (np.zeros(nx - 1), root, root[:-1] * e)
        self._gttrf, self._gttrs = (dgttrf, dgttrs) if nx > 2 else (_padded_gttrf, _padded_gttrs)

    # dimensions
    @property
    def n(self) -> int:
        return (self.nt + 1) * self.nx

    @property
    def n_y(self) -> int:
        return self.nt * self.nx

    @property
    def m(self) -> int:
        return 2 * (self.nt + 1) * self.nx

    # block helper
    def state_blocks(self, y) -> np.ndarray:
        return as_vector(y, self.n_y, name="state").reshape(self.nt, self.nx)

    # dynamics
    @cached_property
    def _jacobian_constants(self) -> tuple:
        """State-independent terms of ``step_jacobian``: ``(M.lower/dt,
        nu C.lower, diagonal, M.upper/dt, nu C.upper)``, each rounded as the
        full expression rounds it. The whole diagonal ``M/dt + nu C`` is
        constant because B's zero diagonal adds a signed zero. Built on
        first use rather than in ``__init__``; the diagonal is read only."""
        (m_lo, m_diag, m_up), (c_lo, c_diag, c_up), dt, nu = self.M, self.C, self.dt, self.nu
        diag = m_diag / dt + nu * c_diag
        diag.setflags(write=False)
        return m_lo / dt, nu * c_lo, diag, m_up / dt, nu * c_up

    @cached_property
    def _stencils(self) -> tuple:
        """3-point kernels ``(M/dt, M/dt + nu C, B/2)`` of the per-step
        loops: ``np.convolve(x, k)[1:-1]`` applies the tridiagonal with
        diagonals ``(lower, diag, upper)`` for ``k = [upper, diag, lower]``,
        exactly at every nx >= 2. Built on first use."""
        m_lo, c_lo, diag, m_up, c_up = self._jacobian_constants
        (_, m_diag, _), (b_lo, b_diag, b_up) = self.M, self.B
        return (
            np.array([m_up[0], m_diag[0] / self.dt, m_lo[0]]),
            np.array([m_up[0] + c_up[0], diag[0], m_lo[0] + c_lo[0]]),
            0.5 * np.array([b_up[0], b_diag[0], b_lo[0]]),
        )

    def step_jacobian(self, y_next) -> tuple:
        """Derivative of the step equation in its unknown state, as the
        diagonals ``(lower, diag, upper)`` of M/dt + B diag(y_next) + nu C.
        The diagonal is shared between calls and read only."""
        y = as_vector(y_next, self.nx, name="y_next")
        m_lo, c_lo, diag, m_up, c_up = self._jacobian_constants
        b_lo, _, b_up = self.B
        return m_lo + b_lo * y[:-1] + c_lo, diag, m_up + b_up * y[1:] + c_up

    def solve_state(self, u) -> np.ndarray:
        """March the dynamics with one Newton solve per time step.

        Each step's residual (M/dt + nu C) v + B(v v)/2 - (M y_prev)/dt - f - M u
        is evaluated at most ``newton_max_iter + 1`` times; a step still above
        ``newton_tol`` at the last evaluation raises ``StateSolveError``.
        Counts as a single forward solve regardless of Newton iterations.
        """
        u = as_vector(u, self.n, name="control")
        mass_dt, step_op, half_b = self._stencils
        # every step's control term -c_u u = M u_i in one sparse apply
        forcing = self.f - (self._operators[3] @ u).reshape(self.nt, self.nx)
        tol, max_iter, conv = self.newton_tol, self.newton_max_iter, np.convolve
        out = np.empty((self.nt, self.nx))
        y_prev = self.y0
        for i in range(self.nt):
            rhs = conv(y_prev, mass_dt)[1:-1] + forcing[i]
            v = y_prev  # warm start from the previous step; never written to
            for newton_iter in range(max_iter + 1):
                res = conv(v, step_op)[1:-1] + conv(v * v, half_b)[1:-1] - rhs
                res_norm = math.sqrt(res @ res)
                if res_norm <= tol:
                    break
                if newton_iter == max_iter:
                    raise StateSolveError(
                        f"Newton failed at time step {i + 1}: residual {res_norm:.3e} "
                        f"after {max_iter} iterations",
                        step_index=i + 1,
                        residual_norm=res_norm,
                    )
                # fresh off-diagonals and residual are overwritten; the shared
                # diagonal is read only and is copied
                dl, d, du = self.step_jacobian(v)
                *_, delta, info = dgtsv(
                    dl, d, du, res, overwrite_dl=1, overwrite_du=1, overwrite_b=1
                )
                if info > 0:
                    raise StateSolveError(
                        f"Newton failed at time step {i + 1}: singular step "
                        f"Jacobian (zero pivot {info})",
                        step_index=i + 1,
                        residual_norm=res_norm,
                    )
                v = v - delta
            out[i] = v
            y_prev = v
        return out.ravel()

    def residual(self, y, u) -> np.ndarray:
        yb = self.state_blocks(y)
        u = as_vector(u, self.n, name="control")
        Fb = self._operators[0]
        sd = math.sqrt(self.dt)
        so = math.sqrt(self.omega * self.dt)
        states = (np.vstack([self.y0, yb]) - self.z).ravel()
        return np.concatenate([sd * (Fb @ states), so * (Fb @ u)])

    # linearization: the factors live in each base point's Linearization
    def linearize(self, y, u) -> Linearization:
        """The operators at (y, u). The first c_y solve that reads the result
        factors every time step's Jacobian at y (``dgttrf``), once for all."""
        yb = self.state_blocks(y)

        def factor() -> list:  # per-step (dl, d, du, du2, ipiv)
            factors = []
            for i in range(self.nt):
                *lu, info = self._gttrf(*self.step_jacobian(yb[i]))
                if info > 0:
                    raise StateSolveError(
                        f"singular step Jacobian at time step {i + 1} (zero pivot {info})",
                        step_index=i + 1,
                    )
                factors.append(lu)
            return factors

        _, Gu, Gy, cu = self._operators
        return Linearization(Gu, Gy, cu, factor=factor)

    def solve_cy(self, lin, rhs) -> np.ndarray:
        """Block forward substitution through the time steps."""
        return self._substitute(lin, rhs, "N", range(self.nt))

    def solve_cy_transpose(self, lin, rhs) -> np.ndarray:
        """Block backward substitution with the transposed step Jacobians."""
        return self._substitute(lin, rhs, "T", range(self.nt - 1, -1, -1))

    def _substitute(self, lin, rhs, trans: str, steps: range) -> np.ndarray:
        factors = lin.factors
        rb = as_vector(rhs, self.n_y, name="rhs").reshape(self.nt, self.nx)
        mass_dt, conv, gttrs = self._stencils[0], np.convolve, self._gttrs  # M is symmetric
        out = np.empty((self.nt, self.nx))
        x = np.zeros(self.nx)
        for i in steps:
            x, _ = gttrs(*factors[i], rb[i] + conv(x, mass_dt)[1:-1], trans=trans, overwrite_b=1)
            out[i] = x
        return out.ravel()

    @cached_property
    def _operators(self) -> tuple:
        """``(F_b, G_u, G_y, c_u)``, the same at every base point. F_b =
        kron(I_{nt+1}, F) is a CSR matrix, which ``residual`` applies. The
        partial Jacobians are ``LinearOperator``s on CSR matrices with their
        CSR transposes: G_u and G_y hold F's blocks, scaled by
        sqrt(omega dt) and sqrt(dt), and c_u holds M's, scaled by -1. Built on
        first use, so the constructor assembles nothing."""
        nx, nt, n, m, F = self.nx, self.nt, self.n, self.m, self._sqrtM
        sd, so = math.sqrt(self.dt), math.sqrt(self.omega * self.dt)
        return (
            _block_matrix(F, nt + 1, (n, n)),
            _operator(_block_matrix(F, nt + 1, (m, n), row0=n), so),
            # the states at steps 1..nt; block 0 holds the initial state, which is data
            _operator(_block_matrix(F, nt, (m, self.n_y), row0=nx), sd),
            # block 0 of the control enters no constraint
            _operator(_block_matrix(self.M, nt, (self.n_y, n), col0=nx), -1.0),
        )
