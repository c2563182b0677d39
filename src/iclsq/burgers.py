"""Optimal control of a viscous nonlinear transport equation on (0, 1).

Backward Euler in time, piecewise linear elements in space on a uniform
mesh, homogeneous Dirichlet ends. The spatial operators are constant-
coefficient tridiagonals and are stored as their three diagonals. Each time
step is advanced with Newton's method, one LAPACK tridiagonal solve
(``dgtsv``) per iteration. The Newton loop forms each step's right-hand side
(M y_prev)/dt + f + M u once per step, with the control terms of all steps
in one block apply, so each iteration only evaluates A v + B(v v)/2 - rhs,
A = M/dt + nu C. ``step_jacobian`` reads its state-independent terms from a
cache built on first use.
The linearized constraint is block lower bidiagonal in time, so its
(transposed) solves are forward (backward) substitutions over the time
blocks, each through one tridiagonal LU factor per time step (``dgttrf``,
applied with ``dgttrs``). ``linearize`` leaves the factoring to the first
solve at the base point, and the factors live in its ``Linearization``. The
per-step loops apply their Toeplitz operators to single blocks as one
3-point ``np.convolve`` each; the stacked block applies of the residual and
the control operators go through ``_Tridiag``.

Unknowns for the implicit-problem contract are the states at steps 1..Nt;
the initial state is data. Controls carry Nt + 1 blocks including a block
for time zero that enters no constraint and is felt only through its
regularization term.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf

from .core import ImplicitProblem, LinearOperator, Linearization, StateSolveError, as_vector

__all__ = ["BurgersProblem"]


class _Tridiag(NamedTuple):
    """Tridiagonal matrix by its diagonals: ``A[i, i-1] = lower[i-1]``,
    ``A[i, i] = diag[i]``, ``A[i, i+1] = upper[i]``.

    ``A @ x`` applies A along the last axis of x, so one call covers a whole
    stack of blocks.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def T(self) -> "_Tridiag":
        return _Tridiag(self.upper, self.diag, self.lower)

    def __matmul__(self, x):
        out = self.diag * x
        out[..., 1:] += self.lower * x[..., :-1]
        out[..., :-1] += self.upper * x[..., 1:]
        return out


def _tridiag(nx: int, lower: float, diag: float, upper: float) -> _Tridiag:
    return _Tridiag(np.full(nx - 1, lower), np.full(nx, diag), np.full(nx - 1, upper))


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
            y_init = np.zeros(nx)
            y_init[: nx // 2] = 1.0
        self.y0 = as_vector(y_init, nx, name="y_init").copy()
        self.z = self.y0.copy()
        self.newton_tol = float(newton_tol)
        self.newton_max_iter = int(newton_max_iter)
        # M = L D L^T with L unit lower bidiagonal, so F = sqrt(D) L^T is
        # upper bidiagonal with F^T F = M.
        d, e, _ = dpttrf(self.M.diag, self.M.lower)
        root = np.sqrt(d)
        self._sqrtM = _Tridiag(np.zeros(nx - 1), root, root[:-1] * e)
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

    # block helpers
    def control_blocks(self, u) -> np.ndarray:
        return as_vector(u, self.n, name="control").reshape(self.nt + 1, self.nx)

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
        M, C, dt, nu = self.M, self.C, self.dt, self.nu
        diag = M.diag / dt + nu * C.diag
        diag.setflags(write=False)
        return M.lower / dt, nu * C.lower, diag, M.upper / dt, nu * C.upper

    @cached_property
    def _stencils(self) -> tuple:
        """3-point kernels ``(M/dt, M/dt + nu C, B/2)`` of the per-step
        loops: ``np.convolve(x, k)[1:-1]`` applies the tridiagonal with
        diagonals ``(lower, diag, upper)`` for ``k = [upper, diag, lower]``,
        exactly at every nx >= 2. Built on first use."""
        m_lo, c_lo, diag, m_up, c_up = self._jacobian_constants
        B = self.B
        return (
            np.array([m_up[0], self.M.diag[0] / self.dt, m_lo[0]]),
            np.array([m_up[0] + c_up[0], diag[0], m_lo[0] + c_lo[0]]),
            0.5 * np.array([B.upper[0], B.diag[0], B.lower[0]]),
        )

    def step_jacobian(self, y_next) -> _Tridiag:
        """Derivative of the step equation in its unknown state, as the
        diagonals ``(lower, diag, upper)`` of M/dt + B diag(y_next) + nu C.
        The diagonal is shared between calls and read only."""
        y = as_vector(y_next, self.nx, name="y_next")
        m_lo, c_lo, diag, m_up, c_up = self._jacobian_constants
        return _Tridiag(
            m_lo + self.B.lower * y[:-1] + c_lo,
            diag,
            m_up + self.B.upper * y[1:] + c_up,
        )

    def solve_state(self, u) -> np.ndarray:
        """March the dynamics with one Newton solve per time step.

        Each step's residual (M/dt + nu C) v + B(v v)/2 - (M y_prev)/dt - f - M u
        is evaluated at most ``newton_max_iter + 1`` times; a step still above
        ``newton_tol`` at the last evaluation raises ``StateSolveError``.
        Counts as a single forward solve regardless of Newton iterations.
        """
        ub = self.control_blocks(u)
        mass_dt, step_op, half_b = self._stencils
        forcing = self.f + self.M @ ub[1:]  # every step's control term in one block apply
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
        ub = self.control_blocks(u)
        F = self._sqrtM
        sd = math.sqrt(self.dt)
        so = math.sqrt(self.omega * self.dt)
        states = np.vstack([self.y0, yb]) - self.z
        return np.concatenate([sd * (F @ states), so * (F @ ub)]).ravel()

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

        return Linearization(*self._operators, factor=factor)

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
        """``(G_u, G_y, c_u)``, the same at every base point; built on first use."""
        M, nt, nx = self.M, self.nt, self.nx

        def cu_adj(w):
            out = np.zeros((nt + 1, nx))
            out[1:] = -(M @ w.reshape(nt, nx))  # M symmetric
            return out.ravel()

        return (
            self._residual_blocks_op(math.sqrt(self.omega * self.dt), nt + 1, nt + 1),
            # the states at steps 1..nt; block 0 holds the initial state, which is data
            self._residual_blocks_op(math.sqrt(self.dt), 1, nt),
            # block 0 of the control enters no constraint
            LinearOperator(
                (self.n_y, self.n), lambda v: (-(M @ v.reshape(nt + 1, nx)[1:])).ravel(), cu_adj
            ),
        )

    def _residual_blocks_op(self, scale: float, first: int, count: int) -> LinearOperator:
        """scale * F on the residual blocks [first, first + count), zero elsewhere."""
        nx, F = self.nx, self._sqrtM
        out_shape = (2 * (self.nt + 1), nx)
        blocks = slice(first, first + count)

        def fwd(v):
            out = np.zeros(out_shape)
            out[blocks] = scale * (F @ v.reshape(count, nx))
            return out.ravel()

        def adj(w):
            return (scale * (F.T @ w.reshape(-1, nx)[blocks])).ravel()

        return LinearOperator((self.m, count * nx), fwd, adj)
