"""Optimal control of a viscous nonlinear transport equation on (0, 1).

Backward Euler in time, piecewise linear elements in space on a uniform
mesh, homogeneous Dirichlet ends. The spatial operators M, B and C are
constant-coefficient tridiagonals, each stored as its three coefficients
``(lower, diag, upper)``. Each time step is advanced with Newton's method,
one LAPACK tridiagonal solve (``dgtsv``) per iteration. The Newton loop
forms each step's right-hand side (M y_prev)/dt + M u once per step,
with the control terms of all steps in one sparse apply of c_u, so each
iteration only evaluates A v + B(v v)/2 - rhs, A = M/dt + nu C. Newton
starts each step from the previous step's state, or from the caller's guess
of the whole trajectory when one is given (the solver predicts its trial
states); a march that fails from a guess is marched again without it.
The linearized constraint is block lower bidiagonal in time, so its
(transposed) solves are forward (backward) substitutions over the time
blocks, each through one tridiagonal LU factor per time step (``dgttrf``,
applied with ``dgttrs``). ``linearize`` leaves the factoring to the first
solve at the base point, and the factors live in its ``Linearization``. The
per-step loops apply their Toeplitz operators to single blocks as one
3-point ``np.convolve`` each. The operators on all blocks at once, the
partial Jacobians G_u, G_y and c_u, are ``core.sparse_operator``s on
``scipy.sparse`` CSR matrices. G_u and G_y both place F_b = I_{nt+1} kron F,
built with its transpose once: G_u on the control half of the residual, G_y
without F_b's first block column on the state half. c_u is the Kronecker
product of a shifted identity with M. The residual is linear,
G_y (y - z) + G_u u. These matrices, the 3-point kernels and
``step_jacobian``'s constant terms are built on first use.

Unknowns for the implicit-problem contract are the states at steps 1..Nt;
the initial state is data. Controls carry Nt + 1 blocks including a block
for time zero that enters no constraint and is felt only through its
regularization term. So the constructor sets n = (Nt + 1) nx, n_y = Nt nx
and m = 2 (Nt + 1) nx, a state and a control half of the residual.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dpttrf

from .core import EvalCounters, ImplicitProblem, Linearization, StateSolveError, as_vector
from .core import check_integer, check_positive, sparse_operator

__all__ = ["BurgersProblem"]


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
        its residual norm is at most ``newton_tol`` and fails after
        ``newton_max_iter`` iterations.
    nx (at least 2), nt (at least 1) and newton_max_iter (at least 0) are integers
    (numpy's too, not bool); nu, omega and newton_tol are positive and finite.
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
        self.nx = nx = check_integer("nx", nx, 2)
        self.nt = nt = check_integer("nt", nt, 1)
        self.n, self.n_y, self.m = (nt + 1) * nx, nt * nx, 2 * (nt + 1) * nx
        self.newton_max_iter = check_integer("newton_max_iter", newton_max_iter, 0)
        self.nu = check_positive("nu", nu)
        self.omega = check_positive("omega", omega)
        self.newton_tol = check_positive("newton_tol", newton_tol)
        self.h = 1.0 / self.nx
        self.dt = 1.0 / self.nt
        mass, stiff = self.h / 6.0, 1.0 / self.h
        self.M = (mass, 4.0 * mass, mass)
        self.B = (-0.5, 0.0, 0.5)
        self.C = (-stiff, 2.0 * stiff, -stiff)
        if y_init is None:
            self.y0 = np.zeros(nx)
            self.y0[: nx // 2] = 1.0
        else:
            self.y0 = as_vector(y_init, nx, name="y_init").copy()
            if not np.all(np.isfinite(self.y0)):
                raise ValueError("y_init must be finite")
        self.z = self.y0.copy()
        # M = L D L^T with L unit lower bidiagonal, so F = sqrt(D) L^T is
        # upper bidiagonal with F^T F = M.
        d, e, _ = dpttrf(np.full(nx, 4.0 * mass), np.full(nx - 1, mass))
        root = np.sqrt(d)
        self._sqrtM = (0.0, root, root[:-1] * e)
        self._gttrf, self._gttrs = (dgttrf, dgttrs) if nx > 2 else (_padded_gttrf, _padded_gttrs)

    # block helper
    def state_blocks(self, y) -> np.ndarray:
        return as_vector(y, self.n_y, name="state").reshape(self.nt, self.nx)

    # dynamics
    @cached_property
    def _stencils(self) -> tuple:
        """``(M/dt, M/dt + nu C, B/2, jacobian)``: the per-step loops' 3-point
        kernels, where ``np.convolve(x, k)[1:-1]`` applies ``(lower, diag,
        upper)`` for ``k = [upper, diag, lower]`` exactly at every nx >= 2,
        and the arrays ``jacobian = (M.lower/dt, B.lower, nu C.lower, diag,
        M.upper/dt, B.upper, nu C.upper)`` that ``step_jacobian`` adds, each
        rounded as the full expression rounds it (array operands are cheaper
        there than scalars). The constant diagonal M/dt + nu C (B's zero
        diagonal adds a signed zero) is read only. Built on first use."""
        (m_lo, m_d, m_up), (b_lo, b_d, b_up), (c_lo, c_d, c_up) = self.M, self.B, self.C
        nx, dt, nu = self.nx, self.dt, self.nu
        diag = np.full(nx, m_d / dt + nu * c_d)
        diag.setflags(write=False)
        lower = [np.full(nx - 1, x) for x in (m_lo / dt, b_lo, nu * c_lo)]
        upper = [np.full(nx - 1, x) for x in (m_up / dt, b_up, nu * c_up)]
        return (
            np.array([m_up / dt, m_d / dt, m_lo / dt]),
            np.array([m_up / dt + nu * c_up, diag[0], m_lo / dt + nu * c_lo]),
            0.5 * np.array([b_up, b_d, b_lo]),
            (*lower, diag, *upper),
        )

    def step_jacobian(self, y_next) -> tuple:
        """Derivative of the step equation in its unknown state, as the
        diagonals ``(lower, diag, upper)`` of M/dt + B diag(y_next) + nu C.
        The diagonal is shared between calls and read only."""
        y = as_vector(y_next, self.nx, name="y_next")
        m_lo, b_lo, c_lo, diag, m_up, b_up, c_up = self._stencils[3]
        return m_lo + b_lo * y[:-1] + c_lo, diag, m_up + b_up * y[1:] + c_up

    def solve_state(self, u, start=None, counters=None) -> np.ndarray:
        """March the dynamics with one Newton solve per time step.

        Each step's residual (M/dt + nu C) v + B(v v)/2 - (M y_prev)/dt - M u
        is evaluated at most ``newton_max_iter + 1`` times; a step still above
        ``newton_tol`` at the last evaluation, or whose residual norm is not
        finite (it overflowed), or whose step Jacobian has a zero pivot,
        raises ``StateSolveError`` at once. Newton starts each step from the
        previous step's state or, if ``start`` is given, from the same step's
        block of the guess ``start()``. Should any step fail from the guess,
        the march starts over without it, exactly as without a guess, so a
        guess never fails a solve that succeeds without one. Newton from a
        guess far from y(u) may reach another solution of a step's equation.
        Every iteration, those of a march that failed included, adds one to
        ``counters.newton_iters`` if counters are given.
        Counts as a single forward solve regardless of Newton iterations.
        """
        u = as_vector(u, self.n, name="control")
        tally = EvalCounters() if counters is None else counters
        # every step's control term -c_u u = M u_i in one sparse apply
        forcing = -(self._operators[2] @ u).reshape(self.nt, self.nx)
        # an overflowing iterate or guess ends its march, so it warns of nothing
        with np.errstate(over="ignore", invalid="ignore"):
            if start is not None:
                try:
                    return self._march(forcing, self.state_blocks(start()), tally)
                except StateSolveError:
                    pass  # march again without the guess
            return self._march(forcing, None, tally)

    def _march(self, forcing, guess, tally: EvalCounters) -> np.ndarray:
        mass_dt, step_op, half_b, _ = self._stencils
        tol, max_iter, conv = self.newton_tol, self.newton_max_iter, np.convolve
        out = np.empty((self.nt, self.nx))
        y_prev = self.y0
        for i in range(self.nt):
            rhs = conv(y_prev, mass_dt)[1:-1] + forcing[i]
            v = y_prev if guess is None else guess[i]  # never written to
            for newton_iter in range(max_iter + 1):
                res = conv(v, step_op)[1:-1] + conv(v * v, half_b)[1:-1] - rhs
                res_norm = math.sqrt(res @ res)
                if res_norm <= tol:
                    break
                if newton_iter == max_iter or not math.isfinite(res_norm):
                    raise StateSolveError(
                        f"Newton failed at time step {i + 1}: residual {res_norm:.3e} "
                        f"after {newton_iter} iterations",
                        step_index=i + 1,
                        residual_norm=res_norm,
                    )
                # fresh off-diagonals and residual are overwritten; the shared
                # diagonal is read only and is copied
                dl, d, du = self.step_jacobian(v)
                tally.newton_iters += 1
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
        """R = G_y (y - z) + G_u u, linear in (y, u). Its first block,
        sqrt(dt) F (y0 - z), is zero since z = y0, so G_y leaves it empty."""
        Gu, Gy, _ = self._operators
        return Gy @ (self.state_blocks(y) - self.z).ravel() + Gu @ u

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
        """``(G_u, G_y, c_u)``, the same at every base point, and also what
        ``residual`` applies. Zero entries of a block are not stored. Built
        on first use, so the constructor assembles nothing."""
        nx, nt = self.nx, self.nt
        F, M = (sp.diags(T, [-1, 0, 1], shape=(nx, nx)) for T in (self._sqrtM, self.M))
        F_b = sp.kron(sp.identity(nt + 1), F, format="csr")
        F_b_T = F_b.T.tocsr()
        # block 0 of the control enters no constraint
        c_u = sp.kron(sp.eye(nt, nt + 1, k=1), M, format="csr")
        sd, so = math.sqrt(self.dt), math.sqrt(self.omega * self.dt)
        return (
            # residual rows: nt + 1 state blocks, then nt + 1 control blocks
            sparse_operator(F_b, F_b_T, so, self.m, first=(nt + 1) * nx),
            # the states at steps 1..nt; block 0 holds the initial state, which is data
            sparse_operator(F_b[:, nx:], F_b_T[nx:], sd, self.m),
            sparse_operator(c_u, c_u.T.tocsr(), -1.0, self.n_y),
        )
