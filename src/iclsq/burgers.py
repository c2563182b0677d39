"""Optimal control of a viscous nonlinear transport equation on (0, 1).

Backward Euler in time, piecewise linear elements in space on a uniform
mesh, homogeneous Dirichlet ends. The spatial operators M, B and C are
constant-coefficient tridiagonals, each stored as its three coefficients
``(lower, diag, upper)``. One Newton loop, ``_newton``, solves c(y, u) = 0
for the k time steps that follow a known state, from a guess of their
states. Each iteration evaluates every step's residual
(M/dt + nu C) y_i + B(y_i y_i)/2 - (M y_{i-1})/dt - M u_i with three 3-point
``np.correlate`` calls on the states laid end to end, each after a zero, so
that a step's residual rounds alike whatever k, and subtracts one
correction. Without a guess, the loop runs once per time step (k = 1) from
the previous step's state, and each correction is one LAPACK tridiagonal
solve (``dgtsv``) with the step Jacobian. With the caller's guess of the
whole trajectory (the solver predicts its trial states), it runs once on
all time steps at once (k = nt; Deuflhard, Newton Methods for Nonlinear
Problems, 2004), and each correction is one solve with c_y at the current
trajectory (``_correct``): up to 32 nodes through ``_factor`` below, on
wider grids one ``dgtsv`` per time step, which factors and solves at once,
since a correction would use a factor only once. A solve that fails from a
guess marches again without it. The control terms M u_i of all steps come
from one sparse apply of c_u.
The linearized constraint c_y is block lower bidiagonal in time. One
method, ``_factor``, factors it with one ``step_jacobian`` call on the stack
of all time steps' blocks and returns its solve; ``linearize``'s solves use
it and keep its factors, since they solve many times at one base point. On
grids of up to 32 nodes it is one band LU of c_y^T (``dgbtrf``), built in a
copy of a band that holds the constant -M/dt blocks, so no Python loop runs
over the time steps. When the LU swapped no row, a solve in either
direction is two BLAS band triangular solves (``dtbsv``) on its factors,
with L and then U for c_y^T and with U^T and then L^T for c_y, without
``dgbtrs``'s one BLAS call per row; when it swapped a row, a solve is one
LAPACK band solve (``dgbtrs``, transposed for c_y). On wider grids the
band's fill costs more than the loop's calls save, and the solves are
forward (backward) substitutions over the time blocks, each through its time
step's tridiagonal LU factor (applied with ``dgttrs``) from one ``dgttrf``
per time step; these solves and the wide-grid Newton corrections share one
substitution loop, ``_substitute``, which solves each block in place in its
row of the result.
``linearize`` leaves the factoring to the first solve at the base point,
and the solve lives in its ``Linearization``.
The substitutions apply M/dt to single blocks with the same 3-point
``np.correlate``.
The operators on all blocks at once, the residual Jacobian G = [R_u R_y]
and c_u, are ``core.sparse_operator``s on CSR matrices that tile F's and
M's coefficient triples (``core.stencil_csr``). G is one CSR on the stacked
(u, y), built with its transpose once, that places F_b = I_{nt+1} kron F on
the controls in the control half of the residual and F_b without its first
block column on the states in the state half, with scales outside the
matrix: sqrt(dt) on the state half (in transpose, the state columns),
sqrt(omega dt) on the control half. c_u places M one block right of the
diagonal. The residual is linear, G (u, y - z). These matrices, the 3-point
kernels, ``step_jacobian``'s constant terms and the band's -M/dt blocks are
built on first use.

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
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv, dgttrf, dgttrs, dpttrf

from .core import DimensionMismatch, EvalCounters, ImplicitProblem, Linearization
from .core import StateSolveError, as_vector
from .core import check_integer, check_positive, sparse_operator, stencil_csr

__all__ = ["BurgersProblem"]


# c_y solves on grids of up to this many nodes go through one band LU. Wider
# grids solve step by step, since there the band's fill costs more than the
# per-step calls: at 128 x 32 on a 2-vCPU Xeon a band solve (two dtbsv
# calls, its LU swapping no row) took 170 us with c_y and 200 us with c_y^T,
# against the loop's 120 us either way, and the band LU 2.6 ms against
# 0.11 ms for the per-step factors.
_BAND_MAX_NX = 32


def _singular(info: int, nx: int) -> StateSolveError:
    """The error for a zero pivot at 1-based row ``info`` of the state."""
    step, pivot = divmod(info - 1, nx)
    return StateSolveError(
        f"singular step Jacobian at time step {step + 1} (zero pivot {pivot + 1})",
        step_index=step + 1,
    )


def _padded(y_prev, y) -> tuple:
    """``(flat, rows)``: a zero, then ``y_prev`` and the rows of the (k, nx)
    ``y``, each followed by a zero, and the (k, nx) view of flat's copy of y."""
    k, nx = y.shape
    flat = np.zeros((k + 1) * (nx + 1) + 1)
    rows = flat[1:].reshape(k + 1, nx + 1)[:, :nx]
    rows[0], rows[1:] = y_prev, y
    return flat, rows[1:]


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

    # block helper
    def state_blocks(self, y) -> np.ndarray:
        return as_vector(y, self.n_y, name="state").reshape(self.nt, self.nx)

    # dynamics
    @cached_property
    def _stencils(self) -> tuple:
        """``(M/dt, M/dt + nu C, B/2, jacobian)``: three 3-point kernels
        ``(lower, diag, upper)``, which ``np.correlate(x, k, "same")`` applies
        to a vector x with zeros beyond its ends, and ``jacobian = (M.lower/dt,
        B.lower, nu C.lower, diag, M.upper/dt, B.upper, nu C.upper)`` that
        ``step_jacobian`` adds, each rounded as the full expression rounds it:
        the off-diagonal terms one 0-d array each, which broadcast over a
        stack of blocks faster than (nx - 1)-vectors would, and the constant
        diagonal M/dt + nu C (B's zero diagonal adds a signed zero) an
        nx-vector, read only. Built on first use."""
        (m_lo, m_d, m_up), (b_lo, b_d, b_up), (c_lo, c_d, c_up) = self.M, self.B, self.C
        nx, dt, nu = self.nx, self.dt, self.nu
        diag = np.full(nx, m_d / dt + nu * c_d)
        diag.setflags(write=False)
        lower = [np.array(x) for x in (m_lo / dt, b_lo, nu * c_lo)]
        upper = [np.array(x) for x in (m_up / dt, b_up, nu * c_up)]
        return (
            np.array([m_lo / dt, m_d / dt, m_up / dt]),
            np.array([m_lo / dt + nu * c_lo, diag[0], m_up / dt + nu * c_up]),
            0.5 * np.array([b_lo, b_d, b_up]),
            (*lower, diag, *upper),
        )

    def step_jacobian(self, y_next) -> tuple:
        """Derivative of the step equation in its unknown state, as the
        diagonals ``(lower, diag, upper)`` of M/dt + B diag(y_next) + nu C.
        ``y_next`` is one block or a (k, nx) stack of blocks; a stack gives
        (k, nx - 1) off-diagonals whose rows are rounded as each block's
        alone. The diagonal is the same for every block, shared between calls
        and read only."""
        y = np.asarray(y_next, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != self.nx:
            raise DimensionMismatch(
                f"y_next must be a block of {self.nx} or a stack of them, got shape {y.shape}"
            )
        m_lo, b_lo, c_lo, diag, m_up, b_up, c_up = self._stencils[3]
        return m_lo + b_lo * y[..., :-1] + c_lo, diag, m_up + b_up * y[..., 1:] + c_up

    def solve_state(self, u, start=None, counters=None) -> np.ndarray:
        """Solve c(y, u) = 0 for the states; one forward solve, however many
        Newton iterations (``_newton``) it takes.

        Without ``start``, Newton runs once per time step from the previous
        step's state, each iteration one ``dgtsv`` with the step Jacobian and
        one more ``counters.newton_iters`` if counters are given; a failure
        raises ``StateSolveError`` naming its step. With ``start``, it runs
        once on all time steps from the guess ``start()``, each iteration one
        c_y solve (``_correct``: ``_factor``'s band solve up to
        ``_BAND_MAX_NX`` nodes, one ``dgtsv`` per time step above) and one
        more ``trajectory_newton_iters``. A
        step's residual rounds alike either way, so a guess the march solved
        passes at once. A guess that fails marches again without it, exactly
        as without one, so a guess never fails a solve that succeeds without
        one; its iterations stay counted. Newton from a guess far from y(u)
        may reach another solution of the step equations.
        """
        u = as_vector(u, self.n, name="control")
        tally = EvalCounters() if counters is None else counters
        # every step's control term -c_u u = M u_i in one sparse apply
        forcing = -(self._operators[1] @ u).reshape(self.nt, self.nx)
        # an overflowing iterate or guess ends its solve, so it warns of nothing
        with np.errstate(over="ignore", invalid="ignore"):
            if start is not None:

                def trajectory(y, res):
                    tally.trajectory_newton_iters += 1
                    return self._correct(y, res)

                try:
                    guess = self.state_blocks(start())
                    return self._newton(forcing, guess, self.y0, trajectory).ravel()
                except StateSolveError:
                    pass  # march again without the guess

            def step(y, res):
                # fresh off-diagonals and residual are overwritten; the shared
                # diagonal is read only and is copied
                dl, d, du = self.step_jacobian(y[0])
                tally.newton_iters += 1
                *_, delta, info = dgtsv(
                    dl, d, du, res[0], overwrite_dl=1, overwrite_du=1, overwrite_b=1
                )
                if info > 0:
                    raise StateSolveError(f"singular step Jacobian (zero pivot {info})")
                return delta

            out = np.empty((self.nt, self.nx))
            y_prev = self.y0
            for i in range(self.nt):
                try:
                    y_prev = self._newton(forcing[i : i + 1], y_prev[None], y_prev, step)[0]
                except StateSolveError as exc:
                    raise StateSolveError(
                        f"Newton failed at time step {i + 1}: {exc}",
                        step_index=i + 1,
                        residual_norm=exc.residual_norm,
                    ) from None
                out[i] = y_prev
            return out.ravel()

    def _newton(self, forcing, guess, y_prev, solve) -> np.ndarray:
        """The states of the k time steps after the state ``y_prev`` by
        Newton's method from the (k, nx) ``guess``, ``forcing`` their control
        terms: each iteration takes ``y -= solve(y, res)`` at the steps'
        residuals ``res`` until their largest norm is at most ``newton_tol``.
        ``solve`` is one ``dgtsv`` with the step Jacobian when k = 1, and
        ``_correct`` when k = nt.
        After ``newton_max_iter`` iterations, at a norm that is not finite or
        at a ``StateSolveError`` of ``solve``, it raises ``StateSolveError``
        with that norm."""
        tol, max_iter = self.newton_tol, self.newton_max_iter
        flat, y = _padded(y_prev, guess)
        for newton_iter in range(max_iter + 1):
            res, res_norm = self._step_residuals(flat, forcing)
            if res_norm <= tol:
                return y
            if newton_iter == max_iter or not math.isfinite(res_norm):
                raise StateSolveError(
                    f"residual {res_norm:.3e} after {newton_iter} iterations",
                    residual_norm=res_norm,
                )
            try:
                y -= solve(y, res)
            except StateSolveError as exc:
                exc.residual_norm = res_norm
                raise

    def _step_residuals(self, flat, forcing) -> tuple:
        """``(res, norm)`` at the states y_1, ..., y_k that ``_padded`` laid
        out in ``flat`` after y_0: row i of ``res`` is the residual
        (M/dt + nu C) y_i + B(y_i y_i)/2 - (M y_{i-1})/dt - f_i, f_i row i of
        the (k, nx) ``forcing``, and ``norm`` is the largest row norm. The
        zeros between the states let one ``np.correlate`` apply a 3-point
        kernel to all of them, and a row rounds alike whatever k."""
        k, nx = forcing.shape
        width = nx + 1
        mass_dt, step_op, half_b, _ = self._stencils
        corr = np.correlate
        lhs = corr(flat, step_op, "same") + corr(flat * flat, half_b, "same")
        # state i sits width entries after state i - 1
        lhs = lhs[width + 1 :] - corr(flat, mass_dt, "same")[1:-width]
        res = lhs.reshape(k, width)[:, :nx] - forcing
        return res, math.sqrt(np.maximum.reduce(np.add.reduce(res * res, 1)))

    def residual(self, y, u) -> np.ndarray:
        """R = G (u, y - z), linear in (y, u). Its first block,
        sqrt(dt) F (y0 - z), is zero since z = y0, so G leaves it empty."""
        u = as_vector(u, self.n, name="control")
        return self._operators[0] @ np.concatenate([u, (self.state_blocks(y) - self.z).ravel()])

    # linearization: the c_y solve lives in each base point's Linearization
    def linearize(self, y, u) -> Linearization:
        """The operators at (y, u). The first c_y solve that reads the result
        factors c_y at y once for all (see ``_factor``)."""
        yb = self.state_blocks(y)
        return Linearization(*self._operators, factor=lambda: self._factor(yb))

    def _factor(self, yb):
        """``solve(rhs, transpose)``: the solve with c_y (or with c_y^T) at
        the state blocks ``yb``, factored here with one ``step_jacobian`` call
        on the stack of all time steps' blocks. Up to ``_BAND_MAX_NX`` nodes
        that is one general band LU (``dgbtrf``) of c_y^T, which is block
        upper bidiagonal: the transposed step Jacobians on the diagonal and
        -M/dt above it, so kl = 1 and ku = nx + 1. The band is a copy of
        ``_band``'s Fortran-ordered template with the step Jacobians filled
        in, factored in place. Its row swaps stay inside a time step, so a
        zero pivot names its step. If the LU swapped no row, a solve is two
        ``dtbsv`` calls on its factors, and otherwise ``dgbtrs`` (transposed
        for c_y). On wider grids it is one tridiagonal LU (``dgttrf``) per
        time step, of its step Jacobian, and a solve substitutes through the time steps
        (``_substitute``). Every solve returns new memory and leaves ``rhs``
        as it was. A linearization keeps these factors, since it solves with
        them many times; a wide-grid Newton correction, which would solve
        once, goes through ``_correct``."""
        nx, nt = self.nx, self.nt
        lower, diag, upper = self.step_jacobian(yb)
        if nx <= _BAND_MAX_NX:
            template, unswapped = self._band
            lu = template.copy(order="F")
            # the band's columns as (step, node, band row): the transposed step
            # Jacobians go in rows nx + 1 to nx + 3
            cols = lu.T.reshape(nt, nx, nx + 4)
            cols[:, 1:, nx + 1], cols[:, :, nx + 2], cols[:, :-1, nx + 3] = lower, diag, upper
            lu, ipiv, info = dgbtrf(lu, 1, nx + 1, overwrite_ab=1)
            if info > 0:
                raise _singular(info, nx)
            # Without a row swap, c_y^T = L U with L unit lower bidiagonal, its
            # multipliers in lu's last row, and c_y = U^T L^T: each solve is two
            # dtbsv calls, where dgbtrs's L step makes one BLAS call per row. A
            # c_y^T solve rounds as dgbtrs does (its U solve is dgbtrs's own, its
            # L solve ends in the axpy kernel of dgbtrs's dger steps); a c_y
            # solve's dot products are not dgbtrs's dgemv, so its last bits differ.
            unit_lower = np.asfortranarray(lu[nx + 2 :]) if (ipiv == unswapped).all() else None

            def solve(rhs, transpose):
                if unit_lower is None:
                    # c_y is the transpose of the factored matrix
                    return dgbtrs(lu, 1, nx + 1, rhs, ipiv, int(not transpose))[0]
                if transpose:
                    x = dtbsv(1, unit_lower, rhs, lower=1, diag=1)
                    return dtbsv(nx + 2, lu, x, overwrite_x=1)
                x = dtbsv(nx + 2, lu, rhs, trans=1)
                return dtbsv(1, unit_lower, x, lower=1, trans=1, diag=1, overwrite_x=1)

            return solve
        steps = []
        for i in range(nt):
            *factor, info = dgttrf(lower[i], diag, upper[i])
            if info > 0:
                raise _singular(i * nx + info, nx)
            steps.append(factor)
        # dgttrs(dl, d, du, du2, ipiv, b, trans, overwrite_b)
        return lambda rhs, transpose: self._substitute(
            rhs.reshape(nt, nx), dgttrs, steps, ("T" if transpose else "N", 1), transpose).ravel()

    def _correct(self, yb, res) -> np.ndarray:
        """The (nt, nx) Newton correction c_y^{-1} res at the state blocks
        ``yb``, for the (nt, nx) residuals ``res``. Up to ``_BAND_MAX_NX``
        nodes it is ``_factor``'s c_y solve, two ``dtbsv`` calls if its LU
        swapped no row. On wider grids no factor is kept, since a correction
        uses it once: one ``step_jacobian`` call on the stack, then
        ``_substitute`` with one ``dgtsv`` per time step, which eliminates
        and substitutes as ``dgttrf`` and ``dgttrs`` do."""
        if self.nx <= _BAND_MAX_NX:
            return self._factor(yb)(res.ravel(), False).reshape(res.shape)
        lower, diag, upper = self.step_jacobian(yb)
        # dgtsv(dl, d, du, b, overwrite_dl, overwrite_d, overwrite_du, overwrite_b):
        # fresh off-diagonals are overwritten; the shared diagonal is copied, as
        # f2py would overwrite it although it is read only
        return self._substitute(res, dgtsv, [(lo, diag, up) for lo, up in zip(lower, upper)],
                                (1, 0, 1, 1))

    def _substitute(self, rhs, routine, args, tail, backward=False) -> np.ndarray:
        """Block forward (``backward``: backward) substitution with c_y (c_y^T)
        for the (nt, nx) ``rhs``. Row i of the result first holds step i's
        right-hand side, rhs[i] + M/dt times the block solved before it, and
        ``routine(*args[i], row, *tail)``, a LAPACK tridiagonal solve
        (``dgttrs``, ``dgtsv``) whose trailing arguments ``tail`` tell it to
        overwrite its right-hand side, solves it there; its last result,
        info > 0, a zero pivot, names step i + 1. The arguments are
        positional, since keywords would cost a dict per call."""
        nt, nx = rhs.shape
        mass_dt = self._stencils[0]
        out = np.empty((nt, nx))
        x = np.zeros(nx)
        for i in range(nt - 1, -1, -1) if backward else range(nt):
            row = out[i]
            # M is symmetric, so c_y and c_y^T couple the steps alike
            np.add(rhs[i], np.correlate(x, mass_dt, "same"), out=row)
            info = routine(*args[i], row, *tail)[-1]
            if info > 0:
                raise _singular(i * nx + info, nx)
            x = row
        return out

    def solve_cy(self, lin, rhs) -> np.ndarray:
        """Two transposed band triangular solves with the factors of c_y^T
        (one transposed band solve if the LU swapped a row), or on wide grids
        block forward substitution through the time steps."""
        return lin.factors(as_vector(rhs, self.n_y, name="rhs"), False)

    def solve_cy_transpose(self, lin, rhs) -> np.ndarray:
        """Two band triangular solves with the factors of c_y^T (one band
        solve if the LU swapped a row), or on wide grids block backward
        substitution with the transposed step Jacobians."""
        return lin.factors(as_vector(rhs, self.n_y, name="rhs"), True)

    @cached_property
    def _band(self) -> tuple:
        """``(template, unswapped)``: the band that ``_factor`` copies up to
        ``_BAND_MAX_NX`` nodes, LAPACK's (nx + 4, nt nx) general band storage
        of c_y^T in Fortran order, whose row nx + 2 - d holds diagonal d and
        row 0 the LU's fill, here with only the blocks -M/dt above the
        diagonal set (diagonals nx + 1, nx and nx - 1), read only; and the
        0-based pivots of an LU that swaps no row. Built on first use."""
        nx, nt = self.nx, self.nt
        template = np.zeros((nx + 4, nt * nx), order="F")
        cols = template.T.reshape(nt, nx, nx + 4)
        m_lo, m_d, m_up = self._stencils[0]
        # at nx = 2 the steps' lower diagonal shares row 3, in the other column
        cols[1:, 1:, 1], cols[1:, :, 2], cols[1:, :-1, 3] = -m_lo, -m_d, -m_up
        template.setflags(write=False)
        return template, np.arange(nt * nx, dtype=np.int32)

    @cached_property
    def _operators(self) -> tuple:
        """``(G, c_u)``, the same at every base point, and also what
        ``residual`` and ``solve_state`` apply. Zero entries of a block are
        not stored. Built on first use, so the constructor assembles nothing."""
        nx, nt, n = self.nx, self.nt, self.n
        F, M = np.zeros((2, nx, 3))  # a tridiagonal's row k at columns k - 1, k, k + 1
        for vals, T in ((F, self._sqrtM), (M, self.M)):
            vals[1:, 0], vals[:, 1], vals[:-1, 2] = T
        cols = np.arange(-1, nx - 1, dtype=np.int32)[:, None] + np.arange(3, dtype=np.int32)
        offset = nx * np.arange(nt + 1, dtype=np.int32)[:, None, None]
        # rows: nt + 1 state blocks, then nt + 1 control blocks; columns: the controls,
        # then the states at steps 1..nt (state 0 is data, so its rows stay empty)
        G = stencil_csr(
            np.concatenate([cols + offset + (n - nx), cols + offset]),
            np.concatenate([F * (offset > 0), np.broadcast_to(F, (nt + 1, nx, 3))]),
            n + self.n_y,
        )
        # block 0 of the control enters no constraint
        c_u = stencil_csr(cols + offset[1:], np.broadcast_to(M, (nt, nx, 3)), n)
        sd, so = math.sqrt(self.dt), math.sqrt(self.omega * self.dt)
        # sqrt(dt) on the state half of the rows and the state columns
        row_scale, col_scale = np.repeat([sd, so], n), np.repeat([so, sd], [n, self.n_y])
        return (
            sparse_operator(G, G.T.tocsr(), row_scale, col_scale),
            sparse_operator(c_u, c_u.T.tocsr(), -1.0, -1.0),
        )
