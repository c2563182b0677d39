"""Nonlinear transport benchmark: matrices, stepping, adjoint structure."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import LinearOperator, StateSolveError

from conftest import (
    assert_adjoint_identity,
    constraint_residual,
    dense_cy,
    dense_partials,
    dense_jacobian_oracle,
    feasibility_tol,
    reference_solve_state,
    reference_step_jacobian,
    step_residual,
    tridiag_dense,
)


def step_residual_oracle(prob, y_prev, y_next, u_next):
    """Scalar-loop expansion of the implicit step equation, written directly
    from the tridiagonal entry patterns rather than the stored matrices."""
    nx, h, dt, nu = prob.nx, prob.h, prob.dt, prob.nu
    out = np.zeros(nx)
    for i in range(nx):
        lo, hi = max(i - 1, 0), min(i + 1, nx - 1)
        m_row = 0.0
        for j in range(lo, hi + 1):
            w = 4.0 if j == i else 1.0
            m_row += (h / 6.0) * w * (y_next[j] - y_prev[j] - dt * u_next[j])
        conv = 0.0
        if i + 1 < nx:
            conv += 0.5 * y_next[i + 1] ** 2
        if i - 1 >= 0:
            conv -= 0.5 * y_next[i - 1] ** 2
        diff = 2.0 * y_next[i]
        if i + 1 < nx:
            diff -= y_next[i + 1]
        if i - 1 >= 0:
            diff -= y_next[i - 1]
        out[i] = m_row / dt + 0.5 * conv + nu * diff / h
    return out


def assert_close(got, expected, rtol=1e-12):
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # signed zeros too


class SingularStep(BurgersProblem):
    """Step Jacobians with a zero diagonal, which is singular at odd nx."""

    def step_jacobian(self, y_next):
        lower, _, upper = super().step_jacobian(y_next)
        return lower, np.zeros(self.nx), upper


class TestMatrices:
    def test_mass_entries(self):
        prob = BurgersProblem(4, 4)
        assert prob.h == 0.25
        M = tridiag_dense(prob.M, prob.nx)
        np.testing.assert_allclose(np.diag(M), 1.0 / 6.0)
        np.testing.assert_allclose(np.diag(M, 1), 1.0 / 24.0)
        np.testing.assert_allclose(np.diag(M, -1), 1.0 / 24.0)

    def test_diffusion_row(self):
        prob = BurgersProblem(4, 4)
        np.testing.assert_allclose(tridiag_dense(prob.C, prob.nx)[1], [-4.0, 8.0, -4.0, 0.0])

    def test_convection_skew_symmetric(self):
        prob = BurgersProblem(6, 3)
        B = tridiag_dense(prob.B, prob.nx)
        np.testing.assert_array_equal(B.T, -B)
        np.testing.assert_allclose(np.diag(B, 1), 0.5)

    def test_default_profile(self):
        prob = BurgersProblem(6, 3)
        np.testing.assert_array_equal(prob.y0, [1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(prob.z, prob.y0)

    def test_dimensions(self):
        prob = BurgersProblem(4, 3)
        assert (prob.n, prob.n_y, prob.m) == (16, 12, 32)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BurgersProblem(1, 4)
        with pytest.raises(ValueError):
            BurgersProblem(4, 0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"nt": 4.7},  # ran 4 steps of dt = 1 / 4.7, a horizon of 0.85
            {"nx": 16.5},  # failed with a TypeError from np.full
            {"nt": True},  # ran one step
            {"newton_max_iter": 2.5},  # ran with 2
        ],
    )
    def test_rejects_non_integer_size(self, setting):
        sizes = dict(nx=8, nt=4) | setting
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must be an integer"):
            BurgersProblem(**sizes)

    def test_accepts_numpy_integer_sizes(self):
        prob = BurgersProblem(np.int64(8), np.int32(4), newton_max_iter=np.int16(3))
        assert (prob.nx, prob.nt, prob.newton_max_iter) == (8, 4, 3)
        assert (prob.h, prob.dt) == (0.125, 0.25)

    @pytest.mark.parametrize(
        "setting",
        [
            {"newton_max_iter": -1},  # skipped Newton: every state was y0
            {"newton_tol": math.inf},  # accepted y0 as every state
            {"newton_tol": 0.0},  # failed every solve at a 1e-16 residual
            {"newton_tol": -1e-12},
            {"newton_tol": math.nan},
            {"y_init": [1.0, math.nan, 0.0, 0.0]},  # ran Newton on NaN
            {"y_init": [1.0, 0.0, math.inf, 0.0]},
            {"nu": True},  # ran with nu = 1
        ],
    )
    def test_rejects_bad_newton_setting(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            BurgersProblem(4, 4, **setting)

    def test_constructor_builds_no_sparse_operator(self):
        # The operators are built on first use; the constructor stays cheap.
        prob = BurgersProblem(5, 4)

        def sparse_held():
            held = [x for v in vars(prob).values() for x in (v if isinstance(v, tuple) else (v,))]
            return [x for x in held if sp.issparse(x) or isinstance(x, LinearOperator)]

        assert not sparse_held()
        prob.residual(np.zeros(prob.n_y), np.zeros(prob.n))
        assert sparse_held()


class TestStepResidual:
    def test_all_zero(self):
        prob = BurgersProblem(4, 4)
        res = step_residual(prob, np.zeros(4), np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(res, np.zeros(4))

    def test_zero_next_state(self, rng):
        prob = BurgersProblem(4, 4)
        y_prev = rng.standard_normal(4)
        u_next = rng.standard_normal(4)
        res = step_residual(prob, y_prev, np.zeros(4), u_next)
        M = tridiag_dense(prob.M, prob.nx)
        expected = -(M @ y_prev) / prob.dt - M @ u_next
        np.testing.assert_allclose(res, expected, atol=1e-15)

    def test_matches_scalar_oracle(self, rng):
        prob = BurgersProblem(4, 5, nu=0.3)
        for _ in range(10):
            y_prev = rng.standard_normal(4)
            y_next = rng.standard_normal(4)
            u_next = rng.standard_normal(4)
            np.testing.assert_allclose(
                step_residual(prob, y_prev, y_next, u_next),
                step_residual_oracle(prob, y_prev, y_next, u_next),
                atol=1e-14,
            )

    @pytest.mark.parametrize("nx", [4, 8])
    def test_jacobian_matches_finite_differences(self, nx, rng):
        prob = BurgersProblem(nx, 4, nu=0.2)
        y_prev = rng.standard_normal(nx)
        y_next = rng.standard_normal(nx)
        u_next = rng.standard_normal(nx)
        jac = tridiag_dense(prob.step_jacobian(y_next), prob.nx)
        t = 1e-6
        for j in range(nx):
            e = np.zeros(nx)
            e[j] = t
            col = (
                step_residual(prob, y_prev, y_next + e, u_next)
                - step_residual(prob, y_prev, y_next - e, u_next)
            ) / (2 * t)
            assert np.linalg.norm(col - jac[:, j]) <= 1e-6 * (1 + np.linalg.norm(col))


class TestForwardSolve:
    def test_zero_everything_stays_zero(self):
        prob = BurgersProblem(4, 4, y_init=np.zeros(4))
        y = prob.solve_state(np.zeros(prob.n))
        np.testing.assert_array_equal(y, np.zeros(prob.n_y))

    def test_manufactured_solution(self):
        nx, nt = 6, 5
        xs = (np.arange(1, nx + 1)) / (nx + 1)
        blocks = [np.sin(math.pi * xs) * math.exp(-0.3 * i) for i in range(nt + 1)]
        prob = BurgersProblem(nx, nt, nu=0.2, y_init=blocks[0])
        Minv = np.linalg.inv(tridiag_dense(prob.M, prob.nx))
        u = np.zeros((nt + 1, nx))
        for i in range(nt):
            gap = step_residual(prob, blocks[i], blocks[i + 1], np.zeros(nx))
            u[i + 1] = Minv @ gap  # forcing that makes the step exact
        y = prob.solve_state(u.ravel())
        expected = np.concatenate(blocks[1:])
        assert np.linalg.norm(y - expected) <= 1e-10 * (1 + np.linalg.norm(expected))

    def test_feasibility_of_forward_solve(self, rng):
        prob = BurgersProblem(6, 6, nu=0.1)
        u = 0.5 * rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        c = constraint_residual(prob, y, u)
        assert np.linalg.norm(c) <= feasibility_tol(prob)

    def test_newton_failure_reports_step(self):
        # A huge control and one allowed iteration cannot converge.
        prob = BurgersProblem(4, 4, newton_max_iter=1)
        u = 1e6 * np.ones(prob.n)
        with pytest.raises(StateSolveError) as err:
            prob.solve_state(u)
        assert err.value.step_index == 1
        assert err.value.residual_norm > 0

    def test_overflowing_newton_fails_at_once(self):
        # The residual norm overflows in the first Newton iteration; iterating
        # on to newton_max_iter would warn of the overflow and waste 24 more.
        prob = BurgersProblem(8, 4)
        with pytest.raises(StateSolveError, match="residual inf after 1 iterations") as err:
            prob.solve_state(1e100 * np.ones(prob.n))
        assert err.value.step_index == 1 and err.value.residual_norm == math.inf

    def test_singular_newton_step_reports_step(self):
        prob = SingularStep(5, 4)
        with pytest.raises(StateSolveError) as err:
            prob.solve_state(np.zeros(prob.n))
        assert "singular" in str(err.value)
        assert err.value.step_index == 1
        assert err.value.residual_norm > 0

    @pytest.mark.parametrize("method", ["solve_cy", "solve_cy_transpose"])
    def test_singular_step_factor_reports_step(self, method):
        prob = SingularStep(5, 4)
        with pytest.raises(StateSolveError) as err:
            lin = prob.linearize(np.zeros(prob.n_y), np.zeros(prob.n))
            getattr(prob, method)(lin, np.ones(prob.n_y))
        assert "singular" in str(err.value)
        assert err.value.step_index == 1


class TestKernels:
    @pytest.mark.parametrize("nx", [2, 5, 16])
    def test_mass_factor_reproduces_mass(self, nx):
        prob = BurgersProblem(nx, 3)
        lower, _, _ = prob._sqrtM
        np.testing.assert_array_equal(lower, 0.0)  # upper bidiagonal
        F = tridiag_dense(prob._sqrtM, prob.nx)
        M = tridiag_dense(prob.M, prob.nx)
        assert np.linalg.norm(F.T @ F - M) <= 1e-13 * np.linalg.norm(M)

    @pytest.mark.parametrize("name", ["Gu", "Gy", "cu"])
    @pytest.mark.parametrize(
        ("nx", "nt"),
        # at nt = 1, G_y and c_u hold one block each, at the edge offsets
        [(2, 3), (5, 3), (16, 3), (2, 1), (5, 1), (16, 1)],
        ids=["2", "5", "16", "2-nt1", "5-nt1", "16-nt1"],
    )
    def test_partial_jacobians_match_dense_blocks(self, nx, nt, name, rng):
        prob = BurgersProblem(nx, nt, nu=0.3, omega=0.07)
        lin = prob.linearize(rng.standard_normal(prob.n_y), rng.standard_normal(prob.n))
        op = getattr(lin, name)
        expected = dict(zip(("Gu", "Gy", "cu"), dense_partials(prob)))[name]
        rows, cols = op.shape
        assert op.shape == expected.shape
        np.testing.assert_array_equal(np.column_stack([op @ e for e in np.eye(cols)]), expected)
        np.testing.assert_array_equal(np.vstack([op.rmatvec(e) for e in np.eye(rows)]), expected)
        assert_adjoint_identity(op, rng)

    @pytest.mark.parametrize("nx", [2, 3, 16])
    def test_stencils_apply_the_step_operators(self, nx, rng):
        prob = BurgersProblem(nx, 4, nu=0.3)
        M, B, C = (tridiag_dense(op, prob.nx) for op in (prob.M, prob.B, prob.C))
        x = rng.standard_normal(nx)
        for kernel, A in zip(prob._stencils, (M / prob.dt, M / prob.dt + prob.nu * C, 0.5 * B)):
            np.testing.assert_allclose(np.convolve(x, kernel)[1:-1], A @ x, rtol=1e-14, atol=1e-14)

    def test_linearized_solves_at_two_nodes(self, rng):
        # 2 x 2 step Jacobians go through a padded factor
        prob = BurgersProblem(2, 3, nu=0.05)
        y = rng.standard_normal(prob.n_y)
        rhs = rng.standard_normal(prob.n_y)
        cy = dense_cy(prob, y)
        lin = prob.linearize(y, None)
        assert_close(prob.solve_cy(lin, rhs), np.linalg.solve(cy, rhs))
        assert_close(prob.solve_cy_transpose(lin, rhs), np.linalg.solve(cy.T, rhs))

    def test_linearized_solves_match_dense(self, rng):
        prob = BurgersProblem(7, 5, nu=0.05)
        y = 0.5 * rng.standard_normal(prob.n_y)
        u = np.zeros(prob.n)
        rhs = rng.standard_normal(prob.n_y)
        cy = dense_cy(prob, y)
        lin = prob.linearize(y, u)
        for got, expected in (
            (prob.solve_cy(lin, rhs), np.linalg.solve(cy, rhs)),
            (prob.solve_cy_transpose(lin, rhs), np.linalg.solve(cy.T, rhs)),
        ):
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestMarchingIsBitIdentical:
    """The Newton loop forms each step's right-hand side once and applies its
    operators as 3-point stencils: its states agree with a loop built on
    ``step_residual`` to 1e-12, and the step Jacobians it factors are the
    full expression bit for bit. (The class keeps its name from when the
    states matched bit for bit too.)"""

    @pytest.mark.parametrize("control", ["zero", "random", "large"])
    @pytest.mark.parametrize("nt", [7, 10, 32])
    @pytest.mark.parametrize("nx", [2, 5, 16, 128])
    def test_states_and_jacobians_match_reference(self, nx, nt, control):
        prob = BurgersProblem(nx, nt, nu=0.01)
        rng = np.random.default_rng(nx * 1000 + nt)
        scale = {"zero": 0.0, "random": 1.0, "large": 2.0}[control]
        u = scale * rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        assert_close(y, reference_solve_state(prob, u))
        assert np.linalg.norm(constraint_residual(prob, y, u)) <= feasibility_tol(prob)
        for block in y.reshape(nt, nx):
            for got, expected in zip(prob.step_jacobian(block), reference_step_jacobian(prob, block)):
                assert_same_bits(got, expected)

    def test_jacobian_diagonal_is_read_only(self):
        prob = BurgersProblem(5, 4)
        _, diag, _ = prob.step_jacobian(np.ones(5))
        with pytest.raises(ValueError):
            diag[0] = 0.0
        assert "_stencils" not in vars(BurgersProblem(5, 4))  # built lazily

    def test_zero_pivot_reports_later_step(self):
        # A zero start stays exactly zero, with no Newton iteration, until the
        # first nonzero control block, where the singular Jacobian is met.
        prob = SingularStep(5, 6, y_init=np.zeros(5))
        u = np.zeros((prob.nt + 1, prob.nx))
        u[3] = 1.0
        with pytest.raises(StateSolveError) as err:
            prob.solve_state(u.ravel())
        with pytest.raises(StateSolveError) as ref:
            reference_solve_state(prob, u.ravel(), jacobian=SingularStep.step_jacobian)
        assert "singular" in str(err.value)
        assert err.value.step_index == ref.value.step_index == 3
        assert ref.value.residual_norm > 0
        assert err.value.residual_norm == pytest.approx(ref.value.residual_norm, rel=1e-12)


class TestResidual:
    def test_zero_when_states_match_target_and_no_control(self):
        prob = BurgersProblem(4, 3)
        y = np.tile(prob.z, prob.nt)
        r = prob.residual(y, np.zeros(prob.n))
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_tracking_objective_identity(self, rng):
        # nx = 2 is the padded-LAPACK size, nt = 1 a single time step
        for nx, nt in ((5, 4), (2, 1), (2, 3)):
            prob = BurgersProblem(nx, nt, nu=0.1, omega=0.07)
            M = tridiag_dense(prob.M, prob.nx)
            for _ in range(10):
                y = rng.standard_normal(prob.n_y)
                u = rng.standard_normal(prob.n)
                r = prob.residual(y, u)
                yb = np.vstack([prob.y0, prob.state_blocks(y)])
                ub = u.reshape(prob.nt + 1, prob.nx)
                direct = prob.dt * sum(
                    0.5 * (yb[i] - prob.z) @ (M @ (yb[i] - prob.z))
                    + 0.5 * prob.omega * ub[i] @ (M @ ub[i])
                    for i in range(prob.nt + 1)
                )
                assert 0.5 * float(r @ r) == pytest.approx(direct, rel=1e-12)

    def test_uncontrolled_drift_regression(self):
        # The state drifts away from the step profile under the dynamics;
        # frozen value from this configuration.
        prob = BurgersProblem(8, 8, nu=0.1)
        u = np.zeros(prob.n)
        y = prob.solve_state(u)
        value = float(np.linalg.norm(prob.residual(y, u)))
        assert value > 0.1
        assert value == pytest.approx(0.458083370057509, rel=1e-10)


class TestAdjointStructure:
    def test_dense_jacobian_matches_block_assembly(self, rng):
        prob = BurgersProblem(3, 3, nu=0.15)
        u = 0.2 * rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        Gu, Gy, cu = dense_partials(prob)
        expected = Gu - Gy @ np.linalg.solve(dense_cy(prob, y), cu)
        dense = dense_jacobian_oracle(prob, u)
        assert np.linalg.norm(dense - expected) <= 1e-9 * (1 + np.linalg.norm(expected))

    def test_directional_derivative(self, rng):
        prob = BurgersProblem(8, 8, nu=0.1)
        u = 0.3 * rng.standard_normal(prob.n)
        v = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        g = ReducedJacobian(prob, prob.linearize(y, u)).apply_transpose(prob.residual(y, u))

        def value(point):
            yy = prob.solve_state(point)
            rr = prob.residual(yy, point)
            return 0.5 * float(rr @ rr)

        t = 1e-5
        fd = (value(u + t * v) - value(u - t * v)) / (2 * t)
        assert abs(fd - g @ v) <= 1e-4 * (1 + abs(fd))

    def test_initial_control_block_gradient_is_pure_regularization(self, rng):
        # The time-zero control enters no constraint; its gradient block is
        # omega * dt * M * u_0 exactly.
        prob = BurgersProblem(5, 4, nu=0.1, omega=0.05)
        u = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        g = ReducedJacobian(prob, prob.linearize(y, u)).apply_transpose(prob.residual(y, u))
        u0_block = u[: prob.nx]
        expected = prob.omega * prob.dt * (tridiag_dense(prob.M, prob.nx) @ u0_block)
        np.testing.assert_allclose(g[: prob.nx], expected, rtol=1e-12, atol=1e-15)
