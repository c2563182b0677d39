"""Nonlinear transport benchmark: matrices, stepping, adjoint structure."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrs

from iclsq import burgers
from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem, _padded
from iclsq.core import DimensionMismatch, EvalCounters, LinearOperator, StateSolveError
from iclsq.solver import SolverConfig, solve

from conftest import (
    assert_adjoint_identity,
    captured,
    constraint_residual,
    dense_cy,
    dense_partials,
    dense_jacobian_oracle,
    feasibility_tol,
    partial_jacobian,
    reference_band_lu,
    reference_band_solve,
    reference_solve_state,
    reference_step_jacobian,
    reference_substitution,
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
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))  # signed zeros too


def assert_names_step_once(err, step):
    message = str(err.value)
    assert message.startswith(f"Newton failed at time step {step}:"), message
    assert message.count("time step") == 1, message


class SingularStep(BurgersProblem):
    """Step Jacobians with a zero diagonal, which is singular at odd nx."""

    def step_jacobian(self, y_next):
        lower, _, upper = super().step_jacobian(y_next)
        return lower, np.zeros(self.nx), upper


class ZeroPivotStep(BurgersProblem):
    """Step Jacobians of the blocks whose first entry is zero get lower[0] =
    upper[0] = diag[0] and lower[1] = 0, so elimination meets an exact zero
    pivot in row 2 of those steps alone."""

    def step_jacobian(self, y_next):
        lower, diag, upper = super().step_jacobian(y_next)
        hit = np.asarray(y_next)[..., :1] == 0
        lower[..., :2] = np.where(hit, [diag[0], 0.0], lower[..., :2])
        upper[..., :1] = np.where(hit, diag[0], upper[..., :1])
        return lower, diag, upper


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
    def test_rejects_bad_setting(self, setting):
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

    def test_operators_build_without_dense_matrices(self):
        # A dense G at 256 x 64 would hold 33,280 x 33,024 entries, 8.8 GB;
        # the CSR build of G and c_u with their transposes peaks near 4 MB.
        prob = BurgersProblem(256, 64)
        tracemalloc.start()
        try:
            prob._operators
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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
        assert_names_step_once(err, 1)

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
        assert_names_step_once(err, 1)

    @pytest.mark.parametrize("method", ["solve_cy", "solve_cy_transpose"])
    @pytest.mark.parametrize("nx", [5, 33], ids=["band", "per-step"])
    def test_singular_step_factor_reports_step(self, nx, method):
        # odd nx on each side of the band threshold (nx <= 32)
        prob = SingularStep(nx, 4)
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
        op = partial_jacobian(lin, name, prob.n)
        expected = dict(zip(("Gu", "Gy", "cu"), dense_partials(prob)))[name]
        rows, cols = op.shape
        assert op.shape == expected.shape
        np.testing.assert_array_equal(np.column_stack([op @ e for e in np.eye(cols)]), expected)
        np.testing.assert_array_equal(np.vstack([op.rmatvec(e) for e in np.eye(rows)]), expected)
        assert_adjoint_identity(op, rng)

    @pytest.mark.parametrize(
        ("nx", "nt"), [(2, 1), (2, 3), (5, 1), (16, 5)], ids=["2-nt1", "2", "5-nt1", "16"]
    )
    def test_g_rounds_as_its_scaled_products(self, nx, nt, rng):
        # G's halves are sqrt(dt) F_b without its first block column on the
        # states and sqrt(omega dt) F_b on the controls, each scale applied
        # outside the matrix, and the residual is G on (u, y - z), bit for bit
        prob = BurgersProblem(nx, nt, nu=0.3, omega=0.07)
        S_u = sp.csr_matrix(np.kron(np.eye(nt + 1), tridiag_dense(prob._sqrtM, nx)))
        S_y = S_u[:, nx:]
        a, b, half = math.sqrt(prob.dt), math.sqrt(prob.omega * prob.dt), prob.n
        G = prob.linearize(np.zeros(prob.n_y), np.zeros(prob.n)).G
        u, y = rng.standard_normal(prob.n), rng.standard_normal(prob.n_y)
        w = rng.standard_normal(prob.m)
        np.testing.assert_array_equal(
            G @ np.concatenate([u, y]), np.concatenate([a * (S_y @ y), b * (S_u @ u)])
        )
        np.testing.assert_array_equal(G.rmatvec(w), np.concatenate(
            [b * (S_u.T.tocsr() @ w[half:]), a * (S_y.T.tocsr() @ w[:half])]))
        z = np.tile(prob.z, nt)
        np.testing.assert_array_equal(prob.residual(y, u), G @ np.concatenate([u, y - z]))

    @pytest.mark.parametrize("nx", [2, 3, 16])
    def test_stencils_apply_the_step_operators(self, nx, rng):
        prob = BurgersProblem(nx, 4, nu=0.3)
        M, B, C = (tridiag_dense(op, prob.nx) for op in (prob.M, prob.B, prob.C))
        x = rng.standard_normal(nx)
        for kernel, A in zip(prob._stencils, (M / prob.dt, M / prob.dt + prob.nu * C, 0.5 * B)):
            got = np.correlate(np.pad(x, 1), kernel, "same")[1:-1]
            np.testing.assert_allclose(got, A @ x, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("nx", [2, 3, 16, 33])
    def test_step_residuals_match_each_step(self, nx, rng):
        prob = BurgersProblem(nx, 5, nu=0.3)
        y_prev, y, u = (rng.standard_normal(shape) for shape in (nx, (4, nx), (4, nx)))
        forcing = u @ tridiag_dense(prob.M, nx).T
        res, norm = prob._step_residuals(_padded(y_prev, y)[0], forcing)
        assert res.shape == (4, nx)
        for i, prev in enumerate([y_prev, *y[:-1]]):
            expected = step_residual(prob, prev, y[i], u[i])
            assert np.abs(res[i] - expected).max() <= 1e-14 * np.abs(expected).max()
        assert norm == pytest.approx(np.linalg.norm(res, axis=1).max(), rel=1e-14)

    @pytest.mark.parametrize("nx", [2, 3, 16, 33])
    def test_a_step_residual_rounds_alike_whatever_k(self, nx, rng):
        prob = BurgersProblem(nx, 7, nu=0.05)
        y_prev, y, forcing = (rng.standard_normal(shape) for shape in (nx, (7, nx), (7, nx)))
        res, norm = prob._step_residuals(_padded(y_prev, y)[0], forcing)
        norms = []
        for i, prev in enumerate([y_prev, *y[:-1]]):
            row, row_norm = prob._step_residuals(_padded(prev, y[i : i + 1])[0], forcing[i : i + 1])
            assert_same_bits(row[0], res[i])
            norms.append(row_norm)
        assert max(norms) == norm

    def test_linearized_solves_at_two_nodes(self, rng):
        # at nx = 2 the band row of the steps' superdiagonal also holds -M/dt
        prob = BurgersProblem(2, 3, nu=0.05)
        y = rng.standard_normal(prob.n_y)
        rhs = rng.standard_normal(prob.n_y)
        cy = dense_cy(prob, y)
        lin = prob.linearize(y, None)
        assert_close(prob.solve_cy(lin, rhs), np.linalg.solve(cy, rhs))
        assert_close(prob.solve_cy_transpose(lin, rhs), np.linalg.solve(cy.T, rhs))

    # one band LU up to nx = 32, per-step tridiagonal factors above
    @pytest.mark.parametrize("nx", [2, 7, 32, 33])
    def test_linearized_solves_match_dense(self, nx, rng):
        prob = BurgersProblem(nx, 5, nu=0.05)
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

    @pytest.mark.parametrize("nx", [2, 16, 128])
    def test_stacked_step_jacobian_matches_each_block(self, nx):
        prob = BurgersProblem(nx, 3, nu=0.01)
        stack = np.random.default_rng(nx).standard_normal((5, nx))
        lower, diag, upper = prob.step_jacobian(stack)
        assert lower.shape == upper.shape == (5, nx - 1)
        for i, block in enumerate(stack):
            got = prob.step_jacobian(block)
            assert_same_bits(lower[i], got[0])
            assert_same_bits(upper[i], got[2])
            assert diag is got[1] and not diag.flags.writeable

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 5), ()])
    def test_step_jacobian_refuses_other_shapes(self, shape):
        with pytest.raises(DimensionMismatch):
            BurgersProblem(5, 3).step_jacobian(np.zeros(shape))

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
        assert_names_step_once(err, 3)


def band_draws(nx, nt):
    """(problem, state blocks) pairs at nu = 0.1 and 1e-4 whose band LU of
    c_y^T swaps no row (the states of size 0 and 0.5) or swaps rows (size 30)."""
    rng = np.random.default_rng(nx * 100 + nt)
    for nu in (0.1, 1e-4):
        prob = BurgersProblem(nx, nt, nu=nu)
        for scale in (0.0, 0.5, 30.0):
            yield prob, scale * rng.uniform(-1.0, 1.0, (nt, nx))


def right_hand_sides(rng, n):
    """A random right-hand side, one with signed zeros among its entries, and -0 everywhere."""
    zeros = rng.standard_normal(n)
    zeros[::5], zeros[1::7] = -0.0, 0.0
    return rng.standard_normal(n), zeros, np.full(n, -0.0)


def assert_fresh(solution, rhs, kept, *held):
    """The solve left its right-hand side as it was and wrote new memory."""
    assert_same_bits(rhs, kept)
    assert not any(np.shares_memory(solution, other) for other in (rhs, *held))


class TestFactorSolvesBitForBit:
    """Up to 32 nodes, ``_factor`` fills a copy of a prebuilt band and, when
    its LU swapped no row, solves in both directions by two ``dtbsv`` calls
    on its factors; above, the solves write each step's right-hand side into
    the result and solve it there. Each gives the bits of its reference: the
    LAPACK calls it replaced, or for a c_y solve without a row swap, the two
    transposed ``dtbsv`` calls on the reference LU."""

    @pytest.mark.parametrize("nt", [1, 2, 16])
    @pytest.mark.parametrize("nx", [2, 3, 16, 32])
    def test_band_lu_is_the_reference_band_lu(self, nx, nt):
        swapped = set()
        for prob, yb in band_draws(nx, nt):
            factors = captured(prob._factor(yb))
            lu, ipiv, info = reference_band_lu(prob, yb)
            assert info == 0
            assert_same_bits(factors["lu"], lu)
            assert factors["ipiv"].dtype == ipiv.dtype
            np.testing.assert_array_equal(factors["ipiv"], ipiv)
            swapped.add(bool(np.any(ipiv != np.arange(prob.n_y))))
        assert swapped == {False, True}

    @pytest.mark.parametrize("nt", [1, 2, 16])
    @pytest.mark.parametrize("nx", [2, 3, 16, 32])
    def test_band_solves_are_the_reference_band_solves(self, nx, nt):
        rng = np.random.default_rng(nx * 10 + nt)
        for prob, yb in band_draws(nx, nt):
            solve = prob._factor(yb)
            lu, ipiv, _ = reference_band_lu(prob, yb)
            for rhs in right_hand_sides(rng, prob.n_y):
                kept = rhs.copy()
                for transpose in (True, False):
                    got = solve(rhs, transpose)
                    assert_same_bits(got, reference_band_solve(lu, ipiv, rhs, transpose))
                    # and LAPACK's band solve, to rounding
                    lapack = dgbtrs(lu, 1, nx + 1, rhs, ipiv, int(not transpose))[0]
                    assert_close(got, lapack, rtol=1e-13)
                    assert_fresh(got, rhs, kept, solve(rhs, transpose), captured(solve)["lu"])

    def test_band_solves_without_a_row_swap_call_no_dgbtrs(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return dgbtrs(*args)

        monkeypatch.setattr(burgers, "dgbtrs", counted)
        rng = np.random.default_rng(7)
        prob = BurgersProblem(16, 16)
        yb = 0.5 * rng.uniform(-1.0, 1.0, (16, 16))
        rhs = rng.standard_normal(prob.n_y)
        solve = prob._factor(yb)
        solve(rhs, False)
        solve(rhs, True)
        prob._correct(yb, rhs.reshape(16, 16))
        assert calls == []
        # every factor of this problem swaps a row, and keeps dgbtrs both ways
        prob = BurgersProblem(12, 6, nu=1e-4)
        yb = prob.state_blocks(prob.solve_state(np.zeros(prob.n)))
        rhs = rng.standard_normal(prob.n_y)
        solve = prob._factor(yb)
        solve(rhs, False)
        solve(rhs, True)
        prob._correct(yb, rhs.reshape(6, 12))
        # dgbtrs's last argument is its trans flag, 1 for a c_y solve
        assert [args[-1] for args in calls] == [1, 0, 1]

    def test_band_template_is_built_on_first_use_and_read_only(self):
        prob = BurgersProblem(5, 4)
        assert "_band" not in vars(prob)
        prob.linearize(np.zeros(prob.n_y), np.zeros(prob.n)).factors
        template, _ = prob._band
        assert template.flags.f_contiguous and not template.flags.writeable

    @pytest.mark.parametrize("nt", [1, 3])
    @pytest.mark.parametrize("nx", [33, 40])
    def test_wide_solves_are_the_reference_substitution(self, nx, nt):
        rng = np.random.default_rng(nx * 10 + nt)
        for _ in range(5):
            prob = BurgersProblem(nx, nt, nu=rng.uniform(1e-3, 1.0))
            # the strided view of the states that the Newton loop corrects
            yb = _padded(prob.y0, rng.uniform(-2.0, 2.0, (nt, nx)))[1]
            solve = prob._factor(yb)
            for rhs in right_hand_sides(rng, prob.n_y):
                kept = rhs.copy()
                for transpose in (False, True):
                    got = solve(rhs, transpose)
                    assert_same_bits(got, reference_substitution(prob, yb, rhs, transpose))
                    assert_fresh(got, rhs, kept, solve(rhs, transpose))
                res = rhs.reshape(nt, nx)
                got = prob._correct(yb, res)
                assert_same_bits(got.ravel(), reference_substitution(prob, yb, rhs, fused=True))
                assert_fresh(got, res, kept.reshape(nt, nx), prob._correct(yb, res))


def guessed_trials(prob, configs):
    """(control, guess) of every trial state solve of ``solve`` runs from
    zero, one run per config."""
    trials, solve_state = [], prob.solve_state

    def record(u, start=None, counters=None):
        if start is not None:
            guess = start()
            trials.append((u.copy(), guess.copy()))
            start = lambda: guess  # noqa: E731
        return solve_state(u, start=start, counters=counters)

    prob.solve_state = record
    try:
        for config in configs:
            solve(prob, np.zeros(prob.n), config)
    finally:
        del prob.solve_state
    return trials


class TestTrajectoryNewton:
    """From a guess, Newton runs on all time steps at once, each correction
    through the band LU of c_y^T up to 32 nodes and one ``dgtsv`` per time
    step above, and marches without the guess should that fail."""

    @pytest.mark.parametrize("nt", [1, 3])
    @pytest.mark.parametrize("nx", [33, 40])
    def test_wide_correction_is_the_factor_solve_bit_for_bit(self, nx, nt):
        # states and right-hand sides drawn as the property tests draw them
        rng = np.random.default_rng(nx * 10 + nt)
        for _ in range(10):
            prob = BurgersProblem(nx, nt, nu=rng.uniform(1e-3, 1.0))
            # the strided view of the states that the Newton loop corrects
            yb = _padded(prob.y0, rng.uniform(-2.0, 2.0, (nt, nx)))[1]
            res = rng.uniform(-2.0, 2.0, (nt, nx))
            expected = prob._factor(yb)(res.ravel(), False).reshape(nt, nx)
            assert_same_bits(prob._correct(yb, res), expected)

    @pytest.mark.parametrize("nt", [1, 3])
    @pytest.mark.parametrize("nx", [33, 40])
    def test_wide_correction_names_the_zero_pivot_step(self, nx, nt):
        rng = np.random.default_rng(nx * 10 + nt)
        prob = ZeroPivotStep(nx, nt, nu=rng.uniform(1e-3, 1.0))
        for k in range(1, nt + 1):
            # steps k onwards meet a zero pivot; step k is named
            yb = rng.uniform(-2.0, 2.0, (nt, nx))
            yb[k - 1 :, 0] = 0.0
            res = rng.uniform(-2.0, 2.0, (nt, nx))
            lin = prob.linearize(yb.ravel(), np.zeros(prob.n))
            for correct in (
                lambda: prob._correct(yb, res),
                lambda: prob._factor(yb)(res.ravel(), False),
                # the public transposed path factors at its first solve
                lambda: prob.solve_cy_transpose(lin, res.ravel()),
            ):
                with pytest.raises(StateSolveError, match="zero pivot 2") as err:
                    correct()
                assert err.value.step_index == k

    @staticmethod
    def assert_trials_reach_the_cold_states(prob, configs, min_trials):
        trials = guessed_trials(prob, configs)
        assert len(trials) >= min_trials
        for u, guess in trials:
            counters = EvalCounters()
            y = prob.solve_state(u, start=lambda: guess, counters=counters)
            # no fallback: the trajectory converged from the guess
            assert counters.newton_iters == 0 < counters.trajectory_newton_iters
            assert np.max(np.abs(y - prob.solve_state(u))) <= 1e-10
            assert np.linalg.norm(constraint_residual(prob, y, u)) <= feasibility_tol(prob)

    def test_sweep_trials_reach_the_marched_states(self):
        # every trial of the burgers-sweep workload's four theta streams
        configs = [
            SolverConfig(theta=theta, eps_R=1e-2, eps_g=1e-6) for theta in (0.0, 1e-4, 1e-2, 0.5)
        ]
        self.assert_trials_reach_the_cold_states(BurgersProblem(16, 16, nu=0.01), configs, 80)

    def test_wide_grid_trials_reach_the_marched_states(self):
        configs = [SolverConfig(theta=theta, eps_R=1e-2, eps_g=1e-6) for theta in (0.0, 1e-2)]
        self.assert_trials_reach_the_cold_states(BurgersProblem(40, 8, nu=0.01), configs, 40)

    @pytest.mark.parametrize(
        "prob,control,guess,iterations",
        [
            (BurgersProblem(8, 6, nu=0.01), 0.1, np.nan, 0),  # non-finite residual
            (BurgersProblem(8, 6, nu=0.01), 0.1, 1e200, 0),  # its squares overflow
            # the zero state marches with no iteration; the guess meets a zero pivot
            (SingularStep(5, 4, y_init=np.zeros(5)), 0.0, 1.0, 1),
            (BurgersProblem(33, 3, nu=0.01), 0.1, np.nan, 0),
            (BurgersProblem(33, 3, nu=0.01), 0.1, 1e200, 0),
            # the zero pivot of the per-step factors at odd nx
            (SingularStep(33, 4, y_init=np.zeros(33)), 0.0, 1.0, 1),
        ],
        ids=["nan", "huge", "singular", "nan-wide", "huge-wide", "singular-wide"],
    )
    def test_failed_guess_marches_as_without_one(self, prob, control, guess, iterations):
        u = control * np.sin(np.arange(prob.n))
        cold_counters, counters = EvalCounters(), EvalCounters()
        cold = prob.solve_state(u, counters=cold_counters)
        y = prob.solve_state(u, start=lambda: np.full(prob.n_y, guess), counters=counters)
        assert_same_bits(y, cold)
        assert counters.newton_iters == cold_counters.newton_iters
        assert counters.trajectory_newton_iters == iterations
        assert cold_counters.trajectory_newton_iters == 0

    def test_too_many_iterations_march_as_without_a_guess(self):
        # each step marches in at most 3 iterations, and the whole
        # trajectory takes more from a guess 2 off
        for nx in (8, 33):
            prob = BurgersProblem(nx, 6, nu=0.01, newton_max_iter=3, y_init=np.zeros(nx))
            u = 0.1 * np.sin(np.arange(prob.n))
            cold_counters, counters = EvalCounters(), EvalCounters()
            cold = prob.solve_state(u, counters=cold_counters)
            y = prob.solve_state(u, start=lambda: cold + 2.0, counters=counters)
            assert_same_bits(y, cold)
            assert counters.trajectory_newton_iters == 3
            assert counters.newton_iters == cold_counters.newton_iters

    @pytest.mark.parametrize("nx", [8, 33], ids=["band", "per-step"])
    def test_exact_guess_at_the_tolerance_takes_no_iteration(self, nx):
        # newton_tol is the largest step residual norm the march ends on, so
        # the exact guess sits on the tolerance: a step residual that rounded
        # up on the whole trajectory would take an iteration
        prob = BurgersProblem(nx, 4, nu=0.01)
        u = 0.1 * np.sin(np.arange(prob.n))
        cold = prob.solve_state(u)
        forcing = -(prob._operators[1] @ u).reshape(prob.nt, prob.nx)  # as solve_state forms it
        blocks = prob.state_blocks(cold)
        tol = max(
            prob._step_residuals(_padded(prev, blocks[i : i + 1])[0], forcing[i : i + 1])[1]
            for i, prev in enumerate([prob.y0, *blocks[:-1]])
        )
        prob = BurgersProblem(nx, 4, nu=0.01, newton_tol=tol)
        counters = EvalCounters()
        assert_same_bits(prob.solve_state(u), cold)
        assert_same_bits(prob.solve_state(u, start=lambda: cold, counters=counters), cold)
        assert counters.newton_iters == counters.trajectory_newton_iters == 0

    @pytest.mark.parametrize("nx", [8, 33], ids=["band", "per-step"])
    def test_exact_guess_takes_no_iteration(self, nx):
        prob = BurgersProblem(nx, 3, nu=0.01)
        u = 0.1 * np.sin(np.arange(prob.n))
        cold = prob.solve_state(u)
        counters = EvalCounters()
        y = prob.solve_state(u, start=lambda: cold, counters=counters)
        assert_same_bits(y, cold)
        assert counters.newton_iters == counters.trajectory_newton_iters == 0


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
