"""Core contract: vectors, operators, counters, objective."""

import numpy as np
import pytest

from iclsq.burgers import BurgersProblem
from iclsq.core import (
    DimensionMismatch,
    EvalCounters,
    ImplicitProblem,
    LinearOperator,
    Linearization,
    as_vector,
    norm,
)
from iclsq.elliptic import EllipticProblem
from iclsq.solver import SolveStatus, SolverConfig, solve

from conftest import (
    IdentityProblem,
    assert_adjoint_identity,
    constraint_residual,
    feasibility_tol,
    operator_from_matrix,
)


class Doubling(ImplicitProblem):
    """Exactly the members the README's contract paragraph lists:
    c(y, u) = y - 2u and R(y, u) = y - 1, so the reduced residual 2u - 1
    vanishes at u = 1/2."""

    n = n_y = m = 3

    def solve_state(self, u, start=None, counters=None):
        return 2.0 * np.asarray(u, dtype=float)

    def residual(self, y, u):
        return np.asarray(y, dtype=float) - 1.0

    def linearize(self, y, u):
        d = self.n
        return Linearization(
            LinearOperator((d, d), lambda v: np.zeros(d), lambda w: np.zeros(d)),
            LinearOperator((d, d), lambda v: v, lambda w: w),
            LinearOperator((d, d), lambda v: -2.0 * v, lambda w: -2.0 * w),
        )

    def solve_cy(self, lin, rhs):
        return np.asarray(rhs, dtype=float)

    def solve_cy_transpose(self, lin, rhs):
        return np.asarray(rhs, dtype=float)


class TestContract:
    def test_readme_members_make_a_problem_the_solver_runs(self):
        out = solve(Doubling(), np.zeros(3), SolverConfig(eps_R=1e-8))
        assert out.status is SolveStatus.CONVERGED_RESIDUAL
        np.testing.assert_allclose(out.u, 0.5, atol=1e-8)
        assert ImplicitProblem.__abstractmethods__ == {
            "solve_state", "residual", "linearize", "solve_cy", "solve_cy_transpose",
        }

    @pytest.mark.parametrize(
        "make",
        [lambda: BurgersProblem(2, 1), lambda: BurgersProblem(5, 4),
         lambda: EllipticProblem(2), lambda: EllipticProblem(7)],
        ids=["burgers-2x1", "burgers-5x4", "elliptic-2", "elliptic-7"],
    )
    def test_sizes_are_the_shapes_of_the_partial_jacobians(self, make):
        prob = make()
        lin = prob.linearize(np.zeros(prob.n_y), np.zeros(prob.n))
        assert lin.Gu.shape == (prob.m, prob.n)
        assert lin.Gy.shape == (prob.m, prob.n_y)
        assert lin.cu.shape == (prob.n_y, prob.n)


class TestInnerNorm:
    def test_three_four_five(self):
        assert norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_canonical_basis(self):
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            assert norm(e) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0, 3.0], 2)


class TestObjective:
    """The objective 0.5 ||R||^2 as the solver evaluates it at u0."""

    def test_zero_residual(self):
        out = solve(IdentityProblem(3), np.zeros(3), SolverConfig())
        assert out.residual_norm == 0.0
        assert out.status is SolveStatus.CONVERGED_RESIDUAL
        assert out.iterations == 0

    def test_three_four(self):
        out = solve(IdentityProblem(2), np.array([3.0, 4.0]), SolverConfig(max_iter=0))
        assert 0.5 * out.residual_norm**2 == pytest.approx(12.5)

    def test_elliptic_all_zero(self):
        prob = EllipticProblem(4, z_choice="zero")
        u = np.zeros(prob.n)
        y = prob.solve_state(u)
        assert norm(prob.residual(y, u)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(IdentityProblem(3), np.zeros(4), SolverConfig())


class TestLinearOperator:
    def test_matmul_and_transpose(self, rng):
        A = rng.standard_normal((4, 3))
        op = operator_from_matrix(A)
        v = rng.standard_normal(3)
        np.testing.assert_allclose(op @ v, A @ v)
        w = rng.standard_normal(4)
        np.testing.assert_allclose(op.rmatvec(w), A.T @ w)

    def test_input_dimension_checked(self, rng):
        op = operator_from_matrix(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionMismatch):
            op.matvec(np.zeros(4))
        with pytest.raises(DimensionMismatch):
            op.rmatvec(np.zeros(3))

    def test_adjoint_probes_random_matrix(self, rng):
        assert_adjoint_identity(operator_from_matrix(rng.standard_normal((6, 4))), rng)


class TestProblemOperators:
    """Every operator a problem exposes must pass the adjoint probe."""

    def test_elliptic_operator_adjoints(self, rng):
        prob = EllipticProblem(4, z_choice="one")
        u = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        lin = prob.linearize(y, u)
        for op in (lin.Gu, lin.Gy, lin.cu):
            assert_adjoint_identity(op, rng)

    def test_burgers_operator_adjoints(self, rng):
        from iclsq.burgers import BurgersProblem

        prob = BurgersProblem(4, 4, nu=0.1)
        u = 0.2 * rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        lin = prob.linearize(y, u)
        for op in (lin.Gu, lin.Gy, lin.cu):
            assert_adjoint_identity(op, rng)

    def test_elliptic_feasibility(self, rng):
        prob = EllipticProblem(5)
        u = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        c = constraint_residual(prob, y, u)
        assert np.linalg.norm(c) <= feasibility_tol(prob) * (1.0 + np.linalg.norm(u))


class TestCounters:
    def test_snapshot_is_plain_dict(self):
        c = EvalCounters(forward_solves=2)
        snap = c.snapshot()
        assert snap == {
            "forward_solves": 2,
            "adjoint_solves": 0,
            "linearized_solves": 0,
            "jacobian_applies": 0,
            "cg_iterations": 0,
            "norm_estimates": 0,
            "norm_probe_applies": 0,
            "curvature_raises": 0,
            "failed_trial_solves": 0,
            "newton_iters": 0,
            "predictor_solves": 0,
        }
        c.forward_solves += 1
        assert snap["forward_solves"] == 2

    def test_two_identical_runs_count_identically(self):
        prob = EllipticProblem(5, z_choice="one")
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2)
        u0 = np.ones(prob.n)
        first = solve(prob, u0, cfg)
        second = solve(prob, u0, cfg)
        assert first.counters.snapshot() == second.counters.snapshot()
        assert first.iterations == second.iterations
