"""Reduced Jacobian: forward/transpose actions, gradient, counting."""

import gc
import weakref

import numpy as np
import pytest

from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import DimensionMismatch, EvalCounters, ImplicitProblem, LinearOperator
from iclsq.core import Linearization
from iclsq.elliptic import EllipticProblem
from iclsq.solver import SolverConfig, solve
from iclsq.subproblem import estimate_operator_norm, exact_step

from conftest import (
    CountingOperator,
    IdentityProblem,
    captured,
    dense_jacobian_oracle,
    fd_gradient_oracle,
    interior_stiffness,
    operator_from_matrix,
)


def make_jacobian(problem, u, counters=None):
    y = problem.solve_state(u)
    return ReducedJacobian(problem, problem.linearize(y, u), counters), y


class TestIdentityProblem:
    def test_apply_is_identity(self, rng):
        prob = IdentityProblem(4)
        jac, _ = make_jacobian(prob, rng.standard_normal(4))
        v = rng.standard_normal(4)
        np.testing.assert_allclose(jac.apply(v), v, atol=1e-15)

    def test_apply_transpose_is_identity(self, rng):
        prob = IdentityProblem(4)
        jac, _ = make_jacobian(prob, rng.standard_normal(4))
        w = rng.standard_normal(4)
        np.testing.assert_allclose(jac.apply_transpose(w), w, atol=1e-15)

    def test_zero_direction(self):
        jac, _ = make_jacobian(IdentityProblem(3), np.ones(3))
        np.testing.assert_array_equal(jac.apply(np.zeros(3)), np.zeros(3))


class TestElliptic:
    def test_dense_matches_analytic_formula(self):
        # 3x3 interior nodes
        prob = EllipticProblem(4, z_choice="one")
        u = np.ones(prob.n)
        dense = dense_jacobian_oracle(prob, u)
        K = interior_stiffness(prob.N).toarray()
        M = prob.M.toarray()
        F = captured(prob._linearization.G.apply)["F"].toarray()
        top = F @ np.linalg.solve(K, M)
        bottom = np.sqrt(prob.lam) * F
        np.testing.assert_allclose(dense, np.vstack([top, bottom]), atol=1e-10)

    def test_independent_of_base_control(self, rng):
        # Linear constraint: the reduced Jacobian is constant in u.
        prob = EllipticProblem(4)
        jac_a, _ = make_jacobian(prob, np.zeros(prob.n))
        jac_b, _ = make_jacobian(prob, rng.standard_normal(prob.n))
        v = rng.standard_normal(prob.n)
        np.testing.assert_allclose(jac_a.apply(v), jac_b.apply(v), atol=1e-14)

    def test_adjoint_probes(self, rng):
        prob = EllipticProblem(4, z_choice="one")
        jac, _ = make_jacobian(prob, rng.standard_normal(prob.n))
        for _ in range(20):
            v = rng.standard_normal(prob.n)
            w = rng.standard_normal(prob.m)
            lhs = float(jac.apply(v) @ w)
            rhs = float(v @ jac.apply_transpose(w))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


class TestBurgers:
    def test_transpose_matches_dense(self, rng):
        prob = BurgersProblem(4, 4, nu=0.1)
        u = 0.3 * rng.standard_normal(prob.n)
        dense = dense_jacobian_oracle(prob, u)
        jac, _ = make_jacobian(prob, u)
        for _ in range(5):
            w = rng.standard_normal(prob.m)
            np.testing.assert_allclose(jac.apply_transpose(w), dense.T @ w, atol=1e-9)

    @pytest.mark.parametrize("size", [4, 8])
    def test_adjoint_probes(self, size, rng):
        prob = BurgersProblem(size, size, nu=0.1)
        jac, _ = make_jacobian(prob, 0.2 * rng.standard_normal(prob.n))
        for _ in range(20):
            v = rng.standard_normal(prob.n)
            w = rng.standard_normal(prob.m)
            lhs = float(jac.apply(v) @ w)
            rhs = float(v @ jac.apply_transpose(w))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


class MixedRowsProblem(ImplicitProblem):
    """c(y, u) = K y - C u and R(y, u) = A u + B y - z with dense random K,
    C, A and B, K well conditioned: every residual row mixes u and y, so
    neither block of G = [A B] has rows of its own."""

    def __init__(self, rng, n=4, n_y=5, m=7):
        self.n, self.n_y, self.m = n, n_y, m
        self.K = 3.0 * np.eye(n_y) + 0.3 * rng.standard_normal((n_y, n_y))
        self.C, self.A, self.B = (rng.standard_normal(s) for s in ((n_y, n), (m, n), (m, n_y)))
        self.z = rng.standard_normal(m)

    def solve_state(self, u, start=None, counters=None):
        return np.linalg.solve(self.K, self.C @ u)

    def residual(self, y, u):
        return self.A @ u + self.B @ y - self.z

    def linearize(self, y, u):
        return Linearization(operator_from_matrix(np.hstack([self.A, self.B])),
                             operator_from_matrix(-self.C))

    def solve_cy(self, lin, rhs):
        return np.linalg.solve(self.K, rhs)

    def solve_cy_transpose(self, lin, rhs):
        return np.linalg.solve(self.K.T, rhs)


class TestMixedRows:
    """Both shipped problems keep R_u and R_y on disjoint rows; this one
    does not, so an adjoint that split G's rows into halves would fail."""

    def test_products_match_dense_and_finite_differences(self, rng):
        prob = MixedRowsProblem(rng)
        u, v = rng.standard_normal((2, prob.n))
        w = rng.standard_normal(prob.m)
        jac, _ = make_jacobian(prob, u)
        dense = prob.A + prob.B @ np.linalg.solve(prob.K, prob.C)  # R_u - R_y c_y^-1 c_u
        np.testing.assert_allclose(jac @ v, dense @ v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jac.rmatvec(w), dense.T @ w, rtol=1e-12, atol=1e-12)

        def reduced(point):
            return prob.residual(prob.solve_state(point), point)

        fd = (reduced(u + 1e-6 * v) - reduced(u - 1e-6 * v)) / 2e-6
        np.testing.assert_allclose(jac @ v, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_matches_dense_and_finite_differences(self, rng):
        prob = MixedRowsProblem(rng)
        u = rng.standard_normal(prob.n)
        jac, y = make_jacobian(prob, u)
        R = prob.residual(y, u)
        g = jac.apply_transpose(R)
        dense = prob.A + prob.B @ np.linalg.solve(prob.K, prob.C)
        np.testing.assert_allclose(g, dense.T @ R, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g, fd_gradient_oracle(prob, u), rtol=1e-6, atol=1e-8)


PROBLEMS = [lambda: BurgersProblem(4, 3), lambda: EllipticProblem(4)]


class TestContractBoundary:
    @pytest.mark.parametrize("make", PROBLEMS, ids=["burgers", "elliptic"])
    @pytest.mark.parametrize(
        ("du", "dy"), [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    )
    def test_residual_refuses_wrong_lengths(self, make, du, dy):
        # (1, -1) and (-1, 1) concatenate to G's width: only the split is wrong
        prob = make()
        with pytest.raises(DimensionMismatch):
            prob.residual(np.zeros(prob.n_y + dy), np.zeros(prob.n + du))

    @pytest.mark.parametrize("make", PROBLEMS, ids=["burgers", "elliptic"])
    @pytest.mark.parametrize("shape", [(0, 1), (0, -1), (1, 0), (-1, 0)])
    def test_jacobian_refuses_g_of_wrong_shape(self, make, shape, rng):
        # shapes are checked once, when the Jacobian is built
        prob = make()
        u = rng.standard_normal(prob.n)
        lin = prob.linearize(prob.solve_state(u), u)
        rows, cols = prob.m + shape[0], prob.n + prob.n_y + shape[1]
        G = operator_from_matrix(rng.standard_normal((rows, cols)))
        with pytest.raises(DimensionMismatch):
            ReducedJacobian(prob, Linearization(G, lin.cu, lambda: lin.factors))

    @pytest.mark.parametrize("make", PROBLEMS, ids=["burgers", "elliptic"])
    @pytest.mark.parametrize("shape", [(0, 1), (0, -1), (1, 0), (-1, 0)])
    def test_jacobian_refuses_cu_of_wrong_shape(self, make, shape, rng):
        prob = make()
        u = rng.standard_normal(prob.n)
        lin = prob.linearize(prob.solve_state(u), u)
        cu = operator_from_matrix(rng.standard_normal((prob.n_y + shape[0], prob.n + shape[1])))
        with pytest.raises(DimensionMismatch):
            ReducedJacobian(prob, Linearization(lin.G, cu, lambda: lin.factors))

    @pytest.mark.parametrize("make", PROBLEMS, ids=["burgers", "elliptic"])
    @pytest.mark.parametrize("extra", [1, -1])
    def test_jacobian_refuses_products_of_wrong_length(self, make, extra, rng):
        # G declares the right shape but returns vectors of the wrong length:
        # the products inside are not checked, the public boundary still is
        prob = make()
        u = rng.standard_normal(prob.n)
        lin = prob.linearize(prob.solve_state(u), u)
        G = LinearOperator(
            lin.G.shape,
            lambda x: np.zeros(prob.m + extra),
            lambda w: np.zeros(prob.n + prob.n_y + extra),
        )
        jac = ReducedJacobian(prob, Linearization(G, lin.cu, lambda: lin.factors))
        with pytest.raises(DimensionMismatch):
            jac @ rng.standard_normal(prob.n)
        with pytest.raises(DimensionMismatch):
            jac.rmatvec(rng.standard_normal(prob.m))


class TestLinearity:
    @pytest.mark.parametrize("builder", [
        lambda: EllipticProblem(4, z_choice="one"),
        lambda: BurgersProblem(4, 4, nu=0.1),
        lambda: BurgersProblem(8, 8, nu=0.1),
    ])
    def test_apply_is_linear(self, builder, rng):
        prob = builder()
        jac, _ = make_jacobian(prob, 0.2 * rng.standard_normal(prob.n))
        for _ in range(5):
            a, b = rng.standard_normal(2)
            v1 = rng.standard_normal(prob.n)
            v2 = rng.standard_normal(prob.n)
            combined = jac.apply(a * v1 + b * v2)
            separate = a * jac.apply(v1) + b * jac.apply(v2)
            assert np.linalg.norm(combined - separate) <= 1e-12 * (
                1.0 + np.linalg.norm(separate)
            )


class TestGradient:
    def test_zero_residual_gives_zero_gradient(self):
        prob = IdentityProblem(3)
        jac, _ = make_jacobian(prob, np.ones(3))
        np.testing.assert_array_equal(jac.apply_transpose(np.zeros(3)), np.zeros(3))

    def test_elliptic_matches_finite_differences(self):
        prob = EllipticProblem(5, z_choice="one")
        u = np.zeros(prob.n)
        jac, y = make_jacobian(prob, u)
        g = jac.apply_transpose(prob.residual(y, u))
        g_fd = fd_gradient_oracle(prob, u, step=1e-6)
        rel = np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g_fd))
        assert rel <= 1e-5

    def test_burgers_matches_finite_differences(self, rng):
        prob = BurgersProblem(8, 8, nu=0.1)
        u = 0.5 * rng.standard_normal(prob.n)
        jac, y = make_jacobian(prob, u)
        g = jac.apply_transpose(prob.residual(y, u))
        g_fd = fd_gradient_oracle(prob, u, step=1e-6)
        rel = np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g_fd))
        assert rel <= 1e-4


class TestCounting:
    def test_apply_counts_one_linearized_solve(self, rng):
        prob = EllipticProblem(4)
        counters = EvalCounters()
        jac, _ = make_jacobian(prob, np.ones(prob.n), counters)
        assert counters.linearized_solves == 0  # construction solves nothing
        jac.apply(rng.standard_normal(prob.n))
        assert counters.linearized_solves == 1
        assert counters.adjoint_solves == 0
        assert counters.jacobian_applies == 1

    def test_transpose_counts_one_adjoint_solve(self, rng):
        prob = BurgersProblem(4, 4)
        counters = EvalCounters()
        jac, _ = make_jacobian(prob, np.zeros(prob.n), counters)
        jac.apply_transpose(rng.standard_normal(prob.m))
        assert counters.adjoint_solves == 1
        assert counters.linearized_solves == 0
        assert counters.jacobian_applies == 1

    def test_jacobian_without_counters_tallies_nothing(self, rng):
        prob = EllipticProblem(4)
        counters = EvalCounters()
        jac, y = make_jacobian(prob, np.ones(prob.n), counters)
        quiet = ReducedJacobian(prob, prob.linearize(y, np.ones(prob.n)))
        v = rng.standard_normal(prob.n)
        np.testing.assert_array_equal(quiet.apply(v), jac.apply(v))
        assert counters.jacobian_applies == 1
        # the quiet Jacobian counts into counters of its own
        assert quiet.counters is not counters
        assert quiet.counters.snapshot() == EvalCounters(linearized_solves=1).snapshot()


class TestOperator:
    def test_discarded_jacobian_is_freed_without_the_collector(self):
        elliptic = EllipticProblem(4)
        enabled = gc.isenabled()
        gc.disable()
        try:
            jac, _ = make_jacobian(elliptic, np.ones(elliptic.n), EvalCounters())
            ref = weakref.ref(jac)
            del jac
            assert ref() is None  # freed by reference counting: no cycle

            # A Burgers Jacobian owns its base point's c_y solve once applied,
            # and the solve owns the factors: the band LU of c_y^T
            # (nx <= 32), or the one tridiagonal LU of all steps.
            for burgers in (BurgersProblem(6, 5), BurgersProblem(33, 2)):
                jac, _ = make_jacobian(burgers, np.zeros(burgers.n), EvalCounters())
                jac.apply(np.ones(burgers.n))
                owned = jac.lin.factors
                assert jac.lin.factors is owned  # kept, not built at each read
                refs = [weakref.ref(x) for x in (jac, jac.lin, owned)]
                del jac, owned
                assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_norm_estimate_and_exact_step_take_the_jacobian(self):
        prob = EllipticProblem(5, z_choice="one")
        u = np.ones(prob.n)
        jac, y = make_jacobian(prob, u)
        assert isinstance(jac, LinearOperator)
        assert jac.shape == (prob.m, prob.n)
        dense = dense_jacobian_oracle(prob, u)
        dense_op = CountingOperator(dense)
        est = estimate_operator_norm(jac)
        est_dense = estimate_operator_norm(dense_op)
        assert jac.counters.jacobian_applies == dense_op.applies
        assert est == pytest.approx(est_dense, rel=1e-10)
        R = prob.residual(y, u)
        g = jac.apply_transpose(R)
        expected = np.linalg.solve(dense.T @ dense + 0.5 * np.eye(prob.n), -g)
        step = exact_step(g, gamma=0.5, h_norm=est, J=jac, R=R).step
        np.testing.assert_allclose(step, expected, rtol=1e-8, atol=1e-12)


class TestFactorOwnership:
    """Factors belong to a base point's linearization, not to the problem."""

    def test_two_base_points_factor_once_each(self, monkeypatch):
        prob = BurgersProblem(6, 5)
        jacs = [make_jacobian(prob, np.full(prob.n, scale))[0] for scale in (0.1, 0.2)]
        step_jacobian = prob.step_jacobian
        calls = []
        monkeypatch.setattr(prob, "step_jacobian", lambda y: calls.append(y) or step_jacobian(y))
        v = np.ones(prob.n)
        for _ in range(3):
            for jac in jacs:
                jac.apply(v)
        # one call per build, on the stack of all time steps' blocks
        assert [y.shape for y in calls] == [(prob.nt, prob.nx)] * 2

    def test_solve_factors_each_accepted_base_point_once(self, monkeypatch):
        prob = BurgersProblem(8, 8, nu=0.1)
        solve_state, step_jacobian, linearize = (
            prob.solve_state, prob.step_jacobian, prob.linearize
        )
        marching, factored, linearized = [False], [], []

        def march(u, **kwargs):
            marching[0] = True
            try:
                return solve_state(u, **kwargs)
            finally:
                marching[0] = False

        def jacobian(y):
            if not marching[0]:
                factored.append(y)
            return step_jacobian(y)

        monkeypatch.setattr(prob, "solve_state", march)
        monkeypatch.setattr(prob, "step_jacobian", jacobian)
        monkeypatch.setattr(prob, "linearize", lambda y, u: linearized.append(y) or linearize(y, u))
        out = solve(prob, np.zeros(prob.n), SolverConfig(theta=0.1))
        assert out.successes > 0 and out.counters.norm_probe_applies > 0
        assert len(linearized) == 1 + out.successes
        assert [y.shape for y in factored] == [(prob.nt, prob.nx)] * (1 + out.successes)
