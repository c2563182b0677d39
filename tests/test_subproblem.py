"""Step computation: exact and truncated CGLS solves with dense oracles."""

import functools
import math

import numpy as np
import pytest

from iclsq.core import LinearOperator
from iclsq.subproblem import (
    IndefiniteOperator,
    estimate_operator_norm,
    exact_step,
    truncated_cg_step,
)

from conftest import factor_spec, operator_from_matrix, random_factor


def explicit_decrease(J, g, gamma, s):
    """q(0) - q(s) for the model with curvature J^T J + gamma I."""
    A = J.T @ J + gamma * np.eye(len(g))
    return -(g @ s) - 0.5 * s @ (A @ s)


class TestExactStep:
    def test_identity_curvature(self):
        result = exact_step(**factor_spec(np.eye(2), [2.0, 0.0], gamma=1.0))
        np.testing.assert_allclose(result.step, [-1.0, 0.0], atol=1e-12)
        assert result.model_decrease == pytest.approx(1.0, abs=1e-12)

    def test_zero_curvature_gradient_step(self):
        result = exact_step(np.array([0.0, 4.0]), gamma=2.0, h_norm=0.0)
        np.testing.assert_array_equal(result.step, [0.0, -2.0])
        assert result.model_decrease == 4.0
        assert result.cg_iters == 1

    def test_underflowing_curvature_raises(self):
        # ||p||^2 = 3e-320 is subnormal, and gamma times it underflows to
        # zero, so CGLS would divide by zero curvature.
        zero = LinearOperator((3, 3), lambda v: np.zeros(3), lambda w: np.zeros(3))
        with pytest.raises(IndefiniteOperator):
            exact_step(np.full(3, 1e-160), gamma=1e-10, h_norm=0.0, J=zero, R=np.ones(3))

    def test_matches_dense_factorization(self, rng):
        for _ in range(5):
            J = random_factor(rng, 5)
            g = rng.standard_normal(5)
            gamma = 0.5
            result = exact_step(**factor_spec(J, g, gamma))
            expected = -np.linalg.solve(J.T @ J + gamma * np.eye(5), g)
            assert np.linalg.norm(result.step - expected) <= 1e-10 * (
                1.0 + np.linalg.norm(expected)
            )

    def test_relative_residual_below_target(self, rng):
        J = random_factor(rng, 8)
        g = rng.standard_normal(8)
        result = exact_step(**factor_spec(J, g, gamma=1.0))
        true_res = np.linalg.norm(J.T @ (J @ result.step) + result.step + g)
        assert true_res <= 1e-11 * np.linalg.norm(g)

    def test_rejects_zero_gradient(self):
        with pytest.raises(ValueError):
            exact_step(**factor_spec(np.eye(2), np.zeros(2), gamma=1.0))


class TestTruncatedCG:
    def test_at_least_one_iteration(self, rng):
        # The tolerance factor is below one, so zero iterations never suffice.
        for theta in (1e-6, 1e-2, 0.5, 0.99):
            J = random_factor(rng, 6)
            spec = factor_spec(J, rng.standard_normal(6), gamma=0.3)
            assert truncated_cg_step(theta=theta, **spec).cg_iters >= 1

    def test_zero_curvature_single_iteration(self, rng):
        for theta in (1e-6, 1e-2, 0.5):
            g = rng.standard_normal(4)
            result = truncated_cg_step(g, gamma=2.0, theta=theta, h_norm=0.0)
            assert result.cg_iters == 1
            np.testing.assert_array_equal(result.step, -g / 2.0)

    def test_exit_residual_and_iteration_bound(self, rng):
        n, gamma, theta = 20, 0.1, 0.01
        J = random_factor(rng, n)
        H = J.T @ J
        g = rng.standard_normal(n)
        h_norm = float(np.linalg.norm(H, 2))
        result = truncated_cg_step(theta=theta, **factor_spec(J, g, gamma=gamma, h_norm=h_norm))
        res = np.linalg.norm((H + gamma * np.eye(n)) @ result.step + g)
        bound = theta * math.sqrt(gamma / (h_norm + gamma)) * np.linalg.norm(g)
        assert res <= bound * (1.0 + 1e-8)
        kappa = (h_norm + gamma) / gamma
        iter_bound = min(n, math.ceil(0.5 * math.sqrt(kappa) * math.log(2 * kappa / theta)))
        assert result.cg_iters <= iter_bound

    def test_decrease_and_step_norm_bounds(self, rng):
        # Inexact-step certificates with the true curvature norm.
        for trial in range(10):
            n = 12
            J = random_factor(rng, n, spread=2.0)
            g = rng.standard_normal(n)
            gamma = 10.0 ** rng.uniform(-3, 1)
            theta = rng.uniform(1e-4, 0.9)
            h_norm = float(np.linalg.norm(J, 2)) ** 2
            spec = factor_spec(J, g, gamma=gamma, h_norm=h_norm)
            result = truncated_cg_step(theta=theta, **spec)
            gn = np.linalg.norm(g)
            decrease_bound = 0.5 * (1 - theta**2) * gn**2 / (h_norm + gamma)
            assert result.model_decrease >= decrease_bound - 1e-12
            assert np.linalg.norm(result.step) <= (1 + theta) * gn / gamma + 1e-12

    def test_theta_zero_consistency(self, rng):
        J = random_factor(rng, 10)
        g = rng.standard_normal(10)
        spec = factor_spec(J, g, gamma=0.5)
        s_tiny = truncated_cg_step(theta=1e-14, **spec).step
        s_exact = exact_step(**spec).step
        rel = np.linalg.norm(s_tiny - s_exact) / (1.0 + np.linalg.norm(s_exact))
        assert rel <= 1e-8

    def test_requires_positive_theta(self, rng):
        spec = factor_spec(np.eye(3), rng.standard_normal(3), gamma=1.0)
        with pytest.raises(ValueError):
            truncated_cg_step(theta=0.0, **spec)


def thirty_step_estimate(J):
    """The fixed thirty-step power iteration every cold estimate must equal."""
    v = np.random.default_rng(0).standard_normal(J.shape[1])
    v /= np.linalg.norm(v)
    hv = J.T @ (J @ v)
    for _ in range(30):
        v = hv / np.linalg.norm(hv)
        hv = J.T @ (J @ v)
    return 1.5 * float(v @ hv)


class TestOperatorNorm:
    def test_zero_operator(self):
        est, _, products = estimate_operator_norm(operator_from_matrix(np.zeros((3, 7))))
        assert est == 0.0
        assert products == 1

    def test_identity(self):
        est, _, _ = estimate_operator_norm(operator_from_matrix(np.eye(10)))
        assert 1.0 <= est <= 1.5

    def test_overestimates_but_not_wildly(self, rng):
        for _ in range(5):
            J = random_factor(rng, 15)
            true = float(np.linalg.norm(J.T @ J, 2))
            est, _, _ = estimate_operator_norm(operator_from_matrix(J))
            assert true <= est <= 1.5 * true + 1e-12

    def test_cold_estimate_is_the_thirty_step_formula(self, rng):
        for _ in range(5):
            J = random_factor(rng, 12)
            est, v, products = estimate_operator_norm(operator_from_matrix(J))
            assert est == thirty_step_estimate(J)
            assert products == 31
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_warm_start_from_dominant_eigenvector_stops_early(self, rng):
        for _ in range(5):
            J = random_factor(rng, 15)
            eigvals, eigvecs = np.linalg.eigh(J.T @ J)
            true = float(eigvals[-1])
            est, v, products = estimate_operator_norm(
                operator_from_matrix(J), start=eigvecs[:, -1]
            )
            assert products <= 2
            assert true <= est <= 1.5 * true * (1 + 1e-12)
            assert abs(float(v @ eigvecs[:, -1])) == pytest.approx(1.0, abs=1e-12)

    def test_warm_start_does_not_modify_start(self, rng):
        J = random_factor(rng, 6)
        start = rng.standard_normal(6)
        kept = start.copy()
        estimate_operator_norm(operator_from_matrix(J), start=start)
        np.testing.assert_array_equal(start, kept)


class TestModelDecrease:
    def test_zero_step(self, rng):
        # Zero curvature: the closed-form step -g / gamma decreases the model
        # by ||g||^2 / (2 gamma).
        g = rng.standard_normal(4)
        result = exact_step(g, gamma=0.8, h_norm=0.0)
        assert result.model_decrease == pytest.approx((g @ g) / 1.6, rel=1e-14)

    def test_worked_example(self):
        # H = diag(4, 1), gamma = 1: s = -(H + I)^-1 g = (-0.8, -1.0), and
        # the decrease is 0.5 g.(H + I)^-1 g = 2.6.
        result = exact_step(**factor_spec(np.diag([2.0, 1.0]), [4.0, 2.0], gamma=1.0))
        np.testing.assert_allclose(result.step, [-0.8, -1.0], rtol=1e-12)
        assert result.model_decrease == pytest.approx(2.6, rel=1e-12)

    def test_step_results_report_consistent_decrease(self, rng):
        J = random_factor(rng, 8)
        g = rng.standard_normal(8)
        result = truncated_cg_step(theta=0.05, **factor_spec(J, g, gamma=0.2))
        assert result.model_decrease == pytest.approx(
            explicit_decrease(J, g, 0.2, result.step), rel=1e-10, abs=1e-13
        )


class TestExactDecreaseBound:
    def test_exact_solution_certificate(self, rng):
        for _ in range(10):
            n = 9
            J = random_factor(rng, n)
            g = rng.standard_normal(n)
            gamma = 10.0 ** rng.uniform(-3, 1)
            h_norm = float(np.linalg.norm(J, 2)) ** 2
            result = exact_step(**factor_spec(J, g, gamma=gamma, h_norm=h_norm))
            bound = 0.5 * np.linalg.norm(g) ** 2 / (h_norm + gamma)
            assert result.model_decrease >= bound - 1e-12


class TestModelValidation:
    def test_factor_requires_residual(self, rng):
        g = rng.standard_normal(3)
        for step in (exact_step, functools.partial(truncated_cg_step, theta=0.1)):
            with pytest.raises(ValueError):
                step(g, gamma=1.0, h_norm=1.0, J=operator_from_matrix(np.eye(3)))
            with pytest.raises(ValueError):
                step(g, gamma=1.0, h_norm=0.0, R=g)

    def test_rejects_bad_gamma_theta_and_h_norm(self, rng):
        g = rng.standard_normal(3)
        for gamma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                exact_step(g, gamma=gamma, h_norm=0.0)
            with pytest.raises(ValueError):
                truncated_cg_step(g, gamma=gamma, theta=0.1, h_norm=0.0)
        for theta in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                truncated_cg_step(g, gamma=1.0, theta=theta, h_norm=0.0)
        for h_norm in (-1.0, math.nan):
            with pytest.raises(ValueError):
                exact_step(g, gamma=1.0, h_norm=h_norm)
