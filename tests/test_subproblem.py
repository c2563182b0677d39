"""Step computation: exact and truncated CG solves with dense oracles."""

import math

import numpy as np
import pytest

from iclsq.core import zero_operator
from iclsq.subproblem import (
    IndefiniteOperator,
    SubproblemSpec,
    estimate_operator_norm,
    exact_step,
    model_decrease,
    truncated_cg_step,
)

from conftest import operator_from_matrix, random_psd


def spec_from_dense(H, g, gamma, theta=0.0, h_norm=None):
    H = np.asarray(H, dtype=float)
    if h_norm is None:
        h_norm = float(np.linalg.norm(H, 2)) if H.size else 0.0
    return SubproblemSpec(
        g=np.asarray(g, dtype=float),
        H=operator_from_matrix(H),
        gamma=gamma,
        theta=theta,
        h_norm_estimate=h_norm,
    )


class TestExactStep:
    def test_identity_curvature(self):
        spec = spec_from_dense(np.eye(2), [2.0, 0.0], gamma=1.0)
        result = exact_step(spec)
        np.testing.assert_allclose(result.step, [-1.0, 0.0], atol=1e-12)
        assert result.model_decrease == pytest.approx(1.0, abs=1e-12)
        assert result.mode == "exact"

    def test_zero_curvature_gradient_step(self):
        spec = SubproblemSpec(
            g=np.array([0.0, 4.0]),
            H=zero_operator(2),
            gamma=2.0,
            theta=0.0,
            h_norm_estimate=0.0,
        )
        result = exact_step(spec)
        np.testing.assert_allclose(result.step, [0.0, -2.0], atol=1e-12)
        assert result.model_decrease == pytest.approx(4.0, abs=1e-12)

    def test_matches_dense_factorization(self, rng):
        for _ in range(5):
            H = random_psd(rng, 5)
            g = rng.standard_normal(5)
            gamma = 0.5
            spec = spec_from_dense(H, g, gamma)
            result = exact_step(spec)
            expected = -np.linalg.solve(H + gamma * np.eye(5), g)
            assert np.linalg.norm(result.step - expected) <= 1e-10 * (
                1.0 + np.linalg.norm(expected)
            )

    def test_relative_residual_below_target(self, rng):
        H = random_psd(rng, 8)
        g = rng.standard_normal(8)
        spec = spec_from_dense(H, g, gamma=1.0)
        result = exact_step(spec)
        true_res = np.linalg.norm(H @ result.step + spec.gamma * result.step + g)
        assert true_res <= 1e-11 * np.linalg.norm(g)

    def test_rejects_zero_gradient(self):
        spec = spec_from_dense(np.eye(2), np.zeros(2), gamma=1.0)
        with pytest.raises(ValueError):
            exact_step(spec)


class TestTruncatedCG:
    def test_at_least_one_iteration(self, rng):
        # The tolerance factor is below one, so zero iterations never suffice.
        for theta in (1e-6, 1e-2, 0.5, 0.99):
            H = random_psd(rng, 6)
            spec = spec_from_dense(H, rng.standard_normal(6), gamma=0.3, theta=theta)
            assert truncated_cg_step(spec).cg_iters >= 1

    def test_zero_curvature_single_iteration(self, rng):
        for theta in (1e-6, 1e-2, 0.5):
            spec = SubproblemSpec(
                g=rng.standard_normal(4),
                H=zero_operator(4),
                gamma=2.0,
                theta=theta,
                h_norm_estimate=0.0,
            )
            result = truncated_cg_step(spec)
            assert result.cg_iters == 1
            np.testing.assert_allclose(result.step, -spec.g / 2.0, atol=1e-14)

    def test_exit_residual_and_iteration_bound(self, rng):
        n, gamma, theta = 20, 0.1, 0.01
        H = random_psd(rng, n)
        g = rng.standard_normal(n)
        h_norm = float(np.linalg.norm(H, 2))
        spec = spec_from_dense(H, g, gamma=gamma, theta=theta, h_norm=h_norm)
        result = truncated_cg_step(spec)
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
            H = random_psd(rng, n, spread=2.0)
            g = rng.standard_normal(n)
            gamma = 10.0 ** rng.uniform(-3, 1)
            theta = rng.uniform(1e-4, 0.9)
            h_norm = float(np.linalg.norm(H, 2))
            spec = spec_from_dense(H, g, gamma=gamma, theta=theta, h_norm=h_norm)
            result = truncated_cg_step(spec)
            gn = np.linalg.norm(g)
            decrease_bound = 0.5 * (1 - theta**2) * gn**2 / (h_norm + gamma)
            assert result.model_decrease >= decrease_bound - 1e-12
            assert np.linalg.norm(result.step) <= (1 + theta) * gn / gamma + 1e-12

    def test_theta_zero_consistency(self, rng):
        H = random_psd(rng, 10)
        g = rng.standard_normal(10)
        spec_tiny = spec_from_dense(H, g, gamma=0.5, theta=1e-14)
        spec_exact = spec_from_dense(H, g, gamma=0.5, theta=0.0)
        s_tiny = truncated_cg_step(spec_tiny).step
        s_exact = exact_step(spec_exact).step
        rel = np.linalg.norm(s_tiny - s_exact) / (1.0 + np.linalg.norm(s_exact))
        assert rel <= 1e-8

    def test_requires_positive_theta(self, rng):
        spec = spec_from_dense(np.eye(3), rng.standard_normal(3), gamma=1.0, theta=0.0)
        with pytest.raises(ValueError):
            truncated_cg_step(spec)

    def test_indefinite_curvature_detected(self, rng):
        H = -2.0 * np.eye(3)  # violates the PSD promise
        spec = spec_from_dense(H, rng.standard_normal(3), gamma=1.0, theta=0.1, h_norm=2.0)
        with pytest.raises(IndefiniteOperator):
            truncated_cg_step(spec)


def thirty_step_estimate(H, dim, seed):
    """The fixed thirty-step power iteration every cold estimate must equal."""
    v = np.random.default_rng(seed).standard_normal(dim)
    v /= np.linalg.norm(v)
    hv = H @ v
    for _ in range(30):
        v = hv / np.linalg.norm(hv)
        hv = H @ v
    return 1.5 * float(v @ hv)


class TestOperatorNorm:
    def test_zero_operator(self):
        est, _, products = estimate_operator_norm(zero_operator(7), 7)
        assert est == 0.0
        assert products == 1

    def test_identity(self):
        est, _, _ = estimate_operator_norm(operator_from_matrix(np.eye(10)), 10)
        assert 1.0 <= est <= 1.5

    def test_overestimates_but_not_wildly(self, rng):
        for seed in range(5):
            H = random_psd(rng, 15)
            true = float(np.linalg.norm(H, 2))
            est, _, _ = estimate_operator_norm(operator_from_matrix(H), 15, seed=seed)
            assert true <= est <= 1.5 * true + 1e-12

    def test_cold_estimate_is_the_thirty_step_formula(self, rng):
        for seed in range(5):
            H = random_psd(rng, 12)
            est, v, products = estimate_operator_norm(operator_from_matrix(H), 12, seed=seed)
            assert est == thirty_step_estimate(H, 12, seed)
            assert products == 31
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_warm_start_from_dominant_eigenvector_stops_early(self, rng):
        for _ in range(5):
            H = random_psd(rng, 15)
            eigvals, eigvecs = np.linalg.eigh(H)
            true = float(eigvals[-1])
            est, v, products = estimate_operator_norm(
                operator_from_matrix(H), 15, start=eigvecs[:, -1]
            )
            assert products <= 2
            assert true <= est <= 1.5 * true * (1 + 1e-12)
            assert abs(float(v @ eigvecs[:, -1])) == pytest.approx(1.0, abs=1e-12)

    def test_warm_start_does_not_modify_start(self, rng):
        H = random_psd(rng, 6)
        start = rng.standard_normal(6)
        kept = start.copy()
        estimate_operator_norm(operator_from_matrix(H), 6, start=start)
        np.testing.assert_array_equal(start, kept)


class TestModelDecrease:
    def test_zero_step(self, rng):
        spec = spec_from_dense(random_psd(rng, 4), rng.standard_normal(4), gamma=1.0)
        assert model_decrease(spec, np.zeros(4)) == 0.0

    def test_worked_example(self):
        spec = spec_from_dense(np.eye(2), [2.0, 0.0], gamma=1.0)
        s = exact_step(spec).step
        assert model_decrease(spec, s) == pytest.approx(1.0, abs=1e-12)

    def test_matches_explicit_quadratic(self, rng):
        for _ in range(10):
            n = 6
            H = random_psd(rng, n)
            g = rng.standard_normal(n)
            gamma = 0.7
            s = rng.standard_normal(n)
            spec = spec_from_dense(H, g, gamma=gamma)
            A = H + gamma * np.eye(n)
            direct = -(g @ s) - 0.5 * s @ (A @ s)
            assert model_decrease(spec, s) == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_step_results_report_consistent_decrease(self, rng):
        H = random_psd(rng, 8)
        g = rng.standard_normal(8)
        spec = spec_from_dense(H, g, gamma=0.2, theta=0.05)
        result = truncated_cg_step(spec)
        assert result.model_decrease == pytest.approx(
            model_decrease(spec, result.step), rel=1e-10, abs=1e-13
        )


class TestExactDecreaseBound:
    def test_exact_solution_certificate(self, rng):
        for _ in range(10):
            n = 9
            H = random_psd(rng, n)
            g = rng.standard_normal(n)
            gamma = 10.0 ** rng.uniform(-3, 1)
            h_norm = float(np.linalg.norm(H, 2))
            spec = spec_from_dense(H, g, gamma=gamma, h_norm=h_norm)
            result = exact_step(spec)
            bound = 0.5 * np.linalg.norm(g) ** 2 / (h_norm + gamma)
            assert result.model_decrease >= bound - 1e-12


class TestSpecValidation:
    def test_psd_probe_of_supplied_operator(self, rng):
        # Rayleigh quotients of the stated curvature stay essentially nonnegative.
        H = random_psd(rng, 10)
        op = operator_from_matrix(H)
        for _ in range(20):
            v = rng.standard_normal(10)
            assert float(v @ (op @ v)) >= -1e-12 * float(v @ v)

    def test_rejects_bad_gamma_and_theta(self, rng):
        g = rng.standard_normal(3)
        with pytest.raises(ValueError):
            SubproblemSpec(g=g, H=zero_operator(3), gamma=0.0, theta=0.1, h_norm_estimate=0.0)
        with pytest.raises(ValueError):
            SubproblemSpec(g=g, H=zero_operator(3), gamma=1.0, theta=1.0, h_norm_estimate=0.0)
