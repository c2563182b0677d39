"""Step computation: exact and truncated CGLS solves with dense oracles."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iclsq import subproblem
from iclsq.core import DimensionMismatch, LinearOperator
from iclsq.subproblem import (
    IndefiniteOperator,
    estimate_operator_norm,
    exact_step,
    truncated_cg_step,
)

from conftest import CountingOperator, factor_spec, operator_from_matrix, random_factor


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


class TestUnreachableTarget:
    """The two exits other than the target: 30 iterations in a row with no
    better residual, and the cap of 3 n + 30 iterations. The target is
    patched to 0, and J (40 x 20, singular values spaced geometrically from
    1 down to ``smallest``) is ill-conditioned enough that the residual
    stays well above roundoff and moves up and down."""

    @pytest.mark.parametrize(
        ("smallest", "gamma", "exit_"),
        [(1e-8, 1e-14, "stall"), (1e-6, 1e-8, "cap")],
    )
    def test_returns_the_best_iterate_and_counts_every_iteration(
        self, monkeypatch, smallest, gamma, exit_
    ):
        n = 20
        rng = np.random.default_rng(0)
        left, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
        right, _ = np.linalg.qr(rng.standard_normal((n, n)))
        J = left @ np.diag(np.geomspace(1.0, smallest, n)) @ right.T
        R = rng.standard_normal(2 * n)
        g = J.T @ R
        monkeypatch.setattr(subproblem, "_target", lambda *args: 0.0)
        op = CountingOperator(J)
        result = exact_step(g, gamma, 1.5, op, R)
        assert op.applies == 2 * result.cg_iters  # one J and one J^T per iteration
        # A target equal to the best residual stops at the first iterate that
        # reaches it, the best one; the iterates do not depend on the target.
        monkeypatch.setattr(subproblem, "_target", lambda *args: result.residual_norm)
        best = exact_step(g, gamma, 1.5, operator_from_matrix(J), R)
        np.testing.assert_array_equal(result.step, best.step)
        assert best.residual_norm == result.residual_norm
        if exit_ == "stall":
            assert result.cg_iters == best.cg_iters + 30 < 3 * n + 30
        else:
            assert best.cg_iters < result.cg_iters == 3 * n + 30
        dense = np.linalg.norm(-g - (J.T @ J + gamma * np.eye(n)) @ result.step)
        assert result.residual_norm == pytest.approx(dense, rel=1e-2)
        assert result.model_decrease == pytest.approx(
            explicit_decrease(J, g, gamma, result.step), rel=1e-7
        )


class TestAliasingOperator:
    """CGLS keeps its best iterate by reference, so it must never write into
    an array it has kept or been given, even when J's products hand back
    their input array itself."""

    @pytest.mark.parametrize("theta", [None, 0.5, 1e-3])
    def test_step_is_unchanged_and_leaves_g_and_r_untouched(self, theta, rng):
        n = 9
        R = rng.standard_normal(n)
        g = R.copy()  # J^T R for J = I
        R.flags.writeable = g.flags.writeable = False
        frozen = R.copy(), g.copy()
        aliasing = LinearOperator((n, n), lambda v: v, lambda w: w)
        copying = LinearOperator((n, n), lambda v: v.copy(), lambda w: w.copy())
        results = []
        for J in (aliasing, copying):
            if theta is None:
                results.append(exact_step(g, 0.3, 1.5, J, R))
            else:
                results.append(truncated_cg_step(g, 0.3, theta, 1.5, J, R))
        got, expected = results
        np.testing.assert_array_equal(got.step.view(np.uint64), expected.step.view(np.uint64))
        for field in ("model_decrease", "residual_norm", "cg_iters", "cg_tolerance",
                      "h_norm", "curvature_seen"):
            assert float(getattr(got, field)).hex() == float(getattr(expected, field)).hex()
        np.testing.assert_array_equal(R, frozen[0])
        np.testing.assert_array_equal(g, frozen[1])


class TestOperatorNorm:
    def test_zero_operator(self):
        J = CountingOperator(np.zeros((3, 7)))
        est = estimate_operator_norm(J)
        assert est == 0.0
        assert J.applies == 2  # one product J^T (J v)

    def test_identity(self):
        est = estimate_operator_norm(operator_from_matrix(np.eye(10)))
        assert 1.0 <= est <= 1.5

    def test_operator_that_hands_back_its_input(self):
        # J^T (J q) is the basis vector q itself; orthogonalizing the product
        # must not overwrite q.
        est = estimate_operator_norm(LinearOperator((10, 10), lambda v: v, lambda w: w))
        assert est == pytest.approx(1.5, rel=1e-12)

    def test_overestimates_but_not_wildly(self, rng):
        for _ in range(5):
            J = random_factor(rng, 15)
            true = float(np.linalg.norm(J.T @ J, 2))
            est = estimate_operator_norm(operator_from_matrix(J))
            assert true <= est <= 1.5 * true + 1e-12

    def test_cold_estimate_matches_the_top_eigenvalue(self, rng):
        # Lanczos from the seeded start: its top Ritz value, a lower bound,
        # within the 1e-3 stopping rule of the top eigenvalue, in at most 10
        # products (the power method took 31).
        for _ in range(5):
            J = random_factor(rng, 12)
            top = float(np.linalg.eigvalsh(J.T @ J)[-1])
            op = CountingOperator(J)
            est = estimate_operator_norm(op)
            assert top * (1 - 1e-3) <= est / 1.5 <= top * (1 + 1e-12)
            assert op.applies <= 20

    def test_stops_after_thirty_products(self):
        # Each application scales by its own call count, so the Ritz values
        # never settle and only the product cap ends the estimate.
        A = np.random.default_rng(0).standard_normal((40, 40))
        calls = [0]

        def scaled(M):
            def apply(v):
                calls[0] += 1
                return calls[0] * (M @ v)
            return apply

        est = estimate_operator_norm(LinearOperator((40, 40), scaled(A), scaled(A.T)))
        assert calls[0] == 60 and math.isfinite(est)

    @pytest.mark.parametrize("scale", [1e100, 1e160], ids=["norm-overflows", "product-overflows"])
    def test_overflowing_product_raises(self, scale):
        with pytest.raises(FloatingPointError, match="overflowed"):
            estimate_operator_norm(operator_from_matrix(scale * np.eye(3)))


def residual_target(g, gamma, theta, h_norm):
    """The step rule's residual target for the bound h_norm (theta 0: exact)."""
    scale = math.sqrt(gamma / (h_norm + gamma))
    if theta == 0.0:
        kappa = (h_norm + gamma) / gamma
        eps = float(np.finfo(float).eps)
        return max(min(1e-12, 1e-11 * scale), 50.0 * eps * math.sqrt(kappa)) * np.linalg.norm(g)
    return theta * scale * np.linalg.norm(g)


def stale_bound_step(n, top, reach, gamma, theta, seed):
    """A step against a stale bound: J^T J is diagonal with top eigenvalue 1
    on e_0, the bound h_norm = 1.5 was estimated for that, and a new top
    eigenvalue ``top`` sits on e_{n-1}, which g reaches with relative weight
    ``reach``. Returns the step and the top."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.01, 1.0, n)
    d[0], d[-1] = 1.0, top
    J = np.diag(np.sqrt(d))
    R = rng.standard_normal(n)
    R[-1] = reach * np.linalg.norm(R[:-1])
    kw = dict(g=J.T @ R, gamma=gamma, h_norm=1.5, J=operator_from_matrix(J), R=R)
    return (exact_step(**kw) if theta == 0.0 else truncated_cg_step(theta=theta, **kw)), kw


class TestCurvatureCrossCheck:
    """CGLS checks the bound it is given against the Rayleigh quotients
    ||J p||^2 / ||p||^2 of its directions, lower bounds on ||J^T J||, and
    raises a bound they pass to 1.5 times the largest."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        n=st.integers(3, 40),
        top=st.floats(1.6, 5.0),
        reach=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
        gamma=st.floats(1e-3, 10.0),
        theta=st.sampled_from([0.0, 1e-2, 0.5]),
        seed=st.integers(0, 2**16),
    )
    def test_stale_bound_is_raised_once_cgls_sees_past_it(self, n, top, reach, gamma, theta, seed):
        result, kw = stale_bound_step(n, top, reach, gamma, theta, seed)
        seen = result.curvature_seen
        assert 0.0 < seen <= top * (1 + 1e-12)  # a Rayleigh quotient, so at most the top
        if seen > 1.5:  # only the new direction can take a quotient past the old top
            assert result.h_norm >= 1.5 * seen
        else:
            assert result.h_norm == 1.5
        assert result.cg_tolerance == residual_target(kw["g"], gamma, theta, result.h_norm)
        if theta > 0.0:
            assert result.residual_norm <= result.cg_tolerance

    @pytest.mark.parametrize("theta", [0.0, 1e-2, 0.5])
    def test_gradient_on_the_new_direction_raises_at_once(self, theta):
        # g on e_{n-1} alone: the first direction is that eigenvector, whose
        # quotient is the new top itself
        result, kw = stale_bound_step(8, 3.0, 1e9, 0.1, theta, 0)
        assert result.curvature_seen == pytest.approx(3.0, rel=1e-12)
        assert result.h_norm == 1.5 * result.curvature_seen
        assert result.cg_tolerance == residual_target(kw["g"], 0.1, theta, result.h_norm)

    def test_true_bound_is_kept(self, rng):
        J = random_factor(rng, 10)
        spec = factor_spec(J, rng.standard_normal(10), gamma=0.5)
        result = truncated_cg_step(theta=0.1, **spec)
        assert 0.0 < result.curvature_seen <= spec["h_norm"] * (1 + 1e-12)
        assert result.h_norm == spec["h_norm"]

    def test_zero_curvature_sees_nothing(self, rng):
        result = truncated_cg_step(rng.standard_normal(3), gamma=1.0, theta=0.1, h_norm=0.0)
        assert result.curvature_seen == 0.0 and result.h_norm == 0.0


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

    @pytest.mark.parametrize("step", [exact_step, functools.partial(truncated_cg_step, theta=0.1)])
    @pytest.mark.parametrize(
        ("g_len", "r_len", "message"),
        [
            (3, 5, "R has length 5, expected 4"),  # failed in CGLS with a broadcast error
            (4, 4, "gradient has length 4, expected 3"),
        ],
    )
    def test_rejects_lengths_that_do_not_fit_J(self, step, g_len, r_len, message, rng):
        J = operator_from_matrix(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionMismatch, match=message):
            step(np.ones(g_len), gamma=1.0, h_norm=1.0, J=J, R=np.ones(r_len))

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
