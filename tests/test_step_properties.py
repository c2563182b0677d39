"""Property tests of the step kernel: CGLS on a factor, closed form without one.

Random dense factors J (up to 10 x 10, entries in [-1, 1]) and residuals R
give g = J^T R; the certificates are checked against the dense curvature
J^T J + gamma I with the true curvature norm ||J||^2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iclsq.subproblem import SubproblemSpec, exact_step, truncated_cg_step

from conftest import operator_from_matrix

_EPS = float(np.finfo(float).eps)

entries = st.floats(-1.0, 1.0, allow_subnormal=False)
gammas = st.floats(1e-3, 10.0)
thetas = st.floats(1e-4, 0.9)
fast = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def models(draw):
    """(J, R) with 1 <= m, n <= 10."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    J = draw(arrays(float, (m, n), elements=entries))
    R = draw(arrays(float, m, elements=entries))
    return J, R


def step(spec):
    return exact_step(spec) if spec.theta == 0.0 else truncated_cg_step(spec)


def rejects_zero_gradient(spec) -> bool:
    """Both kernels refuse a gradient of zero norm; check that and report it."""
    if np.linalg.norm(spec.g) != 0.0:
        return False
    with pytest.raises(ValueError):
        step(spec)
    return True


def spec_from_residual(J, R, gamma, theta):
    """Model with curvature J^T J, gradient J^T R and the true ||J||^2."""
    return SubproblemSpec(
        g=J.T @ R,
        gamma=gamma,
        theta=theta,
        h_norm_estimate=float(np.linalg.norm(J, 2)) ** 2,
        gn_factor=operator_from_matrix(J),
        gn_residual=R,
    )


@fast
@given(models(), gammas, thetas)
def test_inexact_step_meets_exit_residual_and_decrease_bounds(model, gamma, theta):
    J, R = model
    spec = spec_from_residual(J, R, gamma, theta)
    if rejects_zero_gradient(spec):
        return
    g, h_norm = spec.g, spec.h_norm_estimate
    gn = float(np.linalg.norm(g))
    result = truncated_cg_step(spec)
    s = result.step
    true_res = float(np.linalg.norm(J.T @ (J @ s) + gamma * s + g))
    tol = theta * math.sqrt(gamma / (h_norm + gamma)) * gn
    rounding = 64 * _EPS * ((h_norm + gamma) * float(np.linalg.norm(s)) + gn)
    assert result.cg_iters >= 1
    assert true_res <= tol * (1 + 1e-6) + rounding
    bound = 0.5 * (1 - theta**2) * gn**2 / (h_norm + gamma)
    assert result.model_decrease >= bound * (1 - 1e-9)


@fast
@given(models(), gammas, st.sampled_from([0.0, 1e-4, 1e-2, 0.5, 0.9]))
def test_model_decrease_is_the_explicit_quadratic(model, gamma, theta):
    J, R = model
    spec = spec_from_residual(J, R, gamma, theta)
    if rejects_zero_gradient(spec):
        return
    g = spec.g
    result = step(spec)
    s = result.step
    explicit = -(g @ s) - 0.5 * float(s @ (J.T @ (J @ s))) - 0.5 * gamma * float(s @ s)
    assert result.model_decrease == pytest.approx(
        explicit, rel=1e-9, abs=1e-12 * float(g @ g) / gamma
    )


@fast
@given(arrays(float, st.integers(1, 10), elements=entries), gammas, thetas)
def test_zero_curvature_step_is_closed_form(g, gamma, theta):
    for spec in (
        SubproblemSpec(g=g, gamma=gamma, theta=0.0, h_norm_estimate=0.0),
        SubproblemSpec(g=g, gamma=gamma, theta=theta, h_norm_estimate=0.0),
    ):
        if rejects_zero_gradient(spec):
            return
        result = step(spec)
        np.testing.assert_array_equal(result.step, -g / gamma)
        assert result.cg_iters == 1
        assert result.residual_norm <= result.cg_tolerance
