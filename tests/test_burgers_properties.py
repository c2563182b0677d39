"""Property tests of the Burgers kernels on small random problems.

Problems have nx in [2, 12], nt in [1, 8] and nu in [1e-3, 1]; controls and
base states have entries in [-2, 2]. The Newton march is checked against a
loop built on ``step_residual``, the block sweeps against dense solves of
the block lower bidiagonal c_y, and the reduced Jacobian against its
transpose.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import norm  # BLAS nrm2: no underflow on tiny draws

from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import StateSolveError

from conftest import constraint_residual, dense_cy, feasibility_tol, reference_solve_state

fast = settings(max_examples=40, derandomize=True, deadline=None)


def entries(amplitude):
    return st.floats(-amplitude, amplitude, allow_subnormal=False)


@st.composite
def problems(draw):
    nx = draw(st.integers(2, 12))
    nt = draw(st.integers(1, 8))
    nu = draw(st.floats(1e-3, 1.0))
    return BurgersProblem(nx, nt, nu=nu)


@st.composite
def controlled(draw):
    """(problem, control) with control entries up to 2 in magnitude."""
    prob = draw(problems())
    return prob, draw(arrays(float, prob.n, elements=entries(2.0)))


@st.composite
def linearized(draw):
    """(problem, base state, control) with entries up to 2 in magnitude."""
    prob, u = draw(controlled())
    return prob, draw(arrays(float, prob.n_y, elements=entries(2.0))), u


# Below the smallest normal number, relative accuracy is lost to gradual
# underflow, so every comparison allows that much absolute error.
_TINY = float(np.finfo(float).tiny)


def assert_close(got, expected, rtol=1e-12):
    assert norm(got - expected) <= rtol * norm(expected) + _TINY


@fast
@given(controlled())
@example(case=(BurgersProblem(4, 4, nu=1e-3), np.full(20, 2.0)))  # Newton fails at step 3
def test_marching_agrees_with_reference_or_fails_at_same_step(case):
    prob, u = case
    try:
        expected = reference_solve_state(prob, u)
    except StateSolveError as ref:
        with pytest.raises(StateSolveError) as err:
            prob.solve_state(u)
        assert err.value.step_index == ref.step_index
        return
    y = prob.solve_state(u)
    assert_close(y, expected)
    assert norm(constraint_residual(prob, y, u)) <= feasibility_tol(prob)


@fast
@given(linearized(), st.data())
def test_block_sweeps_match_dense_solves(case, data):
    prob, y, u = case
    rhs = data.draw(arrays(float, prob.n_y, elements=entries(1.0)))
    cy = dense_cy(prob, y)
    lin = prob.linearize(y, u)
    assert_close(prob.solve_cy(lin, rhs), np.linalg.solve(cy, rhs))
    assert_close(prob.solve_cy_transpose(lin, rhs), np.linalg.solve(cy.T, rhs))


@fast
@given(linearized(), st.data())
def test_reduced_jacobian_adjoint_identity(case, data):
    prob, y, u = case
    jac = ReducedJacobian(prob, prob.linearize(y, u))
    v = data.draw(arrays(float, prob.n, elements=entries(1.0)))
    w = data.draw(arrays(float, prob.m, elements=entries(1.0)))
    Jv, JTw = jac.apply(v), jac.apply_transpose(w)
    scale = norm(Jv) * norm(w) + norm(v) * norm(JTw)
    assert abs(Jv @ w - v @ JTw) <= 1e-12 * scale + _TINY
