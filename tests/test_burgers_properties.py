"""Property tests of the Burgers kernels on small random problems.

Problems have nx in [2, 12] and nt in [1, 8], or, in about one draw in
three, nx in [33, 40] and nt in [1, 3], just above the 32 nodes up to which
c_y is one band LU; nu is in [1e-3, 1]. Controls and base states have
entries in [-2, 2]. The Newton march is checked against a loop built on
``step_residual``, the block sweeps against dense solves of the block lower
bidiagonal c_y, and the reduced Jacobian against its transpose. A solve
from a guess is checked against the march without one, with controls up to
50 too, so that both succeed and fail.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import norm  # BLAS nrm2: no underflow on tiny draws

from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import EvalCounters, StateSolveError

from conftest import constraint_residual, dense_cy, feasibility_tol, reference_solve_state

fast = settings(max_examples=40, derandomize=True, deadline=None)


def entries(amplitude):
    return st.floats(-amplitude, amplitude, allow_subnormal=False)


@st.composite
def problems(draw):
    wide = draw(st.sampled_from([False, False, True]))
    nx = draw(st.integers(33, 40) if wide else st.integers(2, 12))
    nt = draw(st.integers(1, 3) if wide else st.integers(1, 8))
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


def march(prob, u, start=None):
    """(state or None, StateSolveError or None, counters) of one state solve."""
    counters = EvalCounters()
    try:
        return prob.solve_state(u, start=start, counters=counters), None, counters
    except StateSolveError as exc:
        return None, exc, counters


@st.composite
def guessed(draw):
    """(problem, control, noise): control entries up to 2 or up to 50, and
    noise of the state's length with entries up to 1."""
    prob, amp = draw(problems()), draw(st.sampled_from([2.0, 50.0]))
    u = draw(arrays(float, prob.n, elements=entries(amp)))
    return prob, u, draw(arrays(float, prob.n_y, elements=entries(1.0)))


# guess from (the cold result, or noise where the cold march fails; noise)
GUESSES = {
    "exact": lambda base, noise: base,
    "near": lambda base, noise: base + 1e-3 * noise * (1.0 + np.abs(base)),
    "far": lambda base, noise: noise,
    "farther": lambda base, noise: 100.0 * noise,
    "nan": lambda base, noise: np.full_like(noise, np.nan),
    "huge": lambda base, noise: np.full_like(noise, 1e200),
}
# Newton fails at step 3 without a guess
FAILING = (BurgersProblem(4, 4, nu=1e-3), np.full(20, 2.0), np.linspace(-1.0, 1.0, 16))
# Newton from the "farther" guess 100 * noise reaches another root at step 1
# and then fails at step 2 from both the guess and that root: a march that
# restarted only the failing step would fail where the march without a guess
# succeeds.
ANOTHER_ROOT = (
    BurgersProblem(2, 2, nu=0.015),
    np.array([-0.5, 0.9, 0.5, 1.8, 2.0, 0.9]),
    np.array([-0.2, 0.1, 0.0, 0.9]),
)


@fast
@given(guessed())
@example(case=FAILING)
@example(case=ANOTHER_ROOT)
def test_a_guess_never_fails_a_march_and_moves_it_only_within_newton_tol(case):
    """For every kind of guess, a march that succeeds without it succeeds with
    it and solves the constraint, and a march that fails with it fails
    without it, with the same error. Near guesses reach the cold solution as
    far as newton_tol determines it: c_y (y - y_cold) ~ c(y) - c(y_cold) is
    at most twice the feasibility tolerance. A far guess may reach another
    solution of a step's equation, so it is only held to the constraint.
    NaN and 1e200 fail at the first step and give the cold march bit for
    bit, and the exact guess takes no Newton iteration."""
    prob, u, noise = case
    cold, cold_error, cold_counters = march(prob, u)
    for kind, make in GUESSES.items():
        guess = make(noise if cold is None else cold, noise)
        calls = []
        y, error, counters = march(prob, u, start=lambda: calls.append(1) or guess)
        assert len(calls) == 1
        if error is not None:
            assert cold_error is not None
            assert (error.step_index, str(error)) == (cold_error.step_index, str(cold_error))
            assert counters.newton_iters >= cold_counters.newton_iters
            continue
        if cold is None:
            continue  # a guess may succeed where the march without one fails
        assert norm(constraint_residual(prob, y, u)) <= feasibility_tol(prob)
        if kind in ("nan", "huge"):
            np.testing.assert_array_equal(y, cold)
            assert counters.newton_iters == cold_counters.newton_iters
        elif kind == "exact":
            np.testing.assert_array_equal(y, cold)
            assert counters.newton_iters == counters.trajectory_newton_iters == 0
        elif kind == "near":
            assert norm(dense_cy(prob, cold) @ (y - cold)) <= 2.0 * feasibility_tol(prob)
