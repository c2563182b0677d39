"""Property tests of whole solves on small random problems.

Burgers problems have nx in [2, 8], nt in [1, 6] and nu in [1e-3, 1], with
control entries up to 2 or up to 50 in magnitude; the large ones reach the
rejected-trial path and Newton failures at u0. Elliptic problems have N in
[2, 10] and control entries up to 2. Both curvature modes, theta in
{0, 1e-2, 0.5} and budgets of at most 20 iterations are drawn, and the
curvature-norm estimate is taken as it is or understated tenfold, so that
CGLS has a bound to raise. Every run must end in a ``SolveStatus`` with the
cost model's counts, an accepted step's positive model decrease and gamma
at or above its floor in every record, or fail at u0 after its one state
solve. Either way its counters must match a ledger of the problem's own
solves, of the Newton iterations inside its state solves, of the estimates
taken and of the bounds CGLS raised. The elliptic state solve, which is
direct, must never call the start it is given.

The reduced Jacobian is checked too: against its transpose on elliptic
problems, and its gradient J^T R against central differences on Burgers
problems with nx in [2, 4] and nt in [1, 3] and elliptic ones with N in
[2, 5].
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import norm  # BLAS nrm2: no underflow on tiny draws

import iclsq.solver as solver_mod
from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import EvalCounters, StateSolveError
from iclsq.elliptic import EllipticProblem
from iclsq.solver import HESSIAN_MODES, SolverConfig, SolveStatus, solve

from conftest import fd_gradient_oracle

fast = settings(max_examples=25, derandomize=True, deadline=None)

# Controls of 50 everywhere: the run rejects trial points whose state solve fails.
LARGE_CONTROLS = (BurgersProblem(3, 2, nu=0.1), np.full(9, 50.0))
LARGE_CONTROLS_CONFIG = SolverConfig(theta=1e-2, max_iter=20)
# Newton diverges at the zero control: the run fails at u0.
FAILS_AT_U0 = (BurgersProblem(12, 1, nu=1e-4), np.zeros(24))


def controls(n, amplitude):
    return arrays(float, n, elements=st.floats(-amplitude, amplitude, allow_subnormal=False))


@st.composite
def burgers_runs(draw):
    prob = BurgersProblem(draw(st.integers(2, 8)), draw(st.integers(1, 6)),
                          nu=draw(st.floats(1e-3, 1.0)))
    return prob, draw(controls(prob.n, draw(st.sampled_from([2.0, 50.0]))))


@st.composite
def elliptic_runs(draw):
    prob = EllipticProblem(draw(st.integers(2, 10)), z_choice=draw(st.sampled_from(["zero", "one"])))
    return prob, draw(controls(prob.n, 2.0))


configs = st.builds(
    SolverConfig,
    theta=st.sampled_from([0.0, 1e-2, 0.5]),
    hessian_mode=st.sampled_from(HESSIAN_MODES),
    max_iter=st.integers(0, 20),
)


understates = st.sampled_from([1.0, 0.1])
SOLVES = ("solve_state", "solve_cy", "solve_cy_transpose", "step_jacobian")


def check_run(prob, u0, config, understate=1.0):
    """The run's counters, once its records, outcome and ledger pass every
    check. The ledger counts the calls of the instance's own solves, the
    Burgers step Jacobians formed directly inside a state solve (one per
    Newton iteration) and the estimates, each ``understate`` times the
    estimator's value."""
    counters, records = EvalCounters(), []
    calls, estimates, open_calls = dict.fromkeys(SOLVES, 0), [], []
    wrapped = [name for name in SOLVES if hasattr(prob, name)]

    def count(name, method):
        def counted(*args, **kwargs):
            if name != "step_jacobian" or open_calls[-1:] == ["solve_state"]:
                calls[name] += 1
            open_calls.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                open_calls.pop()
        return counted

    def estimate(J, _original=solver_mod.estimate_operator_norm):
        estimates.append(understate * _original(J))
        return estimates[-1]

    for name in wrapped:
        setattr(prob, name, count(name, getattr(prob, name)))
    try:
        with mock.patch.object(solver_mod, "estimate_operator_norm", estimate):
            out = solve(prob, u0, config, counters=counters, trace_sink=records.append)
    except (StateSolveError, ValueError):
        # only the solve at u0 may fail the run, before any iteration
        assert counters.forward_solves == 1 and records == []
        out = None
    finally:
        for name in wrapped:
            delattr(prob, name)
    check_ledger(counters, calls, estimates, records)
    if out is None:
        return counters
    assert isinstance(out.status, SolveStatus)
    assert counters.forward_solves == out.iterations + 1 == len(records) + 1
    assert out.successes == sum(rec.success for rec in records)
    assert counters.failed_trial_solves == sum(rec.actual_decrease is None for rec in records)
    if config.hessian_mode == "zero":
        assert counters.adjoint_solves == 1 + out.successes
        assert estimates == []
    # the direct elliptic state solve never asks for its prediction
    predicted = predicted_trials(records) if isinstance(prob, BurgersProblem) else 0
    assert counters.predictor_solves == predicted
    for rec in records:
        assert rec.gamma >= config.gamma_min
        if rec.success:
            assert rec.model_decrease > 0
    assert out.gamma >= config.gamma_min
    return counters


def predicted_trials(records):
    """The trials whose state solve started from a linearized prediction: the
    first from each iterate, and every retry while no earlier trial from that
    iterate has a solved state with a nonzero step to take the secant to."""
    count, held = 0, False
    for rec in records:
        count += not held
        solved = not rec.note.startswith("trial state solve failed")
        held = not rec.success and (held or (solved and rec.step_norm > 0))
    return count


def check_ledger(counters, calls, estimates, records):
    """Every solve the run caused is counted: the norm probes take one c_y
    and one c_y^T solve per product, apart from the run's solve counters,
    and each trial state predicted by a linearized solve takes one more c_y
    solve. Every Newton iteration is counted. Every estimate is counted, and
    every step that raised the bound it was given, which it then ends at
    1.5 times its curvature_seen."""
    probes = counters.norm_probe_applies
    assert probes % 2 == 0
    assert calls["solve_state"] == counters.forward_solves
    assert calls["step_jacobian"] == counters.newton_iters
    assert calls["solve_cy"] == (
        counters.linearized_solves + counters.predictor_solves + probes // 2
    )
    assert calls["solve_cy_transpose"] == counters.adjoint_solves + probes // 2
    assert counters.norm_estimates == len(estimates)
    bound, taken, raises = None, 0, 0
    for rec in records:
        if rec.counters["norm_estimates"] > taken:
            bound, taken = estimates[taken], taken + 1
        raised = bound is not None and rec.h_norm_estimate > bound
        assert rec.counters["curvature_raises"] == raises + raised
        if raised:
            assert rec.h_norm_estimate == 1.5 * rec.curvature_seen
        raises, bound = raises + raised, rec.h_norm_estimate
    assert counters.curvature_raises == raises


@fast
@given(burgers_runs(), configs, understates)
@example(run=LARGE_CONTROLS, config=LARGE_CONTROLS_CONFIG, understate=1.0)
@example(run=LARGE_CONTROLS, config=LARGE_CONTROLS_CONFIG, understate=0.1)
@example(run=FAILS_AT_U0, config=SolverConfig(), understate=1.0)
def test_burgers_solve_keeps_the_cost_model(run, config, understate):
    check_run(*run, config, understate)


def test_large_controls_reach_the_failed_trial_path():
    assert check_run(*LARGE_CONTROLS, LARGE_CONTROLS_CONFIG).failed_trial_solves > 0


def test_an_understated_bound_is_raised():
    counters = check_run(*LARGE_CONTROLS, LARGE_CONTROLS_CONFIG, understate=0.1)
    assert counters.curvature_raises > 0 and counters.failed_trial_solves > 0


def test_zero_control_fails_at_u0():
    assert check_run(*FAILS_AT_U0, SolverConfig()).forward_solves == 1


@fast
@given(elliptic_runs(), configs, understates)
def test_elliptic_solve_keeps_the_cost_model(run, config, understate):
    check_run(*run, config, understate)


@fast
@given(elliptic_runs())
def test_elliptic_state_solve_never_calls_start(run):
    """The elliptic state solve is direct: a guess is never asked for, and
    no Newton iteration is counted."""
    prob, u = run

    def start():
        raise AssertionError("a direct solve called its start")

    counters = EvalCounters()
    y = prob.solve_state(u, start=start, counters=counters)
    np.testing.assert_array_equal(y, prob.solve_state(u))
    assert counters == EvalCounters()


@fast
@given(st.integers(2, 10), st.data())
def test_elliptic_reduced_jacobian_adjoint_identity(N, data):
    prob = EllipticProblem(N, z_choice=data.draw(st.sampled_from(["zero", "one"])))
    u = data.draw(controls(prob.n, 2.0))
    jac = ReducedJacobian(prob, prob.linearize(prob.solve_state(u), u))
    v, w = data.draw(controls(prob.n, 1.0)), data.draw(controls(prob.m, 1.0))
    Jv, JTw = jac.apply(v), jac.apply_transpose(w)
    scale = norm(Jv) * norm(w) + norm(v) * norm(JTw)
    assert abs(Jv @ w - v @ JTw) <= 1e-12 * scale + float(np.finfo(float).tiny)


@st.composite
def small_runs(draw):
    """(problem, control) of either problem, small enough for the FD oracle."""
    if draw(st.booleans()):
        prob = BurgersProblem(draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                              nu=draw(st.floats(1e-3, 1.0)))
    else:
        prob = EllipticProblem(draw(st.integers(2, 5)),
                               z_choice=draw(st.sampled_from(["zero", "one"])))
    return prob, draw(controls(prob.n, 2.0))


@fast
@given(small_runs())
def test_gradient_matches_finite_differences(run):
    prob, u = run
    y = prob.solve_state(u)
    g = ReducedJacobian(prob, prob.linearize(y, u)).apply_transpose(prob.residual(y, u))
    g_fd = fd_gradient_oracle(prob, u, step=1e-6)
    assert norm(g - g_fd) <= 1e-4 * (1.0 + norm(g_fd))
