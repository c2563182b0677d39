"""Property tests of whole solves on small random problems.

Burgers problems have nx in [2, 8], nt in [1, 6] and nu in [1e-3, 1], with
control entries up to 2 or up to 50 in magnitude; the large ones reach the
rejected-trial path and Newton failures at u0. Elliptic problems have N in
[2, 10] and control entries up to 2. Both curvature modes, theta in
{0, 1e-2, 0.5} and budgets of at most 20 iterations are drawn. Every run
must end in a ``SolveStatus`` with the cost model's counts, an accepted
step's positive model decrease and gamma at or above its floor in every
record, or fail at u0 after its one state solve.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iclsq.burgers import BurgersProblem
from iclsq.core import EvalCounters, StateSolveError
from iclsq.elliptic import EllipticProblem
from iclsq.solver import HESSIAN_MODES, SolverConfig, SolveStatus, solve

fast = settings(max_examples=25, derandomize=True, deadline=None)


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


def check_run(prob, u0, config):
    counters, records = EvalCounters(), []
    try:
        out = solve(prob, u0, config, counters=counters, trace_sink=records.append)
    except (StateSolveError, ValueError):
        # only the solve at u0 may fail the run, before any iteration
        assert counters.forward_solves == 1 and records == []
        return
    assert isinstance(out.status, SolveStatus)
    assert counters.forward_solves == out.iterations + 1 == len(records) + 1
    assert out.successes == sum(rec.success for rec in records)
    if config.hessian_mode == "zero":
        assert counters.adjoint_solves == 1 + out.successes
    for rec in records:
        assert rec.gamma >= config.gamma_min
        if rec.success:
            assert rec.model_decrease > 0
    assert out.gamma >= config.gamma_min


@fast
@given(burgers_runs(), configs)
def test_burgers_solve_keeps_the_cost_model(run, config):
    check_run(*run, config)


@fast
@given(elliptic_runs(), configs)
def test_elliptic_solve_keeps_the_cost_model(run, config):
    check_run(*run, config)
