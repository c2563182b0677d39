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

A sweep reads its cells off one ``Trajectory``, one stream per theta.
Drawn sweeps of either problem, in either curvature mode, with theta grids
and tolerance pairs in any order (so that a cell can stop before the
stream's current top and start it over), must give every row field but ``wall_ms`` and every
trace file that independent solves of the cells give; so must a sweep whose
streams fail part way. A trajectory must refuse a solve of another problem
or starting control, and keep one stream per config apart from its
tolerances.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import norm  # BLAS nrm2: no underflow on tiny draws

import iclsq.solver as solver_mod
from iclsq import harness
from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import EvalCounters, StateSolveError
from iclsq.elliptic import EllipticProblem
from iclsq.harness import ExperimentSpec, run_experiment
from iclsq.solver import HESSIAN_MODES, SolverConfig, SolveStatus, Trajectory, solve

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
    assert calls["step_jacobian"] == counters.newton_iters + counters.trajectory_newton_iters
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


def check_sweep_equals_independent_cells(spec):
    """The sweep's rows, once each equals, but for ``wall_ms``, the row of an
    independent solve of its cell, and each trace file that solve's."""
    with tempfile.TemporaryDirectory() as tmp:
        swept, alone = Path(tmp, "swept"), Path(tmp, "alone")
        rows = run_experiment(dataclasses.replace(spec, out_dir=swept))
        alone.mkdir()
        problem = harness.PROBLEMS[spec.problem](**spec.problem_params)
        for row, (tag, config) in zip(rows, spec._cells().items(), strict=True):
            name = f"trace_{tag}.jsonl"
            independent = harness._run_cell(problem, spec.problem, config, alone / name)
            assert row_fields(row) == row_fields(independent)
            assert (swept / name).read_bytes() == (alone / name).read_bytes()
    return rows


def row_fields(row):
    """Every field of an ``ExperimentRow`` but ``wall_ms``, as reprs (so NaN equals NaN)."""
    return {f.name: repr(getattr(row, f.name))
            for f in dataclasses.fields(row) if f.name != "wall_ms"}


TOLERANCES = st.sampled_from([1e-1, 1e-2, 1e-4, 1e-8])


@st.composite
def sweeps(draw):
    if draw(st.booleans()):
        problem, params = "burgers", dict(nx=draw(st.integers(2, 8)), nt=draw(st.integers(1, 4)),
                                          nu=draw(st.sampled_from([1e-2, 0.1, 1.0])))
    else:
        problem, params = "elliptic", dict(N=draw(st.integers(2, 6)),
                                           z_choice=draw(st.sampled_from(["zero", "one"])))
    thetas = draw(st.permutations([0.0, 1e-2, 0.5]))
    return ExperimentSpec(
        problem=problem,
        problem_params=params,
        theta_grid=tuple(thetas[:draw(st.integers(1, 3))]),
        eps_grid=tuple(draw(st.lists(st.tuples(TOLERANCES, TOLERANCES),
                                     min_size=1, max_size=4, unique=True))),
        max_iter=draw(st.integers(0, 15)),
        hessian_mode=draw(st.sampled_from(HESSIAN_MODES)),
    )


# the tightest pair first: every later cell stops before the stream's top
TIGHT_FIRST = ExperimentSpec("burgers", dict(nx=4, nt=4), theta_grid=(0.5, 0.0),
                             eps_grid=((1e-2, 1e-8), (1e-2, 1e-4), (1e-1, 1e-2)), max_iter=15)
# Newton diverges at the zero control: every cell fails at u0
ALL_FAIL_AT_U0 = ExperimentSpec("burgers", dict(nx=12, nt=1, nu=1e-4), theta_grid=(0.0, 1e-2),
                                eps_grid=((1e-2, 1e-4), (1e-2, 1e-6)))
# tolerance pairs that are not nested: some cells start their stream over
NOT_NESTED = ExperimentSpec("burgers", dict(nx=4, nt=2), theta_grid=(0.0, 0.01, 0.5),
                            eps_grid=((1e-2, 1e-6), (1e-2, 1e-3), (1e-3, 1e-8), (1e-1, 1e-4)))


@fast
@given(sweeps())
@example(spec=TIGHT_FIRST)
@example(spec=dataclasses.replace(TIGHT_FIRST, hessian_mode="zero"))
@example(spec=ALL_FAIL_AT_U0)
@example(spec=NOT_NESTED)
# past 32 nodes, beyond the drawn widths, Burgers solves c_y per time step
@example(spec=dataclasses.replace(NOT_NESTED, problem_params=dict(nx=40, nt=2)))
# every elliptic cell shares the problem's one linearization
@example(spec=dataclasses.replace(NOT_NESTED, problem="elliptic",
                                  problem_params=dict(N=6, z_choice="one")))
def test_a_sweep_equals_its_independent_cells(spec):
    check_sweep_equals_independent_cells(spec)


def counted_state_solves(spec):
    """(rows of the sweep, the state solves it ran)."""
    with mock.patch.object(BurgersProblem, "solve_state", autospec=True,
                           side_effect=BurgersProblem.solve_state) as state_solve:
        rows = run_experiment(spec)
    return rows, state_solve.call_count


def test_a_nested_sweep_runs_one_trajectory_per_theta():
    """Loosest pair first, each theta's stream runs once, to its tightest
    cell's stop, and a cell's wall_ms, the stream's elapsed time at its
    stop, grows with the stop; tightest first, every later cell starts its
    stream over. Every stream begins at the sweep's one start, so the state
    solve at u0 runs once in all: each stream after the first runs one
    state solve fewer than its cells count."""
    spec = dataclasses.replace(TIGHT_FIRST, eps_grid=TIGHT_FIRST.eps_grid[::-1])
    rows, solves = counted_state_solves(spec)
    per_theta = {}
    for row in rows:
        per_theta.setdefault(row.theta, []).append((row.pde_solves, row.wall_ms))
    for cells in per_theta.values():
        assert len({pde for pde, _ in cells}) == len(cells)  # distinct stops
        assert sorted(cells) == sorted(cells, key=lambda cell: cell[1])
    assert solves == sum(max(cells)[0] for cells in per_theta.values()) - (len(per_theta) - 1)
    _, restarted = counted_state_solves(TIGHT_FIRST)
    assert restarted == sum(row.pde_solves for row in rows) - (len(rows) - 1)


def test_a_sweep_takes_its_start_once(monkeypatch):
    """However many thetas it has, a sweep solves the state at u0 (its only
    solve without a guess), factors c_y there and estimates the curvature
    norm there once; its cells run alone do each once per cell."""
    spec = ExperimentSpec("burgers", dict(nx=8, nt=4, nu=0.01), theta_grid=(0.0, 1e-2, 0.5),
                          eps_grid=((1e-2, 1e-4), (1e-2, 1e-6)))
    cold = BurgersProblem(**spec.problem_params).solve_state(np.zeros(40))
    calls, at_u0 = dict.fromkeys(("state solves", "factor builds", "estimates"), 0), []
    solve_state, linearize, factor = (BurgersProblem.solve_state, BurgersProblem.linearize,
                                      BurgersProblem._factor)

    def counted_solve_state(self, u, start=None, counters=None):
        calls["state solves"] += start is None
        return solve_state(self, u, start, counters)

    def recorded_linearize(self, y, u):
        lin = linearize(self, y, u)
        if not u.any():
            at_u0.append(lin)
        return lin

    def counted_factor(self, yb):
        calls["factor builds"] += yb.tobytes() == cold.tobytes()
        return factor(self, yb)

    def counted_estimate(J, _original=solver_mod.estimate_operator_norm):
        calls["estimates"] += any(J.lin is lin for lin in at_u0)
        return _original(J)

    monkeypatch.setattr(BurgersProblem, "solve_state", counted_solve_state)
    monkeypatch.setattr(BurgersProblem, "linearize", recorded_linearize)
    monkeypatch.setattr(BurgersProblem, "_factor", counted_factor)
    monkeypatch.setattr(solver_mod, "estimate_operator_norm", counted_estimate)
    rows = run_experiment(spec)
    assert {row.status for row in rows} == {"converged_scaled_gradient"}
    assert calls == dict.fromkeys(calls, 1)
    problem = BurgersProblem(**spec.problem_params)
    for config in spec._cells().values():
        harness._run_cell(problem, "burgers", config, None)
    assert calls == dict.fromkeys(calls, 1 + len(rows))


@pytest.mark.parametrize("change", ["problem", "u0"])
def test_a_trajectory_refuses_another_problem_or_u0(change):
    problem = BurgersProblem(4, 2)
    config = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2, max_iter=5)
    trajectory = Trajectory()
    solve(problem, np.zeros(problem.n), config, trajectory=trajectory)
    other = ((BurgersProblem(4, 2), np.zeros(problem.n)) if change == "problem"
             else (problem, np.full(problem.n, 0.1)))
    with pytest.raises(ValueError, match="trajectory is bound"):
        solve(*other, config, trajectory=trajectory)
    # the pair it is bound to is still served, to another theta
    read = read_cell(problem, np.zeros(problem.n), dataclasses.replace(config, theta=0.5),
                     trajectory)
    assert read == read_cell(problem, np.zeros(problem.n), dataclasses.replace(config, theta=0.5))


@pytest.mark.parametrize("change", [{"theta": 0.5}, {"max_iter": 6}, {"gamma0": 2.0},
                                    {"hessian_mode": "zero"}], ids=lambda change: [*change][0])
def test_a_trajectory_keeps_one_stream_per_config(change):
    """Solves of two configs that differ in more than their tolerances,
    interleaved through one trajectory, each read what they read alone; the
    last loose solve starts its stream over."""
    problem = BurgersProblem(4, 2)
    u0 = np.zeros(problem.n)
    config = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2, max_iter=5)
    other = dataclasses.replace(config, **change)
    tight = {"eps_R": 1e-3, "eps_g": 1e-6}
    trajectory = Trajectory()
    for cell in (config, other, dataclasses.replace(config, **tight),
                 dataclasses.replace(other, **tight), config):
        assert read_cell(problem, u0, cell, trajectory) == read_cell(problem, u0, cell)
    assert len(trajectory._streams) == 2


# Burgers 8 x 4 at nu = 0.01 from the zero control accepts every step; its scaled
# gradient falls below 0.07 at the fourth top and below 0.06 at the sixth
FAILING_THETAS = (0.0, 0.5)
FAILING_PAIRS = ((1e-9, 1e-4), (1e-9, 0.06), (1e-9, 0.07), (1e-9, 0.05))
ACCEPTED = 7  # linearize raises at the 7th accepted point, before the 7th top


def failing_problem_class():
    """A Burgers problem whose ``linearize`` raises ``StateSolveError`` at the
    ``ACCEPTED``-th accepted point of every theta's run."""
    reference, fail_at = BurgersProblem(8, 4, nu=0.01), set()
    for theta in FAILING_THETAS:
        points = []
        linearize = reference.linearize
        with mock.patch.object(reference, "linearize",
                               lambda y, u: points.append(u.tobytes()) or linearize(y, u)):
            solve(reference, np.zeros(reference.n),
                  SolverConfig(theta=theta, eps_R=1e-12, eps_g=1e-12, max_iter=ACCEPTED + 1))
        fail_at.add(points[ACCEPTED])  # points[0] is u0

    class FailsPartWay(BurgersProblem):
        def linearize(self, y, u):
            if u.tobytes() in fail_at:
                raise StateSolveError(f"no linearization at accepted point {ACCEPTED}")
            return super().linearize(y, u)

    return FailsPartWay


def test_a_stream_that_fails_part_way(monkeypatch):
    """The cells that stop before the failure keep their rows; every other
    cell of the theta fails with the same exception, and its counters,
    records and trace file are those of its independent run. The order of
    the pairs also reads a stop at the top the stream failed after, and
    starts a failed stream over."""
    cls = failing_problem_class()
    monkeypatch.setitem(harness.PROBLEMS, "burgers", cls)
    spec = ExperimentSpec("burgers", dict(nx=8, nt=4, nu=0.01), theta_grid=FAILING_THETAS,
                          eps_grid=FAILING_PAIRS)
    rows = check_sweep_equals_independent_cells(spec)
    failed = [row for row in rows if row.status == "error"]
    assert [(row.eps_g, row.theta) for row in failed] == [
        (eps_g, theta) for _, eps_g in FAILING_PAIRS[::3] for theta in FAILING_THETAS]
    assert {(row.error_type, row.error_message) for row in failed} == {
        ("StateSolveError", f"no linearization at accepted point {ACCEPTED}")}
    assert {row.iterations for row in rows if row.status != "error"} == {4, 6}

    problem = cls(8, 4, nu=0.01)
    u0 = np.zeros(problem.n)
    for theta in FAILING_THETAS:
        trajectory = Trajectory()
        for eps_R, eps_g in FAILING_PAIRS:
            config = SolverConfig(theta=theta, eps_R=eps_R, eps_g=eps_g)
            assert read_cell(problem, u0, config, trajectory) == read_cell(problem, u0, config)


def read_cell(problem, u0, config, trajectory=None):
    """(status or exception, counters, records) of one solve."""
    counters, records = EvalCounters(), []
    try:
        end = solve(problem, u0, config, counters, records.append, trajectory).status
    except StateSolveError as exc:
        end = repr(exc)
    return end, counters, [record.to_dict() for record in records]
