"""Outer loop: stopping, ratio test, gamma dynamics, counter identities."""

import ctypes
import gc
import itertools
import weakref

import numpy as np
import pytest

import iclsq.solver as solver_mod
from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.core import EvalCounters
from iclsq.elliptic import EllipticProblem
from iclsq.solver import (
    SolveStatus,
    SolverConfig,
    Trajectory,
    default_gamma0,
    solve,
)
from iclsq.subproblem import StepResult

from conftest import ConstantResidualProblem, IdentityProblem, solve_traced


class TestDefaultGamma0:
    def test_all_zero(self):
        assert default_gamma0(np.zeros(3), np.zeros(3)) == 1.0

    def test_gradient_dominates(self):
        g = np.array([3.0, 4.0])
        assert default_gamma0(g, np.zeros(2)) == 5.0

    def test_control_dominates(self):
        assert default_gamma0(np.zeros(4), np.ones(4)) == 2.0


@pytest.mark.parametrize("shared", [False, True], ids=["solve", "trajectory"])
class TestStoppingCheck:
    """The stop rule at u0, seen through ``solve`` with no iteration allowed,
    run plainly and read off a ``Trajectory``: a top that converges at the
    budget reads converged, not ``budget_exhausted``."""

    @staticmethod
    def status(problem, u0, shared):
        config = SolverConfig(eps_R=1e-3, eps_g=1e-4, max_iter=0)
        trajectory = Trajectory() if shared else None
        return solve(problem, np.asarray(u0, dtype=float), config, trajectory=trajectory).status

    def test_zero_residual_wins(self, shared):
        # R = u0 = 0 and g = 0: the residual test comes first
        status = self.status(IdentityProblem(3), np.zeros(3), shared)
        assert status is SolveStatus.CONVERGED_RESIDUAL

    def test_zero_gradient(self, shared):
        status = self.status(ConstantResidualProblem(10.0 * np.ones(1)), np.ones(1), shared)
        assert status is SolveStatus.CONVERGED_SCALED_GRADIENT

    def test_residual_boundary_inclusive(self, shared):
        # ||R|| = eps_R, and the scaled gradient is 1, far from eps_g
        assert self.status(IdentityProblem(1), [1e-3], shared) is SolveStatus.CONVERGED_RESIDUAL

    def test_continue(self, shared):
        assert self.status(IdentityProblem(2), np.ones(2), shared) is SolveStatus.BUDGET_EXHAUSTED


class TestIdentityTrajectory:
    """Closed-form oracle: with the identity reduced map and Gauss-Newton
    curvature, each accepted iterate is u * gamma / (1 + gamma)."""

    def test_first_step_and_recurrence(self):
        dim = 4
        prob = IdentityProblem(dim)
        cfg = SolverConfig(eps_R=1e-8, eps_g=1e-12, theta=0.0, max_iter=100)
        out, trace = solve_traced(prob, np.ones(dim), cfg)
        assert out.status is SolveStatus.CONVERGED_RESIDUAL
        assert 0.5 * out.residual_norm**2 <= 0.5 * cfg.eps_R**2

        # replay the scalar recurrence
        gamma = default_gamma0(np.ones(dim), np.ones(dim))  # ||g0|| = 2, ||u||inf+1 = 2
        scale = 1.0
        gamma_min = cfg.gamma_min
        for rec in trace:
            np.testing.assert_allclose(rec.u, scale * np.ones(dim), rtol=1e-10)
            assert rec.success  # exactly quadratic, every step accepted
            scale *= gamma / (1.0 + gamma)
            gamma = max(0.5 * gamma, gamma_min)
        first = trace[0]
        expected_first_step = -1.0 / (1.0 + first.gamma) * np.sqrt(dim)
        assert first.step_norm == pytest.approx(abs(expected_first_step), rel=1e-10)

    def test_monotone_objective(self):
        prob = IdentityProblem(3)
        _, trace = solve_traced(prob, np.full(3, 2.0), SolverConfig(eps_R=1e-6, eps_g=1e-12))
        values = [t.residual_norm for t in trace]
        assert all(b <= a * (1 + 1e-14) for a, b in zip(values, values[1:]))


class TestZeroGradientStart:
    def test_immediate_scaled_gradient_stop(self):
        prob = ConstantResidualProblem([3.0, 4.0, 0.0])
        out = solve(prob, np.zeros(3), SolverConfig(eps_R=1e-3, eps_g=1e-4))
        assert out.status is SolveStatus.CONVERGED_SCALED_GRADIENT
        assert out.iterations == 0
        assert out.counters.forward_solves == 1


class TestDynamicsInvariants:
    @pytest.mark.parametrize("mode,theta", [
        ("gauss_newton", 0.0),
        ("gauss_newton", 1e-2),
        ("gauss_newton", 0.5),
        ("zero", 0.0),
        ("zero", 1e-1),
    ])
    def test_trace_invariants_elliptic(self, mode, theta):
        prob = EllipticProblem(6, z_choice="one")
        cfg = SolverConfig(
            eps_R=1e-2, eps_g=1e-4, theta=theta, hessian_mode=mode, max_iter=300
        )
        check_dynamics(*solve_traced(prob, np.ones(prob.n), cfg), cfg)

    def test_trace_invariants_burgers(self):
        prob = BurgersProblem(6, 6, nu=0.1)
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2)
        check_dynamics(*solve_traced(prob, np.zeros(prob.n), cfg), cfg)

    def test_adjoint_solve_identity_zero_mode(self):
        prob = EllipticProblem(6, z_choice="one")
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=0.0, hessian_mode="zero")
        out = solve(prob, np.ones(prob.n), cfg)
        assert out.counters.adjoint_solves == 1 + out.successes
        assert out.counters.jacobian_applies == 1 + out.successes
        assert out.counters.linearized_solves == 0

    def test_counter_decomposition_gauss_newton(self):
        # gradients cost one transpose each; every inner iteration costs one
        # forward and one transpose application
        prob = EllipticProblem(6, z_choice="one")
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2)
        out, trace = solve_traced(prob, np.ones(prob.n), cfg)
        c = out.counters
        assert c.adjoint_solves == 1 + out.successes + c.cg_iterations
        assert c.linearized_solves == c.cg_iterations
        assert c.jacobian_applies == 1 + out.successes + 2 * c.cg_iterations
        assert c.cg_iterations == sum(t.cg_iters for t in trace)

    def test_unsuccessful_streak_bounded(self):
        prob = BurgersProblem(6, 6, nu=0.05)
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-5, theta=0.5)
        _, trace = solve_traced(prob, np.zeros(prob.n), cfg)
        streak = longest = 0
        for t in trace:
            streak = 0 if t.success else streak + 1
            longest = max(longest, streak)
        assert longest <= 60


def check_dynamics(out, trace, cfg):
    assert out.counters.forward_solves == out.iterations + 1
    # objective never increases; iterates move only on success
    values = [t.residual_norm for t in trace] + [out.residual_norm]
    for a, b in zip(values, values[1:]):
        assert b <= a * (1 + 1e-13)
    for prev, cur in zip(trace, trace[1:]):
        if prev.success:
            assert cur.gamma == max(0.5 * prev.gamma, cfg.gamma_min)
        else:
            assert cur.gamma == 2.0 * prev.gamma
            assert cur.residual_norm == prev.residual_norm
    for t in trace:
        assert t.gamma >= cfg.gamma_min
        if t.rho is not None:
            assert t.success == (t.rho >= cfg.eta)
            if t.success:
                assert t.actual_decrease >= cfg.eta * t.model_decrease * (1 - 1e-12)
        else:
            assert not t.success


class TestTraceSink:
    def test_sink_writing_to_records_leaves_run_unchanged(self):
        # after a rejection the run steps again from the recorded iterate
        prob = BurgersProblem(8, 8, nu=0.01)
        cfg = SolverConfig(theta=0.5, hessian_mode="zero", max_iter=30)
        plain = solve(prob, np.zeros(prob.n), cfg)

        def scribble(rec):
            rec.u[:] = np.nan

        out = solve(prob, np.zeros(prob.n), cfg, trace_sink=scribble)
        assert out.status is plain.status and out.iterations == plain.iterations
        assert out.successes == plain.successes < out.iterations
        assert out.counters.snapshot() == plain.counters.snapshot()
        assert out.u.tobytes() == plain.u.tobytes()

    def test_sink_writing_to_records_leaves_later_cells_unchanged(self):
        # each solve read off a trajectory gets its own copy of every record
        prob = BurgersProblem(8, 8, nu=0.01)
        loose = SolverConfig(theta=0.5, hessian_mode="zero", eps_g=1e-2)
        tight = SolverConfig(theta=0.5, hessian_mode="zero", eps_g=1e-4)

        def scribble(rec):
            rec.u[:] = np.nan
            rec.counters["forward_solves"] = -1

        trajectory = Trajectory()
        first = solve(prob, np.zeros(prob.n), loose, trace_sink=scribble, trajectory=trajectory)
        shared = []
        solve(prob, np.zeros(prob.n), tight, trace_sink=shared.append, trajectory=trajectory)
        _, alone = solve_traced(prob, np.zeros(prob.n), tight)
        assert 0 < first.iterations < len(alone)
        assert [r.to_dict() for r in shared] == [r.to_dict() for r in alone]
        assert [r.u.tobytes() for r in shared] == [r.u.tobytes() for r in alone]

    def test_a_trajectory_adds_to_the_callers_counters(self):
        # as a plain solve does; each replayed record counts the caller's earlier counts too
        prob = BurgersProblem(8, 4, nu=0.01)
        cfg = SolverConfig(theta=0.5, eps_g=1e-3)

        def twice(trajectory):
            counters, records = EvalCounters(), []
            for _ in range(2):
                solve(prob, np.zeros(prob.n), cfg, counters, records.append, trajectory)
            return counters, [r.to_dict() for r in records]

        counters, records = twice(None)
        assert (counters, records) == twice(Trajectory())
        first_run = counters.forward_solves // 2
        assert records[len(records) // 2]["counters"]["forward_solves"] == first_run + 2

    def test_a_plain_solve_frees_its_start_after_the_first_step(self, monkeypatch):
        # the start's vectors and linearization at u0 are not held to the end of
        # the run: no record is built while it lives, without the cycle collector
        refs = []

        class Watched(Trajectory):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        monkeypatch.setattr(solver_mod, "Trajectory", Watched)
        prob = BurgersProblem(8, 4, nu=0.01)
        alive = []
        gc.disable()
        try:
            solve(prob, np.zeros(prob.n), SolverConfig(theta=0.5, eps_g=1e-3),
                  trace_sink=lambda record: alive.append(refs[0]() is not None))
        finally:
            gc.enable()
        assert len(refs) == 1 and len(alive) > 1 and not any(alive)

    @pytest.mark.parametrize("max_iter,status", [
        (300, SolveStatus.CONVERGED_SCALED_GRADIENT),
        (30, SolveStatus.BUDGET_EXHAUSTED),
        (0, SolveStatus.BUDGET_EXHAUSTED),
    ])
    def test_counts_match_records(self, max_iter, status):
        # zero curvature rejects about every other step on this problem
        prob = BurgersProblem(8, 8, nu=0.01)
        cfg = SolverConfig(theta=0.5, hessian_mode="zero", max_iter=max_iter)
        out, trace = solve_traced(prob, np.zeros(prob.n), cfg)
        assert out.status is status
        assert out.iterations == 0 or 0 < out.successes < out.iterations
        assert out.iterations == len(trace)
        assert out.successes == sum(t.success for t in trace)
        assert [t.k for t in trace] == list(range(len(trace)))


class TestNormEstimates:
    def test_linear_problem_is_estimated_once(self):
        # one cold estimate of 6 products for the run's 23 accepted steps
        prob = EllipticProblem(8)
        out, trace = solve_traced(prob, np.ones(prob.n), SolverConfig(theta=0.5))
        assert out.status is SolveStatus.CONVERGED_RESIDUAL and out.successes == 23
        assert out.counters.norm_probe_applies == 12
        assert len({t.h_norm_estimate for t in trace}) == 1

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_an_underestimate_is_raised_and_recorded(self, monkeypatch, theta):
        # Every estimate reads a tenth of the true bound: CGLS sees past it,
        # raises it, and the run keeps the raised bound and re-estimates at
        # the next linearization.
        estimate = solver_mod.estimate_operator_norm
        monkeypatch.setattr(solver_mod, "estimate_operator_norm", lambda J: 0.1 * estimate(J))
        prob = BurgersProblem(8, 8, nu=0.01)
        out, trace = solve_traced(prob, np.zeros(prob.n), SolverConfig(theta=theta))
        assert out.counters.curvature_raises > 0 and out.counters.norm_estimates > 1
        before = 0
        for t in trace:
            # a raised step ends at 1.5 times the quotient that passed its bound
            raised = t.counters["curvature_raises"] - before
            assert raised == (t.h_norm_estimate == 1.5 * t.curvature_seen)
            assert t.h_norm_estimate >= t.curvature_seen > 0.0
            before = t.counters["curvature_raises"]
        assert before == out.counters.curvature_raises


class TestBudget:
    def test_budget_exhausted(self):
        prob = EllipticProblem(5, z_choice="one")
        out = solve(prob, np.ones(prob.n), SolverConfig(eps_R=1e-12, eps_g=1e-12, max_iter=3))
        assert out.status is SolveStatus.BUDGET_EXHAUSTED
        assert out.iterations == 3
        assert out.counters.forward_solves == 4

    def test_zero_budget_checks_stopping(self):
        prob = ConstantResidualProblem([5.0])
        out = solve(prob, np.zeros(1), SolverConfig(eps_R=1e-3, eps_g=1e-4, max_iter=0))
        assert out.status is SolveStatus.CONVERGED_SCALED_GRADIENT
        assert out.iterations == 0


class TestDegeneratePrediction:
    def test_zero_predicted_decrease_treated_as_rejection(self, monkeypatch):
        prob = EllipticProblem(4, z_choice="one")
        calls = {"count": 0}

        def fake_step(g, gamma, theta, h_norm, J=None, R=None):
            calls["count"] += 1
            return StepResult(
                step=np.zeros(g.shape[0]),
                model_decrease=0.0,
                residual_norm=np.linalg.norm(g),
                cg_iters=1,
                cg_tolerance=0.0,
                h_norm=h_norm,
                curvature_seen=0.0,
            )

        monkeypatch.setattr(solver_mod, "truncated_cg_step", fake_step)
        cfg = SolverConfig(eps_R=1e-8, eps_g=1e-8, theta=0.1, max_iter=4)
        out, trace = solve_traced(prob, np.ones(prob.n), cfg)
        assert calls["count"] == 4
        assert out.status is SolveStatus.BUDGET_EXHAUSTED
        assert out.successes == 0
        gammas = [t.gamma for t in trace]
        for a, b in zip(gammas, gammas[1:]):
            assert b == 2.0 * a
        assert all(t.rho is None and t.note for t in trace)


def record_calls(monkeypatch):
    """Spy on the solver's step kernels and norm estimator, in call order:
    (name, linearization, bound the call was given, result)."""
    events = []
    for name in ("exact_step", "truncated_cg_step", "estimate_operator_norm"):

        def spy(*args, _name=name, _original=getattr(solver_mod, name)):
            result = _original(*args)
            jac = next((a for a in args if isinstance(a, ReducedJacobian)), None)
            h_norm = args[3 if _name == "truncated_cg_step" else 2] if len(args) > 2 else None
            events.append((_name, None if jac is None else jac.lin, h_norm, result))
            return result

        monkeypatch.setattr(solver_mod, name, spy)
    return events


def check_estimate_rule(events):
    """Check the curvature-bound rule along a Gauss-Newton run and return
    (estimates, triggering steps). The first step comes after an estimate.
    Each step starts from the last estimate or the bound the step before it
    ended with. A step triggers when its curvature_seen passes its bound over
    the 1.5 safety factor; the bound is then re-estimated at the next
    linearization the run steps from, and never otherwise."""
    bound = spent = None
    estimates = triggers = 0
    for name, lin, h_norm, result in events:
        if name == "estimate_operator_norm":
            assert bound is None or (spent is not None and lin is not spent)
            bound, spent = result, None
            estimates += 1
            continue
        assert h_norm == bound
        assert spent is None or lin is spent, "a spent bound reached a new linearization"
        if result.curvature_seen > h_norm / 1.5:
            spent = lin
            triggers += 1
        assert result.h_norm >= h_norm
        bound = result.h_norm
    return estimates, triggers


class TestStepRouting:
    """The solver calls the step kernel and the norm estimator through its
    module globals, where a per-layer tracer can wrap them: one step per
    iteration, exact_step at theta = 0 and truncated_cg_step otherwise, and
    with Gauss-Newton curvature one estimate at the first point, then one at
    each linearization the loop steps from after a step that spent the
    bound's safety margin. The linear elliptic problem has one linearization,
    so one estimate for the run."""

    @pytest.mark.parametrize("mode", ["zero", "gauss_newton"])
    @pytest.mark.parametrize("theta", [0.0, 1e-2])
    def test_calls_per_iteration(self, monkeypatch, mode, theta):
        events = record_calls(monkeypatch)
        # rejections (failed Newton solves at trial controls) and a budget
        # that ends at an accepted point, where no step is computed
        prob = BurgersProblem(32, 16, nu=1e-4)
        out = solve(
            prob, np.zeros(prob.n), SolverConfig(theta=theta, hessian_mode=mode, max_iter=40)
        )
        assert 0 < out.successes < out.iterations == 40
        calls = {name: sum(e[0] == name for e in events) for name in
                 ("exact_step", "truncated_cg_step", "estimate_operator_norm")}
        exact = theta == 0.0
        assert calls["exact_step"] == (out.iterations if exact else 0)
        assert calls["truncated_cg_step"] == (0 if exact else out.iterations)
        if mode == "zero":
            assert calls["estimate_operator_norm"] == 0
            return
        # one estimate, then one per linearization after a triggering step:
        # this run spends the margin and re-estimates
        estimates, triggers = check_estimate_rule(events)
        assert calls["estimate_operator_norm"] == estimates
        assert out.counters.norm_estimates == estimates
        assert 1 < estimates <= 1 + triggers

    @pytest.mark.parametrize("name", ["burgers", "elliptic"])
    def test_one_estimate_per_linearization(self, monkeypatch, name):
        # Burgers builds a Linearization at every accepted point, elliptic
        # returns its one Linearization at every point. No step of these
        # runs spends the bound's margin, so the first estimate serves all.
        # Burgers runs at theta = 1e-2, where curvature_seen reaches at most
        # 0.76 of the trigger (bound / 1.5) under every OpenBLAS kernel tried;
        # at theta = 0 one step reached 1.03 of it under Haswell and Zen.
        events = record_calls(monkeypatch)
        if name == "burgers":
            prob = BurgersProblem(8, 8, nu=0.01)
            u0, theta, kernel = np.zeros(prob.n), 1e-2, "truncated_cg_step"
        else:
            prob = EllipticProblem(10, z_choice="one")
            u0, theta, kernel = np.ones(prob.n), 0.0, "exact_step"
        out = solve(prob, u0, SolverConfig(theta=theta))
        assert out.successes > 1
        stepped = [lin for step, lin, _, _ in events if step == kernel]
        distinct = [lin for k, lin in enumerate(stepped) if k == 0 or lin is not stepped[k - 1]]
        assert len(distinct) == (out.successes if name == "burgers" else 1)
        estimated = [lin for step, lin, _, _ in events if step == "estimate_operator_norm"]
        assert estimated == distinct[:1]
        assert check_estimate_rule(events) == (1, 0)
        assert out.counters.norm_estimates == 1


class NonFiniteTrialProblem(IdentityProblem):
    """Finite residual at the start only; every trial point gives NaN."""

    def __init__(self, dim=3):
        super().__init__(dim)
        self.start = None

    def residual(self, y, u):
        if self.start is None:
            self.start = np.array(u, dtype=float)
        if np.array_equal(u, self.start):
            return super().residual(y, u)
        return np.full(self.m, np.nan)


class NaNResidualEllipticProblem(EllipticProblem):
    """Elliptic tracking problem whose residual has a NaN in entry 0."""

    def residual(self, y, u):
        r = super().residual(y, u)
        r[0] = np.nan
        return r


class TestFailurePropagation:
    def test_state_solve_error_escapes_solver(self):
        # the failed solve at u0 is counted, as a failed trial solve is
        from iclsq.core import EvalCounters, StateSolveError

        prob = BurgersProblem(4, 4, newton_max_iter=1)
        counters = EvalCounters()
        with pytest.raises(StateSolveError):
            solve(prob, np.zeros(prob.n), SolverConfig(eps_R=1e-10, eps_g=1e-10), counters)
        assert counters.forward_solves == 1

    def test_nonfinite_residual_at_u0_is_hard_error(self):
        # Without the check the NaN gradient spins the run until the budget
        # ends (50 iterations, thousands of Jacobian applies, huge gamma).
        from iclsq.core import EvalCounters

        prob = NaNResidualEllipticProblem(6, z_choice="one")
        counters = EvalCounters()
        with pytest.raises(ValueError, match="residual at u0 is not finite"):
            solve(prob, np.ones(prob.n), SolverConfig(theta=1e-2, max_iter=50), counters)
        assert counters.forward_solves == 1
        assert counters.adjoint_solves == 0 and counters.jacobian_applies == 0

    @pytest.mark.parametrize("gamma0", [None, 1.0], ids=["default-gamma0", "given-gamma0"])
    def test_overflowing_first_gradient_is_named_error(self, gamma0):
        # The gradient's entries are finite but its norm is not. Before the
        # check, default_gamma0 (or with gamma0 given, the stopping test) died
        # on a bare RuntimeWarning from that norm.
        from iclsq.core import EvalCounters

        prob = EllipticProblem(4, lam=1e300)
        counters = EvalCounters()
        with pytest.raises(FloatingPointError, match="gradient at u0 overflowed"):
            solve(prob, np.ones(prob.n), SolverConfig(gamma0=gamma0), counters)
        assert counters.forward_solves == 1 and counters.adjoint_solves == 1
        assert counters.norm_probe_applies == 0

    def test_failed_trial_solve_is_rejected_iteration(self):
        # Newton fails at trial controls once gamma is small; the run must
        # keep its accepted iterates and go on.
        prob = BurgersProblem(32, 16, nu=1e-4)
        out, trace = solve_traced(prob, np.zeros(prob.n), SolverConfig(theta=1e-2, max_iter=40))
        failed = [t for t in trace if "StateSolveError" in t.note]
        assert out.status is SolveStatus.BUDGET_EXHAUSTED
        assert out.iterations == 40
        assert len(failed) == out.counters.failed_trial_solves > 0
        assert out.counters.forward_solves == out.iterations + 1
        for t in failed:
            assert not t.success and t.rho is None and t.actual_decrease is None
            assert "iteration rejected" in t.note
            if t.k + 1 < out.iterations:
                assert trace[t.k + 1].gamma == 2.0 * t.gamma
        assert np.all(np.isfinite(out.residual)) and np.all(np.isfinite(out.u))

    def test_overflowing_trial_state_is_rejected_iteration(self):
        # A step of about 1e120 overflows the Newton march at every trial
        # control; it fails at once and silently, under filterwarnings=error.
        prob = BurgersProblem(8, 4, nu=0.1)
        cfg = SolverConfig(gamma0=1e-120, gamma_min=1e-130, hessian_mode="zero", max_iter=5)
        out, trace = solve_traced(prob, np.zeros(prob.n), cfg)
        assert out.status is SolveStatus.BUDGET_EXHAUSTED
        assert out.counters.failed_trial_solves == 5 and out.successes == 0
        assert all("StateSolveError" in t.note for t in trace)

    def test_nonfinite_trial_residual_is_rejected_iteration(self):
        prob = NonFiniteTrialProblem()
        cfg = SolverConfig(eps_R=1e-12, eps_g=1e-12, max_iter=5)
        out, trace = solve_traced(prob, np.ones(prob.n), cfg)
        assert out.status is SolveStatus.BUDGET_EXHAUSTED
        assert out.successes == 0
        assert out.counters.failed_trial_solves == 5
        assert out.counters.forward_solves == 6
        np.testing.assert_array_equal(out.u, np.ones(prob.n))
        gammas = [t.gamma for t in trace]
        for a, b in zip(gammas, gammas[1:]):
            assert b == 2.0 * a
        assert all(t.rho is None and "not finite" in t.note for t in trace)


class TestTrialStarts:
    # Burgers 8 x 8 at nu = 0.01 from zero: zero curvature rejects 48 of its
    # 104 iterations and Gauss-Newton none of its 15. Each run stops at the
    # loop top after its last success, so it steps from `successes` iterates.
    @pytest.mark.parametrize("mode,theta", [("zero", 0.0), ("gauss_newton", 1e-2)])
    def test_starts_cut_newton_iterations_and_keep_the_run(self, monkeypatch, mode, theta):
        prob = BurgersProblem(8, 8, nu=0.01)
        config = SolverConfig(theta=theta, hessian_mode=mode)
        started = solve(prob, np.zeros(prob.n), config)
        solve_state = prob.solve_state
        monkeypatch.setattr(
            prob, "solve_state", lambda u, start=None, counters=None: solve_state(u, counters=counters)
        )
        cold = solve(prob, np.zeros(prob.n), config)

        def paper_counts(out):
            snapshot = out.counters.snapshot()
            del snapshot["newton_iters"], snapshot["trajectory_newton_iters"]
            del snapshot["predictor_solves"]
            return out.status, out.iterations, out.successes, snapshot

        assert paper_counts(started) == paper_counts(cold)
        # states agree to newton_tol, and the truncated steps follow them
        assert np.linalg.norm(started.u - cold.u) <= 1e-8 * np.linalg.norm(cold.u)
        # one prediction per iterate stepped from; every retry takes the secant
        assert started.counters.predictor_solves == started.successes
        assert cold.counters.predictor_solves == 0
        # on this narrow grid a started solve runs Newton on the whole
        # trajectory, and only the solve at u0 marches
        assert cold.counters.trajectory_newton_iters == 0
        newton = started.counters.newton_iters + started.counters.trajectory_newton_iters
        assert newton <= 0.7 * cold.counters.newton_iters


class TestConcurrentRuns:
    @pytest.mark.parametrize(
        "make_problem",
        [lambda: BurgersProblem(6, 6, nu=0.1), lambda: EllipticProblem(10, z_choice="one")],
        ids=["burgers", "elliptic"],
    )
    def test_shared_problem_instance_gives_sequential_results(self, make_problem):
        # Problems are pure evaluators; two solver runs sharing one instance
        # must produce the same outcomes as running them alone.
        import threading

        prob = make_problem()
        configs = [
            SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=0.0),
            SolverConfig(eps_R=1e-2, eps_g=1e-5, theta=1e-1),
        ]
        expected = [solve(prob, np.zeros(prob.n), cfg) for cfg in configs]
        results = [None, None]

        def run(i):
            results[i] = solve(prob, np.zeros(prob.n), configs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            assert got.status == want.status
            assert got.iterations == want.iterations
            assert got.counters.snapshot() == want.counters.snapshot()
            np.testing.assert_array_equal(got.u, want.u)


class TestConfigValidation:
    def test_bad_eta(self):
        with pytest.raises(ValueError):
            SolverConfig(eta=0.0)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            SolverConfig(theta=1.0)

    def test_gamma_min_above_gamma0(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma0=1e-12, gamma_min=1e-10)
        # the default gamma0 here is max{1, ||g0||, ||u0||_inf + 1} = 5
        with pytest.raises(ValueError, match="exceeds the initial gamma 5.0"):
            solve(IdentityProblem(2), np.array([3.0, 4.0]), SolverConfig(gamma_min=10.0))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SolverConfig(hessian_mode="newton")

    @pytest.mark.parametrize("field", ["gamma0", "gamma_min", "eps_R", "eps_g", "eta", "theta"])
    # True, a bool and not a number, used to run as 1; "0.5" used to escape
    # a range check of eta or theta as an unnamed TypeError
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.5"])
    def test_rejects_bad_setting(self, field, value):
        # A NaN would otherwise pass every comparison check and silently
        # disable the floor, a stopping test or the gamma dynamics.
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
    def test_non_integer_max_iter_rejected(self, max_iter):
        # 2.5 used to pass and then fail inside range() with a TypeError
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        out = solve(IdentityProblem(2), np.array([3.0, 4.0]), SolverConfig(max_iter=np.int64(2)))
        assert out.iterations == 2

    def test_nonfinite_start_rejected(self):
        prob = IdentityProblem(2)
        with pytest.raises(ValueError):
            solve(prob, np.array([np.nan, 0.0]), SolverConfig())


def openblas_cores() -> set:
    """The core names of the loaded OpenBLAS libraries (numpy's and scipy's),
    read from their ``corename`` functions; empty without ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return set()
    cores = set()
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                cores.add(corename().decode())
                break
    return cores


class TestPinnedCounters:
    # Counts recorded before the curvature-norm estimator was warm-started
    # (Gauss-Newton rows) and before zero curvature took its closed-form step
    # (zero rows); any drift in step computation (tolerances, Krylov counts,
    # accepted steps) changes at least one of them.
    # The Burgers theta = 0 row runs CGLS to about 1e-12, so it follows the
    # rounding of the state and linearized solves: moving the Newton loop and
    # the block sweeps onto 3-point stencils moved its adjoint/jvp/cg counts
    # from 232/448/216 to 230/444/214 (the new Newton loop alone gives
    # 231/446/215, the new sweeps alone 233/450/217). Every other row held.
    # Keeping the first bound across linearizations, rather than estimating
    # at each one, moved the Burgers theta = 0.5 row from 52/88/36 to
    # 51/86/35; every other row held.
    # Starting each trial state solve from a predicted state, which moves the
    # states within newton_tol, moved the Burgers theta = 0 row from
    # 230/444/214 to 231/446/215; every other row held.
    # Solving c_y at nx <= 32 with one band LU of c_y^T in place of the
    # per-step tridiagonal sweeps, which rounds the linearized solves
    # differently, moved the Burgers theta = 0 row from 231/446/215 to
    # 232/448/216; every other row held.
    # Forming the trajectory Newton's residuals with a sparse product in place
    # of a dense one, which rounds them differently, moved the Burgers
    # theta = 0 row from 232/448/216 to 231/446/215; every other row held.
    # Forming every Newton residual, per step and on the whole trajectory,
    # with 3-point correlations over zero-padded rows in place of the march's
    # unpadded convolutions and the sparse product moved the Burgers
    # theta = 0 row from 231/446/215 to 232/448/216; every other row held.
    # Solving c_y at nx <= 32, when the band LU swapped no row, with two
    # transposed dtbsv calls in place of dgbtrs's transposed solve, which
    # rounds the linearized solves differently, moved the Burgers theta = 0
    # row from 232/448/216 to 233/450/217; every other row held. The row now
    # reads the same under OpenBLAS's SkylakeX, Haswell, Zen and Sandybridge
    # kernels, and 230/444/214 under Prescott.
    # Solving K by a sine transform along one axis and tridiagonal row solves,
    # in place of the 2-D transform pair, which rounds the elliptic solves
    # differently, moved the elliptic theta = 0 row under the AVX-512 kernels
    # (SkylakeX, Cooperlake, SapphireRapids) from 132/243/111 to 131/241/110;
    # under Haswell, Zen, Sandybridge and Prescott it reads 132/243/111, where
    # Prescott read 131/241/110 before. Every other row held.
    # The two theta = 0 Gauss-Newton rows run CGLS to about 1e-12, so they
    # follow the BLAS kernel's last bits: under the kernels of a KERNEL_PINS
    # entry (read from OpenBLAS's core names; OPENBLAS_CORETYPE=Prescott loads
    # the table OpenBLAS names Katmai) they read its row. Every other row reads
    # the same under every kernel.
    CASES = [
        ("burgers", "gauss_newton", 0.0, (15, 16, 233, 450, 217)),
        ("burgers", "gauss_newton", 1e-2, (15, 16, 81, 146, 65)),
        ("burgers", "gauss_newton", 0.5, (15, 16, 51, 86, 35)),
        ("elliptic", "gauss_newton", 0.0, (20, 21, 132, 243, 111)),
        ("elliptic", "gauss_newton", 1e-2, (20, 21, 50, 79, 29)),
        ("elliptic", "gauss_newton", 0.5, (20, 21, 43, 65, 22)),
        ("burgers", "zero", 0.0, (104, 105, 57, 57, 104)),
        ("burgers", "zero", 0.5, (104, 105, 57, 57, 104)),
        ("elliptic", "zero", 0.0, (23, 24, 21, 21, 23)),
        ("elliptic", "zero", 0.5, (23, 24, 21, 21, 23)),
    ]
    KERNEL_PINS = {
        ("burgers", 0.0): ({"Prescott", "Katmai"}, (15, 16, 230, 444, 214)),
        ("elliptic", 0.0): ({"SkylakeX", "Cooperlake", "SapphireRapids"}, (20, 21, 131, 241, 110)),
    }
    # The Gauss-Newton rows keep the ids they had before the zero rows came.
    IDS = [
        f"{name}-{theta}-expected{i}" if mode == "gauss_newton" else f"{name}-{mode}-{theta}"
        for i, (name, mode, theta, _) in enumerate(CASES)
    ]

    @pytest.mark.parametrize("name,mode,theta,expected", CASES, ids=IDS)
    def test_counts_are_pinned(self, name, mode, theta, expected):
        if name == "burgers":
            prob = BurgersProblem(8, 8, nu=0.01)
            u0 = np.zeros(prob.n)
        else:
            prob = EllipticProblem(10, z_choice="one")
            u0 = np.ones(prob.n)
        cores, pinned = self.KERNEL_PINS.get((name, theta), (set(), None))
        if mode == "gauss_newton" and openblas_cores() & cores:
            expected = pinned
        out = solve(prob, u0, SolverConfig(theta=theta, hessian_mode=mode))
        c = out.counters
        got = (
            out.iterations,
            c.forward_solves,
            c.adjoint_solves,
            c.jacobian_applies,
            c.cg_iterations,
        )
        assert got == expected
