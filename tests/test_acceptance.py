"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from iclsq.adjoint import ReducedJacobian
from iclsq.burgers import BurgersProblem
from iclsq.elliptic import EllipticProblem
from iclsq.harness import (
    DEFAULT_THETA_GRID,
    ExperimentSpec,
    run_experiment,
)
from iclsq.solver import SolveStatus, SolverConfig, solve
from iclsq.subproblem import exact_step

from conftest import (
    dense_jacobian_oracle,
    factor_spec,
    fd_gradient_oracle,
    interior_stiffness,
    random_factor,
    tridiag_dense,
)


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
        )
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def adjoint_gradient(problem, u):
    y = problem.solve_state(u)
    jac = ReducedJacobian(problem, problem.linearize(y, u))
    return jac.apply_transpose(problem.residual(y, u))


def test_criterion_1_gradient_correctness():
    with criterion(1, "adjoint gradient matches central differences", 10.0):
        elliptic = EllipticProblem(5, z_choice="one")
        u = np.zeros(elliptic.n)
        g = adjoint_gradient(elliptic, u)
        g_fd = fd_gradient_oracle(elliptic, u, step=1e-6)
        rel = np.linalg.norm(g - g_fd) / (1 + np.linalg.norm(g_fd))
        assert rel <= 1e-5, f"elliptic gradient error {rel:.2e}"

        rng = np.random.default_rng(7)
        burgers = BurgersProblem(8, 8, nu=0.1)
        u = 0.5 * rng.standard_normal(burgers.n)
        g = adjoint_gradient(burgers, u)
        g_fd = fd_gradient_oracle(burgers, u, step=1e-6)
        rel = np.linalg.norm(g - g_fd) / (1 + np.linalg.norm(g_fd))
        assert rel <= 1e-4, f"burgers gradient error {rel:.2e}"


def test_criterion_2_adjoint_identity():
    with criterion(2, "adjoint identity on 20 random probes per problem", 5.0):
        rng = np.random.default_rng(11)
        problems = [EllipticProblem(5, z_choice="one"), BurgersProblem(6, 6, nu=0.1)]
        for prob in problems:
            u = 0.3 * rng.standard_normal(prob.n)
            y = prob.solve_state(u)
            jac = ReducedJacobian(prob, prob.linearize(y, u))
            for _ in range(20):
                v = rng.standard_normal(prob.n)
                w = rng.standard_normal(prob.m)
                lhs = float(jac.apply(v) @ w)
                rhs = float(v @ jac.apply_transpose(w))
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


_DESK_CACHE: list = []


def desk_runs():
    """Desk-scale runs across the full theta grid used by criteria 3 and 4."""
    if _DESK_CACHE:
        return _DESK_CACHE
    for build, u0_kind, eps in [
        (lambda: EllipticProblem(6, z_choice="one"), "ones", (1e-2, 1e-4)),
        (lambda: BurgersProblem(6, 6, nu=0.1), "zeros", (1e-2, 1e-4)),
    ]:
        prob = build()
        u0 = np.ones(prob.n) if u0_kind == "ones" else np.zeros(prob.n)
        for theta in DEFAULT_THETA_GRID:
            cfg = SolverConfig(
                eps_R=eps[0], eps_g=eps[1], theta=theta, record_iterates=True
            )
            _DESK_CACHE.append((prob, theta, cfg, solve(prob, u0, cfg)))
    return _DESK_CACHE


def test_criterion_3_step_certificates():
    with criterion(3, "decrease, step-norm, exit-residual, CG-count certificates", 60.0):
        checked = 0
        for prob, theta, cfg, out in desk_runs():
            assert out.status in (
                SolveStatus.CONVERGED_RESIDUAL,
                SolveStatus.CONVERGED_SCALED_GRADIENT,
            )
            for t in out.trace:
                dense = dense_jacobian_oracle(prob, t.u)
                h_norm = float(np.linalg.norm(dense, 2)) ** 2
                gamma, gn = t.gamma, t.grad_norm
                if theta == 0.0:
                    dec_bound = 0.5 * gn**2 / (h_norm + gamma)
                else:
                    dec_bound = 0.5 * (1 - theta**2) * gn**2 / (h_norm + gamma)
                assert t.model_decrease >= dec_bound * (1 - 1e-9) - 1e-12, (
                    f"decrease bound violated at theta={theta}, k={t.k}"
                )
                assert t.step_norm <= (1 + theta) * gn / gamma + 1e-12, (
                    f"step-norm bound violated at theta={theta}, k={t.k}"
                )
                if theta > 0.0:
                    tol = theta * math.sqrt(gamma / (h_norm + gamma)) * gn
                    assert t.step_residual_norm <= tol * (1 + 1e-6) + 1e-14 * gn, (
                        f"exit residual above tolerance at theta={theta}, k={t.k}"
                    )
                    kappa = (h_norm + gamma) / gamma
                    bound = min(
                        prob.n,
                        math.ceil(0.5 * math.sqrt(kappa) * math.log(2 * kappa / theta)),
                    )
                    assert t.cg_iters <= bound, (
                        f"CG count {t.cg_iters} above bound {bound} "
                        f"at theta={theta}, k={t.k}"
                    )
                checked += 1
        assert checked > 0


def test_norm_estimates_bound_curvature_along_desk_runs():
    # Warm-started estimates must keep the cold estimate's guarantee at every
    # base point: at least ||J||^2, at most the 1.5 safety factor above it.
    checked = 0
    for prob, theta, cfg, out in desk_runs():
        for t in out.trace:
            dense = dense_jacobian_oracle(prob, t.u)
            h_norm = float(np.linalg.norm(dense, 2)) ** 2
            assert h_norm <= t.h_norm_estimate <= 1.5 * h_norm * (1 + 1e-9), (
                f"estimate {t.h_norm_estimate:.6e} against ||J||^2={h_norm:.6e} "
                f"at theta={theta}, k={t.k}"
            )
            if theta > 0.0:
                scale = math.sqrt(t.gamma / (t.h_norm_estimate + t.gamma))
                assert t.cg_tolerance == theta * scale * t.grad_norm
            checked += 1
        # One cold estimate of 31 products, then cheaper warm restarts.
        assert 62 <= out.counters.norm_probe_applies < 62 * (out.successes + 1)
    assert checked > 0


def test_criterion_4_solver_dynamics():
    with criterion(4, "monotone objective, gamma updates, acceptance rule, counts", 30.0):
        for prob, theta, cfg, out in desk_runs():
            assert out.counters.forward_solves == out.iterations + 1
            values = [t.residual_norm for t in out.trace] + [out.residual_norm]
            for a, b in zip(values, values[1:]):
                assert b <= a * (1 + 1e-13), "objective increased"
            for prev, cur in zip(out.trace, out.trace[1:]):
                if prev.success:
                    assert cur.gamma == max(0.5 * prev.gamma, cfg.gamma_min)
                    assert not np.array_equal(cur.u, prev.u)
                else:
                    assert cur.gamma == 2.0 * prev.gamma
                    assert np.array_equal(cur.u, prev.u)
            for t in out.trace:
                assert t.gamma >= cfg.gamma_min
                assert t.rho is not None
                assert t.success == (t.rho >= cfg.eta)


def test_criterion_5_elliptic_always_successful():
    with criterion(5, "Gauss-Newton on the quadratic problem never rejects", 60.0):
        prob = EllipticProblem(20, z_choice="zero")
        for theta in (0.0, 1e-1):
            out = solve(
                prob, np.ones(prob.n), SolverConfig(eps_R=1e-6, eps_g=1e-4, theta=theta)
            )
            assert out.status is SolveStatus.CONVERGED_RESIDUAL
            assert out.iterations > 0
            assert out.successes == out.iterations, "a step was rejected"
            assert all(t.rho >= 1.0 - 1e-9 for t in out.trace)


def test_criterion_6_elliptic_tables():
    with criterion(6, "elliptic stopping statuses and iteration growth", 120.0):
        grid_rows = {}
        for z in ("zero", "one"):
            eps_grid = (
                ((1e-3, 1e-4), (1e-6, 1e-4), (1e-9, 1e-4))
                if z == "zero"
                else ((1e-2, 1e-4),)
            )
            spec = ExperimentSpec(
                problem="elliptic",
                problem_params={"N": 20, "z_choice": z},
                eps_grid=eps_grid,
                max_iter=300,
            )
            grid_rows[z] = run_experiment(spec)
        zero_rows = grid_rows["zero"]
        one_rows = grid_rows["one"]
        # (a) small-residual instance: residual stopping for eps_R >= 1e-6,
        # never the scaled-gradient branch
        for row in zero_rows:
            if row.eps_r >= 1e-6:
                assert row.status == "converged_residual", (
                    f"theta={row.theta} eps_R={row.eps_r}: {row.status}"
                )
            assert row.status != "converged_scaled_gradient"
            assert row.pde_solves == row.iterations + 1
        # (b) large-residual instance stops through the scaled gradient
        for row in one_rows:
            assert row.status == "converged_scaled_gradient", (
                f"theta={row.theta}: {row.status}"
            )
        # (c) mild growth in iterations as eps_R shrinks a million-fold:
        # monotone in the tolerance but bounded by a factor of two overall
        for theta in (0.0, 1e-6, 1e-4, 1e-2):
            by_eps = {
                row.eps_r: row.iterations
                for row in zero_rows
                if row.theta == theta
            }
            assert by_eps[1e-3] <= by_eps[1e-6] <= by_eps[1e-9]
            assert by_eps[1e-9] <= 2 * by_eps[1e-3], (
                f"theta={theta}: iterations {by_eps[1e-3]} -> {by_eps[1e-9]}"
            )


def test_criterion_7_burgers_tables():
    with criterion(7, "burgers cost trends in theta and viscosity", 300.0):
        rows = {}
        for nu in (0.1, 0.01):
            spec = ExperimentSpec(
                problem="burgers",
                problem_params={"nx": 16, "nt": 16, "nu": nu},
                eps_grid=((1e-2, 1e-6),),
                max_iter=300,
            )
            rows[nu] = run_experiment(spec)
        for nu in (0.1, 0.01):
            for row in rows[nu]:
                assert row.status in ("converged_residual", "converged_scaled_gradient")
                assert row.pde_solves == row.iterations + 1
        jvp = [row.jvp for row in rows[0.1]]
        assert all(b < a for a, b in zip(jvp, jvp[1:])), f"jvp not decreasing: {jvp}"
        pde = {row.theta: row.pde_solves for row in rows[0.1]}
        for theta in (1e-1, 5e-1):
            assert pde[theta] >= pde[1e-2], f"pde solves dipped below theta=1e-2: {pde}"
        for r01, r001 in zip(rows[0.1], rows[0.01]):
            assert r001.pde_solves >= r01.pde_solves, (
                f"theta={r01.theta}: nu=0.01 cheaper than nu=0.1"
            )


def test_criterion_8_oracle_equivalence():
    with criterion(8, "dense assembly and exact-step oracles agree", 10.0):
        # elliptic: analytic dense formula
        elliptic = EllipticProblem(4, z_choice="one")
        dense = dense_jacobian_oracle(elliptic, np.ones(elliptic.n))
        K = interior_stiffness(elliptic.N).toarray()
        M, F = elliptic.M.toarray(), elliptic._sqrtM.toarray()
        analytic = np.vstack([F @ np.linalg.solve(K, M), math.sqrt(elliptic.lam) * F])
        assert np.linalg.norm(dense - analytic) <= 1e-9 * (1 + np.linalg.norm(analytic))

        # burgers: explicit block formula
        rng = np.random.default_rng(3)
        burgers = BurgersProblem(3, 3, nu=0.15)
        u = 0.2 * rng.standard_normal(burgers.n)
        y = burgers.solve_state(u)
        nx, nt = burgers.nx, burgers.nt
        yb = y.reshape(nt, nx)
        Mb = tridiag_dense(burgers.M)
        cy = np.zeros((burgers.n_y, burgers.n_y))
        cu = np.zeros((burgers.n_y, burgers.n))
        for i in range(nt):
            cy[i * nx:(i + 1) * nx, i * nx:(i + 1) * nx] = tridiag_dense(burgers.step_jacobian(yb[i]))
            if i > 0:
                cy[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = -Mb / burgers.dt
            cu[i * nx:(i + 1) * nx, (i + 1) * nx:(i + 2) * nx] = -Mb
        Fb = tridiag_dense(burgers._sqrtM)
        Gy = np.zeros((burgers.m, burgers.n_y))
        Gu = np.zeros((burgers.m, burgers.n))
        for i in range(1, nt + 1):
            Gy[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = math.sqrt(burgers.dt) * Fb
        for i in range(nt + 1):
            r0 = (nt + 1 + i) * nx
            Gu[r0:r0 + nx, i * nx:(i + 1) * nx] = math.sqrt(burgers.omega * burgers.dt) * Fb
        block = Gu - Gy @ np.linalg.solve(cy, cu)
        dense_b = dense_jacobian_oracle(burgers, u)
        assert np.linalg.norm(dense_b - block) <= 1e-9 * (1 + np.linalg.norm(block))

        # exact step against dense factorizations across dimensions
        for dim in (5, 8, 13, 20):
            J = random_factor(rng, dim, spread=1.5)
            g = rng.standard_normal(dim)
            gamma = 10.0 ** rng.uniform(-2, 1)
            s = exact_step(**factor_spec(J, g, gamma)).step
            expected = -np.linalg.solve(J.T @ J + gamma * np.eye(dim), g)
            assert np.linalg.norm(s - expected) <= 1e-10 * (1 + np.linalg.norm(expected))


def test_criterion_9_theta_consistency():
    with criterion(9, "near-zero theta reproduces the exact-step trajectory", 30.0):
        prob = EllipticProblem(10, z_choice="zero")
        u0 = np.ones(prob.n)
        outs = []
        for theta in (0.0, 1e-14):
            cfg = SolverConfig(
                eps_R=1e-6, eps_g=1e-4, theta=theta, record_iterates=True
            )
            outs.append(solve(prob, u0, cfg))
        exact, tiny = outs
        assert exact.iterations == tiny.iterations
        assert exact.status == tiny.status
        for a, b in zip(exact.trace, tiny.trace):
            diff = np.linalg.norm(a.u - b.u)
            assert diff <= 1e-6 * (1 + np.linalg.norm(a.u)), f"iterate {a.k} differs"
        final_diff = np.linalg.norm(exact.u - tiny.u)
        assert final_diff <= 1e-6 * (1 + np.linalg.norm(exact.u))
