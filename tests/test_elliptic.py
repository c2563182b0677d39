"""Elliptic benchmark: assembly oracle, constraint solves, residual identity."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

from iclsq.elliptic import EllipticProblem
from iclsq.solver import SolveStatus, SolverConfig, solve

from conftest import (
    assemble_stiffness,
    assert_adjoint_identity,
    captured,
    constraint_residual,
    feasibility_tol,
    interior_stiffness,
    partial_jacobian,
    solve_traced,
)


def quadrature_p1_matrices(N):
    """Independent oracle: hat-function integration by midpoint quadrature.

    Basis gradients come from solving the affine interpolation system on
    each triangle; products of two hats are quadratic, so the three
    edge-midpoint rule integrates mass entries exactly.
    """
    h = 1.0 / N
    n_side = N + 1
    n_nodes = n_side * n_side
    K = np.zeros((n_nodes, n_nodes))
    M = np.zeros((n_nodes, n_nodes))

    def node(i, j):
        return j * n_side + i

    for j in range(N):
        for i in range(N):
            x0, y0 = i * h, j * h
            cells = [
                ([(x0, y0), (x0 + h, y0), (x0 + h, y0 + h)],
                 [node(i, j), node(i + 1, j), node(i + 1, j + 1)]),
                ([(x0, y0), (x0 + h, y0 + h), (x0, y0 + h)],
                 [node(i, j), node(i + 1, j + 1), node(i, j + 1)]),
            ]
            for verts, ids in cells:
                V = np.array([[1.0, vx, vy] for vx, vy in verts])
                coeffs = np.linalg.solve(V, np.eye(3))  # column a: basis a
                area = 0.5 * abs(
                    (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1])
                    - (verts[2][0] - verts[0][0]) * (verts[1][1] - verts[0][1])
                )
                mids = [
                    (0.5 * (verts[a][0] + verts[b][0]), 0.5 * (verts[a][1] + verts[b][1]))
                    for a, b in ((0, 1), (1, 2), (0, 2))
                ]
                for a in range(3):
                    for b in range(3):
                        grad = coeffs[1:, a] @ coeffs[1:, b]
                        K[ids[a], ids[b]] += area * grad
                        val = sum(
                            (coeffs[0, a] + coeffs[1, a] * mx + coeffs[2, a] * my)
                            * (coeffs[0, b] + coeffs[1, b] * mx + coeffs[2, b] * my)
                            for mx, my in mids
                        )
                        M[ids[a], ids[b]] += area * val / 3.0
    return K, M


class TestAssembly:
    def test_single_interior_node(self):
        np.testing.assert_allclose(interior_stiffness(2).toarray(), [[4.0]])
        np.testing.assert_allclose(EllipticProblem(2).M.toarray(), [[0.125]])

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_matches_quadrature_oracle(self, N):
        K, interior = assemble_stiffness(N)
        K_q, M_q = quadrature_p1_matrices(N)
        np.testing.assert_allclose(K.toarray(), K_q, atol=1e-12)
        M = EllipticProblem(N).M.toarray()
        np.testing.assert_allclose(M, M_q[np.ix_(interior, interior)], atol=1e-14)

    def test_unreduced_stiffness_rows_sum_to_zero(self):
        # Constants lie in the kernel before any boundary elimination.
        K, _ = assemble_stiffness(5)
        np.testing.assert_allclose(K.toarray().sum(axis=1), 0.0, atol=1e-13)

    def test_reduced_stiffness_deep_interior_rows_sum_to_zero(self):
        N = 6
        K = interior_stiffness(N).toarray()
        row_sums = K.sum(axis=1)
        for jj in range(N - 1):
            for ii in range(N - 1):
                if 1 <= ii <= N - 3 and 1 <= jj <= N - 3:
                    assert abs(row_sums[jj * (N - 1) + ii]) <= 1e-13

    @pytest.mark.parametrize("N", [4, 16])
    def test_mass_total_matches_oracle_and_tends_to_area(self, N):
        prob = EllipticProblem(N)
        ones = np.ones(prob.n)
        total = float(ones @ (prob.M @ ones))
        _, M_q = quadrature_p1_matrices(N)
        _, interior = assemble_stiffness(N)
        expected = float(np.ones(prob.n) @ M_q[np.ix_(interior, interior)] @ np.ones(prob.n))
        assert total == pytest.approx(expected, rel=1e-13)
        # interior hats cover everything but a boundary strip of width ~2/N
        assert 1.0 - 8.0 / N < total < 1.0

    def test_spd(self):
        prob = EllipticProblem(4)
        for A in (interior_stiffness(prob.N).toarray(), prob.M.toarray()):
            np.testing.assert_allclose(A, A.T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(A)) > 0

    @pytest.mark.parametrize("N", [2, 3, 6, 7])
    def test_mass_factor_reproduces_mass_and_is_sparse(self, N):
        prob = EllipticProblem(N)
        F = captured(prob._linearization.G.apply)["F"]
        M = prob.M.toarray()
        assert F.shape == ((N - 1) ** 2 + 2 * N * N, prob.n) and prob.m == 2 * F.shape[0]
        # six triangles per interior node plus the identity block, no stored zeros
        assert F.nnz == 7 * (N - 1) ** 2
        assert np.all(F.data != 0.0) and np.all(prob.M.data != 0.0)
        dense = F.toarray()
        assert np.linalg.norm(dense.T @ dense - M) <= 1e-13 * np.linalg.norm(M)

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            assemble_stiffness(1)  # the mesh itself refuses it
        with pytest.raises(ValueError):
            EllipticProblem(1)

    @pytest.mark.parametrize(
        "setting",
        [pytest.param({"N": N}, id=str(N)) for N in (8.5, 2.0, "4", True)]
        # lam passes the shared real-number rule; a string raised a TypeError
        + [pytest.param({"lam": "1e-3"}, id="lam-1e-3")]
        + [pytest.param({"z_choice": "two"}, id="z_choice-two")],
    )
    def test_rejects_bad_setting(self, setting):
        [name] = setting
        rule = {"N": "an integer", "lam": "a real number", "z_choice": "'zero' or 'one'"}[name]
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            EllipticProblem(**({"N": 4} | setting))

    def test_accepts_numpy_integer_size(self):
        prob = EllipticProblem(np.int64(6))
        assert type(prob.N) is int and prob.N == 6 and prob.n == 25


class TestStateSolve:
    def test_zero_control(self):
        prob = EllipticProblem(4)
        np.testing.assert_array_equal(prob.solve_state(np.zeros(prob.n)), np.zeros(prob.n))

    def test_round_trip(self, rng):
        prob = EllipticProblem(5)
        y_star = rng.standard_normal(prob.n)
        u = np.linalg.solve(prob.M.toarray(), interior_stiffness(prob.N) @ y_star)
        y = prob.solve_state(u)
        assert np.linalg.norm(y - y_star) <= 1e-10 * (1 + np.linalg.norm(y_star))

    def test_linearity(self, rng):
        prob = EllipticProblem(5)
        u1 = rng.standard_normal(prob.n)
        u2 = rng.standard_normal(prob.n)
        lhs = prob.solve_state(u1 + u2)
        rhs = prob.solve_state(u1) + prob.solve_state(u2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


class TestFastSolve:
    """K is the five-point Laplacian, which the sine-transform solve assumes."""

    @pytest.mark.parametrize("N", [2, 3, 7, 20])
    def test_stiffness_is_five_point_laplacian(self, N):
        n = N - 1
        T = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        I = sp.identity(n)
        laplacian = (sp.kron(T, I) + sp.kron(I, T)).toarray()
        np.testing.assert_array_equal(interior_stiffness(N).toarray(), laplacian)

    @pytest.mark.parametrize("N", [2, 3, 7, 20])
    def test_solves_match_dense_solve(self, N, rng):
        prob = EllipticProblem(N)
        K = interior_stiffness(N).toarray()
        u = rng.standard_normal(prob.n)
        rhs = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        lin = prob.linearize(y, u)
        cases = [
            (y, np.linalg.solve(K, prob.M @ u)),
            (prob.solve_cy(lin, rhs), np.linalg.solve(K, rhs)),
            (prob.solve_cy_transpose(lin, rhs), np.linalg.solve(K.T, rhs)),
        ]
        for got, expected in cases:
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_constraint_residual_within_feasibility_tol_at_n80(self, rng):
        prob = EllipticProblem(80)
        u = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        assert np.linalg.norm(constraint_residual(prob, y, u)) <= feasibility_tol(prob)

    @pytest.mark.parametrize("N", [2, 3, 10, 80])
    def test_solve_k_is_one_axis_dst_and_row_solves_bit_for_bit(self, N, rng):
        # The direct pocketfft calls and the one dpttrs on the rows laid end
        # to end must give exactly the public transforms along axis 0 with a
        # separate LAPACK LDL^T solve of each row's (T + lam_j I), also for
        # signed zeros, huge entries and a strided rhs.
        from scipy.fft import dst, idst

        prob = EllipticProblem(N)
        n = prob.n
        lam = 4.0 * np.sin(np.arange(1, N) * (math.pi / (2 * N))) ** 2
        # one row's off-diagonal; at N = 2 LAPACK reads none, but f2py wants one
        row_factors = [dpttrf(np.full(N - 1, 2.0 + lam_j), -np.ones(max(N - 2, 1)))
                       for lam_j in lam]
        b = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        b[::3] = -0.0
        b[0] = 1e300
        strided = np.empty(2 * n)
        strided[::2], strided[1::2] = b, np.nan
        for rhs in (b, strided[::2]):
            coeffs = dst(rhs.reshape(N - 1, N - 1), type=1, axis=0, norm="ortho")
            rows = np.array([dpttrs(d, e, row)[0] for (d, e, _), row in zip(row_factors, coeffs)])
            expected = idst(rows, type=1, axis=0, norm="ortho").ravel()
            for got in (prob._solve_K(rhs), prob.solve_cy(prob.linearize(None, None), rhs)):
                assert np.all(np.isfinite(got))
                np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_solve_k_residual_at_n80(self, rng):
        # against the assembled five-point Laplacian, as tight as the 2-D
        # transform pair held it (6.7e-15 at most over 20 right-hand sides)
        prob = EllipticProblem(80)
        K = interior_stiffness(80)
        for _ in range(20):
            b = rng.standard_normal(prob.n)
            assert np.linalg.norm(K @ prob._solve_K(b) - b) <= 1e-14 * np.linalg.norm(b)

    def test_concurrent_solves_match_serial_solves(self, rng):
        # More threads than cores, switching often, solving on one problem:
        # they share only its read-only factor, so each gets the serial bits.
        import sys
        import threading

        prob = EllipticProblem(80)
        assert not any(array.flags.writeable for array in prob._K_factor)
        rhs = rng.standard_normal((4, 30, prob.n))
        expected = [np.array([prob._solve_K(b) for b in batch]) for batch in rhs]
        results = [None] * len(rhs)

        def run(i):
            results[i] = np.array([prob._solve_K(b) for b in rhs[i]])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(rhs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("N", [2, 10])
    def test_solves_leave_a_read_only_argument_untouched(self, N, rng):
        prob = EllipticProblem(N)
        lin = prob.linearize(None, None)
        solves = {
            "solve_state": prob.solve_state,
            "solve_cy": lambda v: prob.solve_cy(lin, v),
            "solve_cy_transpose": lambda v: prob.solve_cy_transpose(lin, v),
        }
        for name, solve_ in solves.items():
            v = rng.standard_normal(prob.n)
            frozen = v.copy()
            frozen.flags.writeable = False
            expected = solve_(v.copy())
            got = solve_(frozen)
            np.testing.assert_array_equal(frozen.view(np.uint64), v.view(np.uint64), name)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64), name)



class TestPartialJacobians:
    @pytest.mark.parametrize("N", [2, 7, 20])
    def test_g_rounds_as_its_scaled_products(self, N, rng):
        # each half of G is one product with F or its CSR transpose, scaled
        # outside the matrix, and the residual is G on (u, y - z), bit for bit
        prob = EllipticProblem(N, lam=0.07, z_choice="one")
        G = prob.linearize(None, None).G
        F = captured(G.apply)["F"]
        F_T, rows, s = F.T.tocsr(), F.shape[0], math.sqrt(prob.lam)
        u, y = rng.standard_normal((2, prob.n))
        w = rng.standard_normal(prob.m)
        np.testing.assert_array_equal(
            G @ np.concatenate([u, y]), np.concatenate([F @ y, s * (F @ u)])
        )
        np.testing.assert_array_equal(
            G.rmatvec(w), np.concatenate([s * (F_T @ w[rows:]), F_T @ w[:rows]])
        )
        np.testing.assert_array_equal(prob.residual(y, u), G @ np.concatenate([u, y - prob.z]))

    @pytest.mark.parametrize("name", ["Gu", "Gy", "cu"])
    @pytest.mark.parametrize("N", [2, 3, 7])
    def test_partial_jacobians_match_dense_blocks(self, N, name, rng):
        # G_y = [F; 0], G_u = [0; sqrt(lam) F] and c_u = -M, zero half included
        prob = EllipticProblem(N, lam=0.07)
        F, M = captured(prob._linearization.G.apply)["F"].toarray(), prob.M.toarray()
        zero = np.zeros_like(F)
        expected = {
            "Gu": np.vstack([zero, np.sqrt(prob.lam) * F]),
            "Gy": np.vstack([F, zero]),
            "cu": -M,
        }[name]
        op = partial_jacobian(prob.linearize(None, None), name, prob.n)
        rows, cols = op.shape
        assert op.shape == expected.shape
        np.testing.assert_array_equal(np.column_stack([op @ e for e in np.eye(cols)]), expected)
        np.testing.assert_array_equal(np.vstack([op.rmatvec(e) for e in np.eye(rows)]), expected)
        assert_adjoint_identity(op, rng)


class TestResidual:
    def test_zero_at_target(self):
        prob = EllipticProblem(4, z_choice="one")
        r = prob.residual(prob.z, np.zeros(prob.n))
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_quadratic_form_identity(self, rng):
        prob = EllipticProblem(5, z_choice="one")
        for _ in range(10):
            y = rng.standard_normal(prob.n)
            u = rng.standard_normal(prob.n)
            r = prob.residual(y, u)
            direct = (y - prob.z) @ (prob.M @ (y - prob.z)) + prob.lam * u @ (prob.M @ u)
            assert float(r @ r) == pytest.approx(direct, rel=1e-12)


class TestScale:
    def test_n150_builds_without_dense_matrices_and_solves(self):
        # A dense (N-1)^2 x (N-1)^2 array would take 3.9 GB at N = 150; the
        # direct CSR assembly of F, its transpose and M peaks near 7 MB.
        tracemalloc.start()
        try:
            prob = EllipticProblem(150, z_choice="one")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        out = solve(prob, np.ones(prob.n), SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2))
        assert out.status is SolveStatus.CONVERGED_SCALED_GRADIENT
        assert out.counters.forward_solves == out.iterations + 1


class TestSolverBehavior:
    def test_every_iteration_successful_gauss_newton(self):
        # Exactly quadratic reduced objective: the model only adds positive
        # regularization, so the decrease ratio never drops below one.
        prob = EllipticProblem(8, z_choice="one")
        out, trace = solve_traced(
            prob, np.ones(prob.n), SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2)
        )
        assert out.iterations > 0
        assert out.successes == out.iterations
        assert all(t.rho >= 1.0 - 1e-9 for t in trace)

    def test_small_residual_instance_stops_on_residual(self):
        prob = EllipticProblem(8, z_choice="zero")
        out = solve(prob, np.ones(prob.n), SolverConfig(eps_R=1e-6, eps_g=1e-4))
        assert out.status is SolveStatus.CONVERGED_RESIDUAL

    def test_large_residual_instance_stops_on_scaled_gradient(self):
        prob = EllipticProblem(8, z_choice="one")
        out = solve(prob, np.ones(prob.n), SolverConfig(eps_R=1e-2, eps_g=1e-4))
        assert out.status is SolveStatus.CONVERGED_SCALED_GRADIENT
