"""Core contract: vectors, operators, counters, objective."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from iclsq.burgers import BurgersProblem
from iclsq.core import (
    DimensionMismatch,
    EvalCounters,
    ImplicitProblem,
    LinearOperator,
    Linearization,
    as_vector,
    csr_apply,
    norm,
)
from iclsq.elliptic import EllipticProblem
from iclsq.solver import SolveStatus, SolverConfig, solve

from conftest import (
    IdentityProblem,
    assert_adjoint_identity,
    captured,
    constraint_residual,
    feasibility_tol,
    operator_from_matrix,
    reference_burgers_matrices,
    reference_elliptic_matrices,
    sparse_parts,
)

# Problems whose stored matrices are compared with scipy.sparse's construction:
# the elliptic grids, one interior node (N = 2) up, and Burgers grids, one
# off-diagonal per block (nx = 2) up, on both sides of the band-solve cut at 32.
ASSEMBLY_CASES = [("elliptic", N) for N in (2, 3, 4, 10, 80)] + [
    ("burgers", shape) for shape in ((2, 1), (2, 3), (3, 4), (5, 1), (16, 16), (128, 32), (33, 5))
]
ASSEMBLY_IDS = [f"{k}-{s}" if k == "elliptic" else f"{k}-{s[0]}x{s[1]}" for k, s in ASSEMBLY_CASES]


def assert_same_csr(A, B):
    """A and B are the same CSR arrays: shape, indptr, indices and data bit
    for bit, their dtypes, and whether their indices are sorted."""
    assert A.format == B.format == "csr" and A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8), err_msg=name)
    assert A.has_sorted_indices == B.has_sorted_indices


def extreme_vector(size, rng):
    """Random floats of magnitudes 1 to 1e300 and either sign, every fifth
    entry from the second -0.0."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(0, 301, size)
    v[1::5] = -0.0
    return v


class Doubling(ImplicitProblem):
    """Exactly the members the README's contract paragraph lists:
    c(y, u) = y - 2u and R(y, u) = y - 1, so the reduced residual 2u - 1
    vanishes at u = 1/2."""

    n = n_y = m = 3

    def solve_state(self, u, start=None, counters=None):
        return 2.0 * np.asarray(u, dtype=float)

    def residual(self, y, u):
        return np.asarray(y, dtype=float) - 1.0

    def linearize(self, y, u):
        d = self.n
        return Linearization(
            LinearOperator((d, 2 * d), lambda x: x[d:], lambda w: np.r_[np.zeros(d), w]),  # [0 I]
            LinearOperator((d, d), lambda v: -2.0 * v, lambda w: -2.0 * w),
        )

    def solve_cy(self, lin, rhs):
        return np.asarray(rhs, dtype=float)

    def solve_cy_transpose(self, lin, rhs):
        return np.asarray(rhs, dtype=float)


class TestContract:
    def test_readme_members_make_a_problem_the_solver_runs(self):
        out = solve(Doubling(), np.zeros(3), SolverConfig(eps_R=1e-8))
        assert out.status is SolveStatus.CONVERGED_RESIDUAL
        np.testing.assert_allclose(out.u, 0.5, atol=1e-8)
        assert ImplicitProblem.__abstractmethods__ == {
            "solve_state", "residual", "linearize", "solve_cy", "solve_cy_transpose",
        }

    @pytest.mark.parametrize(
        "make",
        [lambda: BurgersProblem(2, 1), lambda: BurgersProblem(5, 4),
         lambda: EllipticProblem(2), lambda: EllipticProblem(7)],
        ids=["burgers-2x1", "burgers-5x4", "elliptic-2", "elliptic-7"],
    )
    def test_sizes_are_the_shapes_of_the_partial_jacobians(self, make):
        prob = make()
        lin = prob.linearize(np.zeros(prob.n_y), np.zeros(prob.n))
        assert lin.G.shape == (prob.m, prob.n + prob.n_y)
        assert lin.cu.shape == (prob.n_y, prob.n)


class TestInnerNorm:
    def test_three_four_five(self):
        assert norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_canonical_basis(self):
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            assert norm(e) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0, 3.0], 2)
        with pytest.raises(DimensionMismatch, match="must be 1-d, got shape"):
            as_vector(np.zeros((3, 1)))


class TestObjective:
    """The objective 0.5 ||R||^2 as the solver evaluates it at u0."""

    def test_zero_residual(self):
        out = solve(IdentityProblem(3), np.zeros(3), SolverConfig())
        assert out.residual_norm == 0.0
        assert out.status is SolveStatus.CONVERGED_RESIDUAL
        assert out.iterations == 0

    def test_three_four(self):
        out = solve(IdentityProblem(2), np.array([3.0, 4.0]), SolverConfig(max_iter=0))
        assert 0.5 * out.residual_norm**2 == pytest.approx(12.5)

    def test_elliptic_all_zero(self):
        prob = EllipticProblem(4, z_choice="zero")
        u = np.zeros(prob.n)
        y = prob.solve_state(u)
        assert norm(prob.residual(y, u)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(IdentityProblem(3), np.zeros(4), SolverConfig())


class TestLinearOperator:
    def test_matmul_and_transpose(self, rng):
        A = rng.standard_normal((4, 3))
        op = operator_from_matrix(A)
        v = rng.standard_normal(3)
        np.testing.assert_allclose(op @ v, A @ v)
        w = rng.standard_normal(4)
        np.testing.assert_allclose(op.rmatvec(w), A.T @ w)

    def test_input_dimension_checked(self, rng):
        op = operator_from_matrix(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionMismatch):
            op.matvec(np.zeros(4))
        with pytest.raises(DimensionMismatch):
            op.rmatvec(np.zeros(3))

    def test_output_dimension_checked(self):
        op = LinearOperator((4, 3), lambda v: np.zeros(3), lambda w: np.zeros(4))
        with pytest.raises(DimensionMismatch, match="operator produced length 3, expected 4"):
            op.matvec(np.zeros(3))
        with pytest.raises(DimensionMismatch, match="transpose produced length 4, expected 3"):
            op.rmatvec(np.zeros(4))

    def test_adjoint_probes_random_matrix(self, rng):
        assert_adjoint_identity(operator_from_matrix(rng.standard_normal((6, 4))), rng)

    def test_csr_apply_refuses_lengths_the_kernel_would_overrun(self, rng):
        S = sp.csr_matrix(rng.standard_normal((2, 3)))
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(csr_apply(S, x, np.zeros(2), 0.5), 0.5 * (S @ x))
        for x, out in ((np.ones(2), None), (np.ones(4), None), (x, np.zeros(1)), (x, np.zeros(3))):
            with pytest.raises(DimensionMismatch, match="csr_apply of a 2 x 3 matrix"):
                csr_apply(S, x, out)


class TestProblemOperators:
    """Every operator a problem exposes must pass the adjoint probe."""

    def test_elliptic_operator_adjoints(self, rng):
        prob = EllipticProblem(4, z_choice="one")
        u = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        lin = prob.linearize(y, u)
        for op in (lin.G, lin.cu):
            assert_adjoint_identity(op, rng)

    def test_burgers_operator_adjoints(self, rng):
        from iclsq.burgers import BurgersProblem

        prob = BurgersProblem(4, 4, nu=0.1)
        u = 0.2 * rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        lin = prob.linearize(y, u)
        for op in (lin.G, lin.cu):
            assert_adjoint_identity(op, rng)

    @pytest.mark.parametrize(("kind", "size"), ASSEMBLY_CASES, ids=ASSEMBLY_IDS)
    def test_stored_matrices_are_scipy_sparse_constructions_exactly(self, kind, size):
        # Every stored CSR matrix, built from index arithmetic on its stencil,
        # holds the arrays that scipy.sparse's kron, bmat and vstack gave, so
        # every product with it rounds as it did.
        if kind == "elliptic":
            prob = EllipticProblem(size)
            F, M = reference_elliptic_matrices(size)
            G = prob._linearization.G
            F_own, F_T = captured(G.apply)["F"], captured(G.apply_transpose)["F_T"]
            pairs = [(F_own, F), (F_T, F.T.tocsr()), (prob.M, M)]
        else:
            prob = BurgersProblem(*size)
            pairs = []
            for op, S in zip(prob._operators, reference_burgers_matrices(prob)):  # G, c_u
                pairs += zip(sparse_parts(op)[:2], (S, S.T.tocsr()))
        for A, B in pairs:
            assert_same_csr(A, B)

    @pytest.mark.parametrize(("kind", "size"), ASSEMBLY_CASES, ids=ASSEMBLY_IDS)
    def test_products_round_as_scipy_sparse_products(self, kind, size, rng):
        # Each operator's products, checked and unchecked, are the scaled
        # products scipy.sparse's ``@`` gives with the stored matrices, bit
        # for bit, signed zeros and values near the end of the float range too
        if kind == "elliptic":
            prob = EllipticProblem(size)
            lin = prob._linearization
            F, F_T = captured(lin.G.apply)["F"], captured(lin.G.apply_transpose)["F_T"]
            n, rows, s = prob.n, F.shape[0], math.sqrt(prob.lam)
            expected = [(
                lin.G,
                lambda x: np.concatenate([F @ x[n:], s * (F @ x[:n])]),
                lambda w: np.concatenate([s * (F_T @ w[rows:]), F_T @ w[:rows]]),
            )]
            sparse = [lin.cu]
        else:
            prob = BurgersProblem(*size)
            expected, sparse = [], list(prob._operators)  # G, c_u
        for op in sparse:
            S, S_T, row_scale, col_scale = sparse_parts(op)
            expected.append((
                op,
                lambda v, S=S, scale=row_scale: scale * (S @ v),
                lambda w, S_T=S_T, scale=col_scale: scale * (S_T @ w),
            ))
        for op, forward, transpose in expected:
            for make in (extreme_vector, lambda size, rng: np.full(size, -0.0)):
                v, w = make(op.shape[1], rng), make(op.shape[0], rng)
                for got in (op.apply(v), op.matvec(v)):
                    np.testing.assert_array_equal(got.view(np.uint64), forward(v).view(np.uint64))
                for got in (op.apply_transpose(w), op.rmatvec(w)):
                    np.testing.assert_array_equal(got.view(np.uint64), transpose(w).view(np.uint64))
        if kind == "burgers":
            # state 0 is data: G's first block of rows is empty and reads +0.0
            G = prob._operators[0]
            assert not G.apply(extreme_vector(G.shape[1], rng))[: prob.nx].view(np.uint64).any()

    def test_elliptic_feasibility(self, rng):
        prob = EllipticProblem(5)
        u = rng.standard_normal(prob.n)
        y = prob.solve_state(u)
        c = constraint_residual(prob, y, u)
        assert np.linalg.norm(c) <= feasibility_tol(prob) * (1.0 + np.linalg.norm(u))


class TestCounters:
    def test_snapshot_is_plain_dict(self):
        c = EvalCounters(forward_solves=2)
        snap = c.snapshot()
        assert snap == {
            "forward_solves": 2,
            "adjoint_solves": 0,
            "linearized_solves": 0,
            "jacobian_applies": 0,
            "cg_iterations": 0,
            "norm_estimates": 0,
            "norm_probe_applies": 0,
            "curvature_raises": 0,
            "failed_trial_solves": 0,
            "newton_iters": 0,
            "trajectory_newton_iters": 0,
            "predictor_solves": 0,
        }
        c.forward_solves += 1
        assert snap["forward_solves"] == 2

    def test_two_identical_runs_count_identically(self):
        prob = EllipticProblem(5, z_choice="one")
        cfg = SolverConfig(eps_R=1e-2, eps_g=1e-4, theta=1e-2)
        u0 = np.ones(prob.n)
        first = solve(prob, u0, cfg)
        second = solve(prob, u0, cfg)
        assert first.counters.snapshot() == second.counters.snapshot()
        assert first.iterations == second.iterations
