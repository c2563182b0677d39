"""Tracking control of a Poisson problem on the unit square.

Piecewise linear finite elements on the uniform right-triangle mesh (every
grid cell split along its southwest-northeast diagonal), homogeneous
Dirichlet data eliminated so only interior nodes remain. The constraint is
the linear system K y = M u + f and the residual stacks the mass-weighted
state mismatch over the sqrt-weighted control regularization, which makes
the reduced objective exactly quadratic.

On this mesh the interior stiffness matrix K is exactly the five-point
Laplacian (4 on the diagonal, -1 per grid neighbour): every triangle has its
right angle opposite the diagonal edge, whose coupling vanishes. A 2-D
type-I discrete sine transform diagonalizes it, so each constraint solve is
two transforms and a pointwise divide (Hockney's fast Poisson solver).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .core import ImplicitProblem, LinearOperator, Linearization, as_vector

__all__ = ["assemble_p1_matrices", "EllipticProblem"]


def _element_matrices(coords: np.ndarray):
    """Stiffness and mass element matrices for one P1 triangle."""
    x, y = coords[:, 0], coords[:, 1]
    two_area = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    area = 0.5 * abs(two_area)
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    k_e = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
    m_e = (area / 12.0) * (np.ones((3, 3)) + np.eye(3))
    return k_e, m_e


def _mesh(N: int):
    """Triangles and interior nodes of the N x N grid.

    Returns ``(h, triangles, interior)``: ``triangles`` is a (2 N^2, 3)
    array of node indices, cell by cell in row-major order with each cell's
    lower triangle before its upper one, so ``triangles[0::2]`` and
    ``triangles[1::2]`` share one element shape each. ``interior`` indexes
    the (N-1)^2 non-boundary nodes in row-major order.
    """
    if N < 2:
        raise ValueError(f"need at least 2 subdivisions per side, got {N}")
    n_side = N + 1
    j, i = np.divmod(np.arange(N * N), N)
    sw = j * n_side + i  # southwest corner of each cell
    lower = np.stack([sw, sw + 1, sw + n_side + 1], axis=1)
    upper = np.stack([sw, sw + n_side + 1, sw + n_side], axis=1)
    triangles = np.stack([lower, upper], axis=1).reshape(-1, 3)
    jj, ii = np.divmod(np.arange((N - 1) ** 2), N - 1)
    interior = (jj + 1) * n_side + (ii + 1)
    return 1.0 / N, triangles, interior


def _shapes(h: float):
    """Element matrices of the lower and upper triangle shapes."""
    lower = _element_matrices(np.array([[0, 0], [h, 0], [h, h]], dtype=float))
    upper = _element_matrices(np.array([[0, 0], [h, h], [0, h]], dtype=float))
    return lower, upper


def assemble_p1_matrices(N: int):
    """Assemble full-node stiffness and mass matrices on the N x N grid.

    Returns (K, M, interior) where K and M are CSR matrices over all
    (N+1)^2 nodes and ``interior`` indexes the (N-1)^2 non-boundary nodes
    in row-major order.
    """
    h, triangles, interior = _mesh(N)
    (k_lower, m_lower), (k_upper, m_upper) = _shapes(h)
    # Entry (a, b) of every element, elements in mesh order, a-major within one.
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    n_cells = N * N
    k_data = np.tile(np.concatenate([k_lower.ravel(), k_upper.ravel()]), n_cells)
    m_data = np.tile(np.concatenate([m_lower.ravel(), m_upper.ravel()]), n_cells)
    n_nodes = (N + 1) ** 2
    K = sp.csr_matrix((k_data, (rows, cols)), shape=(n_nodes, n_nodes))
    M = sp.csr_matrix((m_data, (rows, cols)), shape=(n_nodes, n_nodes))
    return K, M, interior


def _element_mass_factor(N: int) -> sp.csr_matrix:
    """Sparse F with F^T F equal to the interior mass matrix.

    With the element mass matrices factored as m_e = R_e^T R_e (R_e upper
    triangular), M = sum_e A_e^T R_e^T R_e A_e over the element gathers A_e,
    so stacking the rows R_e A_e gives F exactly. Columns are restricted to
    interior nodes and rows left empty by that are dropped, which leaves at
    most six nonzeros per element.
    """
    h, triangles, interior = _mesh(N)
    (_, m_lower), (_, m_upper) = _shapes(h)
    a, b = np.triu_indices(3)  # entry (a, b) of R_e sits in row a, on node b
    r_data = [np.linalg.cholesky(m_e).T[a, b] for m_e in (m_lower, m_upper)]
    data = np.tile(np.concatenate(r_data), N * N)
    rows = (3 * np.arange(triangles.shape[0])[:, None] + a).ravel()
    nodes = triangles[:, b].ravel()
    column = np.full((N + 1) ** 2, -1)
    column[interior] = np.arange(interior.size)
    keep = column[nodes] >= 0
    kept_rows, row_index = np.unique(rows[keep], return_inverse=True)
    return sp.csr_matrix(
        (data[keep], (row_index, column[nodes[keep]])),
        shape=(kept_rows.size, interior.size),
    )


class EllipticProblem(ImplicitProblem):
    """Linear-constraint tracking benchmark on the unit square.

    Parameters
    ----------
    N : subdivisions per side; the control/state dimension is (N-1)^2.
    lam : control regularization weight.
    z_choice : "zero" or "one", the desired state (zero gives a problem
        with an exact zero-residual solution, one a large-residual one).

    The residual stacks F (y - z) over sqrt(lam) F u, where F, with
    F^T F = M, is the element-level mass factor: the stacked Cholesky
    factors of the element mass matrices, sparse and rectangular with
    6 N (N-1) rows, so m = 2 rows(F).
    K is the five-point Laplacian on the (N-1) x (N-1) interior grid, and
    the state, linearized and adjoint solves all invert it by DST-I.
    """

    def __init__(self, N: int, lam: float = 1e-3, z_choice: str = "zero"):
        if not 0 < lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {lam}")
        if z_choice not in ("zero", "one"):
            raise ValueError(f"z_choice must be 'zero' or 'one', got {z_choice!r}")
        _, M_full, interior = assemble_p1_matrices(N)
        self.N = N
        self._n = (N - 1) ** 2
        self.lam = float(lam)
        self.M = M_full[np.ix_(interior, interior)].tocsr()
        self._sqrtM = _element_mass_factor(N)
        self._sqrtM_T = self._sqrtM.T.tocsr()
        self.z = np.zeros(self._n) if z_choice == "zero" else np.ones(self._n)
        self.f = np.zeros(self._n)
        # Imported here and not with the module: scipy.fft loads scipy.special,
        # about 60 ms and 3 MB that Burgers-only users should not pay.
        from scipy.fft import dstn, idstn

        self._dstn, self._idstn = dstn, idstn
        # Eigenvalues of K: lam_j + lam_k on the sine mode (j, k), with
        # lam_j = 4 sin^2(j pi / 2N) those of tridiag(-1, 2, -1).
        lam_1d = 4.0 * np.sin(np.arange(1, N) * (math.pi / (2 * N))) ** 2
        self._K_eig = lam_1d[:, None] + lam_1d[None, :]
        M = self.M
        self._linearization = Linearization(
            self._residual_half_op(math.sqrt(self.lam), 1),
            self._residual_half_op(1.0, 0),  # scaling by 1.0 is exact
            LinearOperator((self._n, self._n), lambda v: -(M @ v), lambda w: -(M @ w)),
        )

    # dimensions
    @property
    def n(self) -> int:
        return self._n

    @property
    def n_y(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return 2 * self._sqrtM.shape[0]

    def _solve_K(self, b: np.ndarray) -> np.ndarray:
        # The orthonormal DST-I diagonalizes K.
        B = b.reshape(self._K_eig.shape)
        coeffs = self._dstn(B, type=1, norm="ortho") / self._K_eig
        return self._idstn(coeffs, type=1, norm="ortho").ravel()

    def solve_state(self, u) -> np.ndarray:
        u = as_vector(u, self._n, name="control")
        return self._solve_K(self.M @ u + self.f)

    def residual(self, y, u) -> np.ndarray:
        y = as_vector(y, self._n, name="state")
        u = as_vector(u, self._n, name="control")
        return np.concatenate(
            [self._sqrtM @ (y - self.z), math.sqrt(self.lam) * (self._sqrtM @ u)]
        )

    def _residual_half_op(self, scale: float, half: int) -> LinearOperator:
        """scale * F on residual half ``half`` (0 state, 1 control), zero on the other."""
        F, F_T = self._sqrtM, self._sqrtM_T
        rows = F.shape[0]
        part = slice(half * rows, (half + 1) * rows)

        def fwd(v):
            out = np.zeros(2 * rows)
            out[part] = scale * (F @ v)
            return out

        def adj(w):
            return scale * (F_T @ w[part])

        return LinearOperator((self.m, self._n), fwd, adj)

    def linearize(self, y, u) -> Linearization:
        """The one linearization, built in ``__init__``: the constraint is linear."""
        return self._linearization

    def solve_cy(self, lin, rhs) -> np.ndarray:
        return self._solve_K(as_vector(rhs, self._n, name="rhs"))

    def solve_cy_transpose(self, lin, rhs) -> np.ndarray:
        # K is symmetric, so the transposed solve is the same transform solve.
        return self._solve_K(as_vector(rhs, self._n, name="rhs"))
