"""Tracking control of a Poisson problem on the unit square.

Piecewise linear finite elements on the uniform right-triangle mesh (every
grid cell split along its southwest-northeast diagonal), homogeneous
Dirichlet data eliminated so only interior nodes remain. The constraint is
the linear system K y = M u and the residual stacks the mass-weighted
state mismatch over the sqrt-weighted control regularization, which makes
the reduced objective exactly quadratic.

Every triangle has the element mass matrix c (I + 1 1^T), c = area / 12,
and every interior node lies in six triangles, so with S the 0/1 incidence
of triangles against interior nodes the interior mass matrix is
M = c (6 I + S^T S), and F = sqrt(c) [sqrt(6) I; S] has F^T F = M exactly.

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

__all__ = ["EllipticProblem"]


def _incidence(N: int) -> sp.csr_matrix:
    """0/1 incidence S of the 2 N^2 triangles (all lower ones, then all
    upper ones, cell by cell in row-major order) against the (N-1)^2 interior
    nodes. Along one axis cell r has interior node r - 1 on its low side (P0)
    and r on its high side (P1), so each corner is a Kronecker product of the
    two. The two corner triangles that touch no interior node leave empty rows.
    """
    P0, P1 = sp.eye(N, N - 1, k=-1), sp.eye(N, N - 1)
    lower = sp.kron(P0, P0) + sp.kron(P0, P1) + sp.kron(P1, P1)
    upper = sp.kron(P0, P0) + sp.kron(P1, P1) + sp.kron(P1, P0)
    S = sp.vstack([lower, upper], format="csr")
    S.eliminate_zeros()  # sp.eye stores explicit zeros at small N
    return S


class EllipticProblem(ImplicitProblem):
    """Linear-constraint tracking benchmark on the unit square.

    Parameters
    ----------
    N : subdivisions per side, an integer of at least 2; the control/state
        dimension is (N-1)^2.
    lam : control regularization weight.
    z_choice : "zero" or "one", the desired state (zero gives a problem
        with an exact zero-residual solution, one a large-residual one).

    The residual stacks F (y - z) over sqrt(lam) F u, with the mass factor
    F = sqrt(c) [sqrt(6) I; S] of (N-1)^2 + 2 N^2 rows and 7 (N-1)^2
    nonzeros, so m = 2 rows(F).
    K is the five-point Laplacian on the (N-1) x (N-1) interior grid, and
    the state, linearized and adjoint solves all invert it by DST-I.
    """

    def __init__(self, N: int, lam: float = 1e-3, z_choice: str = "zero"):
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
            raise ValueError(f"N must be an integer, got {N!r}")
        if N < 2:
            raise ValueError(f"need at least 2 subdivisions per side, got {N}")
        if not 0 < lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {lam}")
        if z_choice not in ("zero", "one"):
            raise ValueError(f"z_choice must be 'zero' or 'one', got {z_choice!r}")
        self.N = N = int(N)
        self._n = (N - 1) ** 2
        self.lam = float(lam)
        h = 1.0 / N
        c = 0.5 * (h * h) / 12.0
        S = _incidence(N)
        I = sp.identity(self._n, format="csr")
        self.M = (c * (6.0 * I + S.T @ S)).tocsr()
        self._sqrtM = math.sqrt(c) * sp.vstack([math.sqrt(6.0) * I, S], format="csr")
        self._sqrtM_T = self._sqrtM.T.tocsr()
        self.z = np.zeros(self._n) if z_choice == "zero" else np.ones(self._n)
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
        return self._solve_K(self.M @ u)

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
