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

The partial Jacobians G_y = [F; 0], G_u = [0; sqrt(lam) F] and c_u = -M are
``core.sparse_operator``s on F, its one stored transpose, and M, which is its
own transpose. Being linear, the problem has one linearization for all points.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .core import ImplicitProblem, Linearization, as_vector, check_integer, check_positive
from .core import sparse_operator

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
    N : subdivisions per side, an integer of at least 2; the control and
        state sizes are n = n_y = (N-1)^2.
    lam : control regularization weight, positive and finite.
    z_choice : "zero" or "one", the desired state (zero gives a problem
        with an exact zero-residual solution, one a large-residual one).

    The residual stacks F (y - z) over sqrt(lam) F u, with the mass factor
    F = sqrt(c) [sqrt(6) I; S] of (N-1)^2 + 2 N^2 rows and 7 (N-1)^2
    nonzeros, so m = 2 rows(F). The constructor sets all three sizes.
    K is the five-point Laplacian on the (N-1) x (N-1) interior grid, and
    the state, linearized and adjoint solves all invert it by DST-I.
    """

    def __init__(self, N: int, lam: float = 1e-3, z_choice: str = "zero"):
        self.N = N = check_integer("N", N, 2)
        self.lam = check_positive("lam", lam)
        if z_choice not in ("zero", "one"):
            raise ValueError(f"z_choice must be 'zero' or 'one', got {z_choice!r}")
        self.n = self.n_y = (N - 1) ** 2
        h = 1.0 / N
        c = 0.5 * (h * h) / 12.0
        S = _incidence(N)
        I = sp.identity(self.n, format="csr")
        self.M = (c * (6.0 * I + S.T @ S)).tocsr()
        self._sqrtM = F = math.sqrt(c) * sp.vstack([math.sqrt(6.0) * I, S], format="csr")
        self.m = 2 * F.shape[0]
        F_T = F.T.tocsr()  # one transpose, shared by G_u and G_y
        self._linearization = Linearization(
            sparse_operator(F, F_T, math.sqrt(self.lam), self.m, first=F.shape[0]),
            sparse_operator(F, F_T, 1.0, self.m),  # scaling by 1.0 is exact
            sparse_operator(self.M, self.M, -1.0, self.n),  # M is symmetric
        )
        self.z = np.zeros(self.n) if z_choice == "zero" else np.ones(self.n)
        # Imported here and not with the module: scipy.fft loads scipy.special,
        # about 60 ms and 3 MB that Burgers-only users should not pay.
        from scipy.fft import dstn, idstn

        self._dstn, self._idstn = dstn, idstn
        # Eigenvalues of K: lam_j + lam_k on the sine mode (j, k), with
        # lam_j = 4 sin^2(j pi / 2N) those of tridiag(-1, 2, -1).
        lam_1d = 4.0 * np.sin(np.arange(1, N) * (math.pi / (2 * N))) ** 2
        self._K_eig = lam_1d[:, None] + lam_1d[None, :]

    def _solve_K(self, b: np.ndarray) -> np.ndarray:
        # The orthonormal DST-I diagonalizes K.
        B = b.reshape(self._K_eig.shape)
        coeffs = self._dstn(B, type=1, norm="ortho") / self._K_eig
        return self._idstn(coeffs, type=1, norm="ortho").ravel()

    def solve_state(self, u, start=None, counters=None) -> np.ndarray:
        """One direct solve K y = M u: it never calls ``start`` and counts
        no Newton iterations."""
        u = as_vector(u, self.n, name="control")
        return self._solve_K(self.M @ u)

    def residual(self, y, u) -> np.ndarray:
        """R = G_y (y - z) + G_u u, with the operators of the one linearization."""
        lin = self._linearization
        return lin.Gy @ (as_vector(y, self.n, name="state") - self.z) + lin.Gu @ u

    def linearize(self, y, u) -> Linearization:
        """The one linearization, built in ``__init__``: the constraint is linear."""
        return self._linearization

    def solve_cy(self, lin, rhs) -> np.ndarray:
        return self._solve_K(as_vector(rhs, self.n, name="rhs"))

    solve_cy_transpose = solve_cy  # K is symmetric
