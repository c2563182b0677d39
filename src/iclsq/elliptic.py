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
Both are assembled as CSR arrays by index arithmetic on a grid of node
indices (``core.stencil_csr``): a row of S reads its triangle's interior
corners, and M is a 7-point stencil.

On this mesh the interior stiffness matrix K is exactly the five-point
Laplacian (4 on the diagonal, -1 per grid neighbour): every triangle has its
right angle opposite the diagonal edge, whose coupling vanishes. So
K = T (x) I + I (x) T with T = tridiag(-1, 2, -1), and each constraint solve
is Hockney's fast Poisson solver by Fourier analysis in one direction: a
type-I discrete sine transform along one grid axis splits K into one SPD
tridiagonal system per grid row, one LAPACK dpttrs solves all rows on the
L D L^T factor that dpttrf makes once, and the transform maps back. Both
transforms call pocketfft's DST kernel, the one scipy.fft.dst and idst end
in, without their dispatch (about 10 us a transform); the row solves and the
inverse run in place in the solve's own coefficient array.

The residual Jacobian G = [[0, F], [sqrt(lam) F, 0]] on the stacked (u, y)
is two products with F or its one stored transpose (a stacked CSR would
store F twice), each ``core.csr_apply`` into its half of one zeroed output,
and c_u = -M a ``core.sparse_operator`` on M, its own transpose. Being
linear, the problem has one linearization for all points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .core import ImplicitProblem, LinearOperator, Linearization, as_vector
from .core import check_integer, check_positive, csr_apply, sparse_operator, stencil_csr

__all__ = ["EllipticProblem"]


def _mass_matrices(N: int) -> tuple:
    """``(F, M)``, apart from the constructor so that the arrays they are
    assembled from are freed before it builds F's transpose."""
    n, h = (N - 1) ** 2, 1.0 / N
    c = 0.5 * (h * h) / 12.0
    # interior index of each node of the (N+1) x (N+1) grid in row-major
    # order, -1 on the boundary; the stencils step through grid positions
    node = np.full((N + 1) ** 2, -1, dtype=np.int32)
    inner = (np.arange(N + 1, N * (N + 1), N + 1)[:, None] + np.arange(1, N)).ravel()
    node[inner] = np.arange(n)
    # M = c (6 I + S^T S) is a 7-point stencil: 12 c on the diagonal, 2 c to
    # the neighbours along x, y and the SW-NE diagonal (two triangles per edge)
    cols = node[inner[:, None] + np.array([-N - 2, -N - 1, -1, 0, 1, N + 1, N + 2])]
    M = stencil_csr(cols, np.tile(c * np.array([2, 2, 2, 12, 2, 2, 2.0]), (n, 1)), n)
    # rows of F: the interior nodes (sqrt(6) I), then the lower (sw, se, ne) and
    # upper (sw, nw, ne) triangles, cells by sw corner, corners in index order
    sw = (np.arange(0, N * (N + 1), N + 1)[:, None] + np.arange(N)).ravel()
    corners = np.array([[[0, 1, N + 2]], [[0, N + 1, N + 2]]])
    cols = np.full((n + 2 * N * N, 3), -1, dtype=np.int32)
    cols[:n, 0] = np.arange(n)
    cols[n:] = node[sw[:, None] + corners].reshape(-1, 3)
    vals = np.full(cols.shape, math.sqrt(c))
    vals[:n] *= math.sqrt(6.0)
    return stencil_csr(cols, vals, n), M


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
    the state, linearized and adjoint solves all invert it by a DST-I along
    one axis and a tridiagonal solve along the other.
    """

    def __init__(self, N: int, lam: float = 1e-3, z_choice: str = "zero"):
        self.N = N = check_integer("N", N, 2)
        self.lam = check_positive("lam", lam)
        if z_choice not in ("zero", "one"):
            raise ValueError(f"z_choice must be 'zero' or 'one', got {z_choice!r}")
        self.n = self.n_y = (N - 1) ** 2
        F, self.M = _mass_matrices(N)
        self.m = 2 * F.shape[0]
        F_T = F.T.tocsr()  # one transpose, for both halves of G
        m, rows, n, s = self.m, F.shape[0], self.n, math.sqrt(self.lam)

        def forward(x):  # G (u, y) = (F y, sqrt(lam) F u), each half one product
            out = np.zeros(m)
            csr_apply(F, x[n:], out[:rows])
            csr_apply(F, x[:n], out[rows:], s)
            return out

        def transpose(w):
            out = np.zeros(2 * n)
            csr_apply(F_T, w[rows:], out[:n], s)
            csr_apply(F_T, w[:rows], out[n:])
            return out

        self._linearization = Linearization(
            LinearOperator((m, 2 * n), forward, transpose),
            sparse_operator(self.M, self.M, -1.0, -1.0),  # M is symmetric
        )
        self.z = np.zeros(self.n) if z_choice == "zero" else np.ones(self.n)
        # Imported here and not with the module: importing the kernel loads the
        # scipy.fft package and with it scipy.special, about 60 ms and 3.6 MB
        # that Burgers-only users should not pay.
        from scipy.fft._pocketfft.pypocketfft import dst

        self._dst, self._grid = dst, (N - 1, N - 1)
        # Row j of the transformed grid solves (T + lam_j I) x = c, with
        # lam_j = 4 sin^2(j pi / 2N) the eigenvalues of T. Laid end to end,
        # with a 0 off-diagonal at each row end, the rows are one SPD
        # tridiagonal matrix, factored once as L D L^T. At N = 2 f2py wants
        # the one off-diagonal entry that LAPACK never reads.
        lam_1d = 4.0 * np.sin(np.arange(1, N) * (math.pi / (2 * N))) ** 2
        off = np.full(self.n, -1.0)
        off[N - 2 :: N - 1] = 0.0
        self._K_factor = dpttrf(np.repeat(2.0 + lam_1d, N - 1), off[: max(self.n - 1, 1)])[:2]
        for array in self._K_factor:
            array.flags.writeable = False

    def _solve_K(self, b: np.ndarray) -> np.ndarray:
        # The orthonormal DST-I along axis 0, its own inverse, leaves one
        # tridiagonal system per grid row, which one dpttrs on the stored
        # factor solves in place. pocketfft's kernel, called without
        # scipy.fft's dispatch (about 10 us a transform), takes (a, type,
        # axes, inorm, out, nthreads); inorm 1 makes type I orthonormal both
        # ways. Only the fresh coefficients are written, so b never is and
        # concurrent solves share no buffer.
        coeffs = self._dst(b.reshape(self._grid), 1, (0,), 1, None, 1).ravel()
        rows = dpttrs(*self._K_factor, coeffs, overwrite_b=True)[0].reshape(self._grid)
        return self._dst(rows, 1, (0,), 1, rows, 1).ravel()

    def solve_state(self, u, start=None, counters=None) -> np.ndarray:
        """One direct solve K y = M u: it never calls ``start`` and counts
        no Newton iterations."""
        u = as_vector(u, self.n, name="control")
        return self._solve_K(csr_apply(self.M, u))

    def residual(self, y, u) -> np.ndarray:
        """R = G (u, y - z), with G of the one linearization."""
        u, y = as_vector(u, self.n, name="control"), as_vector(y, self.n, name="state")
        return self._linearization.G @ np.concatenate([u, y - self.z])

    def linearize(self, y, u) -> Linearization:
        """The one linearization, built in ``__init__``: the constraint is linear."""
        return self._linearization

    def solve_cy(self, lin, rhs) -> np.ndarray:
        return self._solve_K(as_vector(rhs, self.n, name="rhs"))

    solve_cy_transpose = solve_cy  # K is symmetric
