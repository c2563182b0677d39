"""Step computation for the regularized quadratic model.

Each outer iteration minimizes

    q(s) = g.s + 0.5 * s.(H + gamma I).s

with Gauss-Newton curvature H = J^T J or zero curvature H = 0, either
exactly (tiny relative residual) or inexactly, stopping once the residual
of (H + gamma I) s = -g drops below

    theta * sqrt(gamma / (||H|| + gamma)) * ||g||.

Gauss-Newton steps run CGLS, conjugate gradient in least-squares form on the
factor J, from the zero vector, so the model value decreases monotonically
and any returned step has positive predicted decrease whenever g is nonzero.
With zero curvature the minimizer is -g / gamma in closed form, reported as
one Krylov iteration.

Both step functions take the model as arguments: the gradient g, gamma,
theta, ``h_norm``, and for Gauss-Newton curvature the pair (J, R), the
Jacobian operator and the residual at the base point (g = J^T R); without
the pair H is zero. g must have one entry per column of J and R one per
row. ``h_norm`` must bound ||H|| from above for the inexactness rule to
keep its guarantees; ``estimate_operator_norm`` gives one, and the Jacobian
it is given counts the products it takes. CGLS checks the bound for free:
each of its directions p gives the Rayleigh quotient ||J p||^2 / ||p||^2,
a lower bound on ||H|| (Parlett, The Symmetric Eigenvalue Problem, 1998),
from sums the step length forms anyway. A quotient above ``h_norm`` proves
the bound wrong: the solve raises it to ``SAFETY_FACTOR`` times the largest
quotient, and its residual target follows the raised bound. ``StepResult``
reports the bound the step ended with and the largest quotient,
``curvature_seen``, so a caller can keep a bound across steps and
re-estimate only once a step has used up its safety margin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstev

from .core import LinearOperator, as_vector, norm

__all__ = [
    "SAFETY_FACTOR",
    "StepResult",
    "IndefiniteOperator",
    "estimate_operator_norm",
    "exact_step",
    "truncated_cg_step",
]

_EPS = float(np.finfo(float).eps)
# Relative agreement of successive top Ritz values that ends a norm estimate,
# and the most products J^T (J q) one estimate takes.
_RITZ_RTOL = 1e-3
_MAX_PRODUCTS = 30
# The factor by which a curvature bound exceeds the largest curvature measured.
SAFETY_FACTOR = 1.5


class IndefiniteOperator(RuntimeError):
    """The regularized curvature ||J p||^2 + gamma ||p||^2 along a nonzero
    CGLS direction p underflowed to zero, so the step length would divide by
    zero. With gamma > 0 it is positive in exact arithmetic, but a tiny
    gradient and gamma square to zero in floating point."""


@dataclass
class StepResult:
    """Computed step plus the certificates the outer loop needs."""

    step: np.ndarray
    model_decrease: float
    residual_norm: float
    cg_iters: int
    cg_tolerance: float  # residual target the Krylov solve ran to
    h_norm: float  # the curvature bound that target follows, raised if the solve saw past it
    curvature_seen: float  # the largest Rayleigh quotient ||J p||^2 / ||p||^2 CGLS formed


def estimate_operator_norm(J: LinearOperator) -> float:
    """Safety-factored Lanczos estimate of the spectral norm of J^T J.

    Returns ``SAFETY_FACTOR`` times the final top Ritz value, so the result
    upper-bounds the true norm in practice. Each product J^T (J q) is one
    forward and one transpose application of J, which a ``ReducedJacobian``
    J tallies.

    Lanczos on J^T J, with full reorthogonalization, begins at a fixed start
    vector, the first draw of ``default_rng(0)``, and stops as soon as two
    successive top Ritz values agree to a relative 1e-3 (``_RITZ_RTOL``),
    after at most thirty products (``_MAX_PRODUCTS``), or when the Krylov
    space stops growing. Lanczos from a random start finds the top
    eigenvalue in far fewer products than the power method (Kuczynski &
    Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992). A zero product is
    detected from the start vector and reported as exactly 0, and a product
    whose norm overflows (or is NaN) raises ``FloatingPointError``.
    """
    v = np.random.default_rng(0).standard_normal(J.shape[1])
    # The orthonormal Krylov basis q_0, q_1, ..., one array each, and the
    # diagonal and off-diagonal of the tridiagonal T = Q^T (J^T J) Q. One
    # preallocated block for all 31 vectors the cap allows would raise peak
    # memory by about 0.6 MB on Burgers 128 x 32: freeing a block that large
    # raises the C allocator's mmap threshold, so later arrays of that size
    # stay resident on the heap.
    v /= np.linalg.norm(v)
    basis = [v]
    diag = np.zeros(_MAX_PRODUCTS)
    off = np.zeros(_MAX_PRODUCTS)
    ritz = None
    for k in range(_MAX_PRODUCTS):
        # J^T J q_k; an overflowing product is refused below, so it warns of nothing
        with np.errstate(over="ignore", invalid="ignore"):
            w = J.rmatvec(J @ basis[k])
            nw = np.linalg.norm(w)
        if not math.isfinite(nw):
            raise FloatingPointError(f"curvature-norm estimate overflowed: |J^T J v| = {nw}")
        if nw <= 1e-300 and k == 0:
            return 0.0
        for _ in range(2):  # Gram-Schmidt against the whole basis, twice
            for q in basis:
                c = float(q @ w)
                w = w - c * q  # not in place: J may hand back q itself
            diag[k] += c
        beta = float(np.linalg.norm(w))
        # dstev takes one off-diagonal entry even for a 1 x 1 T; off[0] is 0 then
        values, _, info = dstev(diag[: k + 1], off[: max(k, 1)])
        if info:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info={info})")
        previous, ritz = ritz, float(values[-1])
        if beta <= _EPS * nw or (
            previous is not None and abs(ritz - previous) <= _RITZ_RTOL * ritz
        ):
            break
        basis.append(w / beta)
        off[k] = beta
    return SAFETY_FACTOR * ritz


def _target(gn: float, gamma: float, theta: float | None, h_norm: float) -> float:
    """The residual target of the step rule: exact for ``theta`` None, else
    inexact with relative inexactness theta."""
    scale = math.sqrt(gamma / (h_norm + gamma))
    if theta is None:
        kappa = (h_norm + gamma) / gamma
        return max(min(1e-12, 1e-11 * scale), 50.0 * _EPS * math.sqrt(kappa)) * gn
    return theta * scale * gn


def _cgls(
    g: np.ndarray, gamma: float, J: LinearOperator, R: np.ndarray, h_norm: float, target
) -> StepResult:
    """The Gauss-Newton step: CGLS on ||J s + R||^2 + gamma ||s||^2 from s = 0.

    The tracked quantity is the normal-equation residual -g - (H + gamma I)s,
    exactly the vector the inexactness rule bounds. The solve stops once that
    residual meets the target, once 30 iterations in a row bring no better
    residual, or after 3 n + 30 iterations, and returns the best iterate seen,
    so a stagnating solve still returns its most accurate step; ``cg_iters``
    counts every iteration run. Every update makes new arrays, never writing
    into one it holds, so the best iterate is kept by reference, not copied
    (x and the residual blocks, m + 2 n floats per improving iteration).

    ``target(h_norm)`` is the residual target. Once the running maximum of
    the Rayleigh quotients ||J p||^2 / ||p||^2 passes the ``h_norm`` given,
    ``h_norm`` is ``SAFETY_FACTOR`` times it and the target follows it; the
    iterates do not depend on the target, so nothing restarts.
    """
    h_given = h_norm
    tol = target(h_norm)
    seen = 0.0
    sqrt_gamma = math.sqrt(gamma)
    n = g.shape[0]
    x = np.zeros(n)
    r_top = -R  # top block of b - A x with b = [-R; 0]
    r_bot = np.zeros(n)
    s_vec = -g  # A^T (b - A x)
    p = s_vec
    ss = float(s_vec @ s_vec)
    # the best iterate: its residual, iteration, x and the blocks of b - A x
    best = (math.sqrt(ss), 0, x, r_top, r_bot)
    iters = 0
    while True:
        q_top = J @ p
        q_bot = sqrt_gamma * p
        jp, gp = float(q_top @ q_top), float(q_bot @ q_bot)
        qq = jp + gp
        if qq <= 0:
            raise IndefiniteOperator("zero curvature along a nonzero direction")
        quotient = gamma * jp / gp if gp > 0 else 0.0
        if quotient > seen:
            seen = quotient
            if seen > h_given:
                h_norm = SAFETY_FACTOR * seen
                tol = target(h_norm)
        alpha = ss / qq
        x = x + alpha * p
        r_top = r_top - alpha * q_top
        r_bot = r_bot - alpha * q_bot
        s_vec = J.rmatvec(r_top) + sqrt_gamma * r_bot
        iters += 1
        ss_new = float(s_vec @ s_vec)
        res = math.sqrt(ss_new)
        if res < best[0]:
            best = (res, iters, x, r_top, r_bot)
        if res <= tol or iters - best[1] >= 30 or iters >= 3 * n + 30:
            break
        p = s_vec + (ss_new / ss) * p
        ss = ss_new
    res, _, x, r_top, r_bot = best
    # A x = b - r, so s.(H + gamma I)s = ||A x||^2 without extra applies.
    ax_top = -R - r_top
    curv = float(ax_top @ ax_top) + float(r_bot @ r_bot)
    return StepResult(
        step=x,
        model_decrease=float(-(g @ x) - 0.5 * curv),
        residual_norm=res,
        cg_iters=iters,
        cg_tolerance=tol,
        h_norm=h_norm,
        curvature_seen=seen,
    )


def _step(g, gamma: float, theta: float | None, h_norm: float, J, R) -> StepResult:
    """The step kernel behind ``exact_step`` (``theta`` None) and
    ``truncated_cg_step``: check the model, then take the closed form
    without J or run CGLS with it."""
    g = as_vector(g, None if J is None else J.shape[1], name="gradient")
    gn = norm(g)
    if gn == 0.0:
        raise ValueError("the step requires a nonzero gradient")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if theta is not None and not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}; use exact_step for theta = 0")
    if not h_norm >= 0:
        raise ValueError(f"h_norm must be nonnegative, got {h_norm}")
    if (J is None) != (R is None):
        raise ValueError("J and R must be supplied together")
    target = functools.partial(_target, gn, gamma, theta)
    if J is not None:
        return _cgls(g, gamma, J, as_vector(R, J.shape[0], name="R"), h_norm, target)
    # Zero curvature: the minimizer -g / gamma, one Krylov iteration.
    x = -g / gamma
    return StepResult(
        step=x,
        model_decrease=float(-(g @ x) - 0.5 * gamma * (x @ x)),
        residual_norm=norm(-g - gamma * x),
        cg_iters=1,
        cg_tolerance=target(h_norm),
        h_norm=h_norm,
        curvature_seen=0.0,
    )


def exact_step(
    g, gamma: float, h_norm: float, J: LinearOperator | None = None, R=None
) -> StepResult:
    """Solve (H + gamma I) s = -g to a tiny relative residual.

    The target is min(1e-12, 1e-11 * sqrt(gamma / (h_norm + gamma))) times
    ||g||, floored at what the conditioning of the system makes attainable
    in floating point, so the solve never spins on an impossible tolerance.
    """
    return _step(g, gamma, None, h_norm, J, R)


def truncated_cg_step(
    g, gamma: float, theta: float, h_norm: float, J: LinearOperator | None = None, R=None
) -> StepResult:
    """Run CGLS until the residual drops below theta * sqrt(gamma / (h_norm
    + gamma)) * ||g||, theta in (0, 1).

    The tolerance factor is strictly below one, so at least one iteration
    always happens; zero curvature takes the closed-form step as its one
    iteration.
    """
    return _step(g, gamma, theta, h_norm, J, R)
