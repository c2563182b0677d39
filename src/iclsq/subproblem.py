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
the pair H is zero. ``h_norm`` must bound ||H|| from above for the
inexactness rule to keep its guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinearOperator, as_vector, norm

__all__ = [
    "StepResult",
    "IndefiniteOperator",
    "estimate_operator_norm",
    "exact_step",
    "truncated_cg_step",
]

_EPS = float(np.finfo(float).eps)
# Relative agreement of successive Rayleigh quotients that ends a warm start.
_WARM_RTOL = 1e-3


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


def estimate_operator_norm(
    J: LinearOperator, start: np.ndarray | None = None
) -> tuple[float, np.ndarray, int]:
    """Safety-factored power-iteration estimate of the spectral norm of J^T J.

    Returns ``(estimate, v, products)``: 1.5 times the final Rayleigh
    quotient, so the result upper-bounds the true norm in practice; the unit
    vector that quotient belongs to; and the number of products J^T (J v),
    each one forward and one transpose application of J.

    Without ``start`` (a cold estimate) the iteration begins at a fixed
    start vector, the first draw of ``default_rng(0)``, and takes exactly
    thirty power steps. With ``start``, say the vector a previous estimate
    at a nearby base point returned, it begins there and stops as soon as
    two successive Rayleigh quotients agree to a relative 1e-3
    (``_WARM_RTOL``), after at most thirty steps. A zero
    product is detected from the start vector and reported as exactly 0.
    """
    dim = J.shape[1]
    if start is None:
        v = np.random.default_rng(0).standard_normal(dim)
    else:
        v = as_vector(start, dim, name="start").copy()
    v /= np.linalg.norm(v)
    hv = J.rmatvec(J @ v)
    products = 1
    quotient = float(v @ hv)
    for _ in range(30):
        nv = np.linalg.norm(hv)
        if nv <= 1e-300:
            return 0.0, v, products
        v = hv / nv
        hv = J.rmatvec(J @ v)
        products += 1
        previous, quotient = quotient, float(v @ hv)
        if start is not None and abs(quotient - previous) <= _WARM_RTOL * quotient:
            break
    return 1.5 * quotient, v, products


def _cgls(g: np.ndarray, gamma: float, J: LinearOperator, R: np.ndarray, tol: float):
    """CGLS on ||J s + R||^2 + gamma ||s||^2 from s = 0.

    The tracked quantity is the normal-equation residual -g - (H + gamma I)s,
    exactly the vector the inexactness rule bounds. Runs at most 3 n + 30
    iterations and tracks the best iterate seen, so a stagnating solve still
    returns its most accurate step.
    """
    sqrt_gamma = math.sqrt(gamma)
    n = g.shape[0]
    x = np.zeros(n)
    r_top = -R.copy()  # top block of b - A x with b = [-R; 0]
    r_bot = np.zeros(n)
    s_vec = -g.copy()  # A^T (b - A x)
    p = s_vec.copy()
    ss = float(s_vec @ s_vec)
    best = (x.copy(), math.sqrt(ss), 0, r_top.copy(), r_bot.copy())
    stall = 0
    iters = 0
    while iters < 3 * n + 30:
        q_top = J @ p
        q_bot = sqrt_gamma * p
        qq = float(q_top @ q_top) + float(q_bot @ q_bot)
        if qq <= 0:
            raise IndefiniteOperator("zero curvature along a nonzero direction")
        alpha = ss / qq
        x += alpha * p
        r_top -= alpha * q_top
        r_bot -= alpha * q_bot
        s_vec = J.rmatvec(r_top) + sqrt_gamma * r_bot
        iters += 1
        ss_new = float(s_vec @ s_vec)
        res = math.sqrt(ss_new)
        if res < best[1]:
            best = (x.copy(), res, iters, r_top.copy(), r_bot.copy())
            stall = 0
        else:
            stall += 1
        if res <= tol:
            return x, res, iters, r_top, r_bot
        if stall >= 30:
            break
        p = s_vec + (ss_new / ss) * p
        ss = ss_new
    bx, bres, _, btop, bbot = best
    return bx, bres, iters, btop, bbot


def _step(g, gamma: float, theta: float | None, h_norm: float, J, R) -> StepResult:
    """The step kernel behind ``exact_step`` (``theta`` None) and
    ``truncated_cg_step``: check the model, set the residual target, then
    take the closed form without J or run CGLS with it."""
    g = as_vector(g, name="gradient")
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
    scale = math.sqrt(gamma / (h_norm + gamma))
    if theta is None:
        kappa = (h_norm + gamma) / gamma
        tol = max(min(1e-12, 1e-11 * scale), 50.0 * _EPS * math.sqrt(kappa)) * gn
    else:
        tol = theta * scale * gn
    if J is None:
        # Zero curvature: the minimizer -g / gamma, one Krylov iteration.
        x = -g / gamma
        res = norm(-g - gamma * x)
        iters = 1
        decrease = float(-(g @ x) - 0.5 * gamma * (x @ x))
    else:
        R = as_vector(R, name="R")
        x, res, iters, r_top, r_bot = _cgls(g, gamma, J, R, tol)
        # A x = b - r, so s.(H + gamma I)s = ||A x||^2 without extra applies.
        ax_top = -R - r_top
        ax_bot = -r_bot
        curv = float(ax_top @ ax_top) + float(ax_bot @ ax_bot)
        decrease = float(-(g @ x) - 0.5 * curv)
    return StepResult(
        step=x,
        model_decrease=decrease,
        residual_norm=res,
        cg_iters=iters,
        cg_tolerance=tol,
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
