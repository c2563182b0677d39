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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinearOperator, as_vector, norm

__all__ = [
    "SubproblemSpec",
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
    """CGLS met nonpositive regularized curvature along a search direction."""


@dataclass
class SubproblemSpec:
    """One regularized model: gradient, curvature factor, and knobs.

    The curvature is H = J^T J for the rectangular Jacobian operator
    ``gn_factor`` = J, supplied with the residual ``gn_residual`` = R at the
    base point (so g = J^T R); without a factor it is zero. Each CGLS
    iteration costs one forward and one transpose application of J.

    h_norm_estimate must be an upper bound on the spectral norm of H for the
    inexact termination rule to retain its guarantees; the power-iteration
    estimator below overshoots on purpose. The solver takes a cold estimate
    at the first base point of a run and warm-starts every later one from the
    previous dominant vector, stopping once the Rayleigh quotient settles.
    """

    g: np.ndarray
    gamma: float
    theta: float
    h_norm_estimate: float
    gn_factor: LinearOperator | None = None
    gn_residual: np.ndarray | None = None

    def __post_init__(self):
        self.g = as_vector(self.g, name="gradient")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        if self.h_norm_estimate < 0:
            raise ValueError("h_norm_estimate must be nonnegative")
        if (self.gn_factor is None) != (self.gn_residual is None):
            raise ValueError("gn_factor and gn_residual must be supplied together")
        if self.gn_residual is not None:
            self.gn_residual = as_vector(self.gn_residual, name="gn_residual")


@dataclass
class StepResult:
    """Computed step plus the certificates the outer loop needs."""

    step: np.ndarray
    model_decrease: float
    residual_norm: float
    cg_iters: int
    cg_tolerance: float  # residual target the Krylov solve ran to


def estimate_operator_norm(
    J: LinearOperator, seed: int = 0, start: np.ndarray | None = None
) -> tuple[float, np.ndarray, int]:
    """Safety-factored power-iteration estimate of the spectral norm of J^T J.

    Returns ``(estimate, v, products)``: 1.5 times the final Rayleigh
    quotient, so the result upper-bounds the true norm in practice; the unit
    vector that quotient belongs to; and the number of products J^T (J v),
    each one forward and one transpose application of J.

    Without ``start`` (a cold estimate) the iteration begins at a fixed-seed
    random vector and takes exactly thirty power steps. With ``start``, say
    the vector a previous estimate at a nearby base point returned, it begins
    there and stops as soon as two successive Rayleigh quotients agree to a
    relative 1e-3 (``_WARM_RTOL``), after at most thirty steps. A zero
    product is detected from the start vector and reported as exactly 0.
    """
    dim = J.shape[1]
    if start is None:
        v = np.random.default_rng(seed).standard_normal(dim)
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


def _inexact_tolerance(spec: SubproblemSpec) -> float:
    """Residual target theta * sqrt(gamma / (||H|| + gamma)) * ||g||."""
    scale = math.sqrt(spec.gamma / (spec.h_norm_estimate + spec.gamma))
    return spec.theta * scale * norm(spec.g)


def _cgls(spec: SubproblemSpec, tol: float):
    """CGLS on ||J s + R||^2 + gamma ||s||^2 from s = 0, J the factor.

    The tracked quantity is the normal-equation residual -g - (H + gamma I)s,
    exactly the vector the inexactness rule bounds. Runs at most 3 n + 30
    iterations and tracks the best iterate seen, so a stagnating solve still
    returns its most accurate step.
    """
    g, gamma = spec.g, spec.gamma
    factor, residual = spec.gn_factor, spec.gn_residual
    sqrt_gamma = math.sqrt(gamma)
    n = g.shape[0]
    x = np.zeros(n)
    r_top = -residual.copy()  # top block of b - A x with b = [-R; 0]
    r_bot = np.zeros(n)
    s_vec = -g.copy()  # A^T (b - A x)
    p = s_vec.copy()
    ss = float(s_vec @ s_vec)
    best = (x.copy(), math.sqrt(ss), 0, r_top.copy(), r_bot.copy())
    stall = 0
    iters = 0
    while iters < 3 * n + 30:
        q_top = factor @ p
        q_bot = sqrt_gamma * p
        qq = float(q_top @ q_top) + float(q_bot @ q_bot)
        if qq <= 0:
            raise IndefiniteOperator("zero curvature along a nonzero direction")
        alpha = ss / qq
        x += alpha * p
        r_top -= alpha * q_top
        r_bot -= alpha * q_bot
        s_vec = factor.rmatvec(r_top) + sqrt_gamma * r_bot
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


def _solve(spec: SubproblemSpec, tol: float) -> StepResult:
    g, gamma = spec.g, spec.gamma
    if spec.gn_factor is None:
        # Zero curvature: the minimizer -g / gamma, one Krylov iteration.
        x = -g / gamma
        res = norm(-g - gamma * x)
        iters = 1
        decrease = float(-(g @ x) - 0.5 * gamma * (x @ x))
    else:
        x, res, iters, r_top, r_bot = _cgls(spec, tol)
        # A x = b - r, so s.(H + gamma I)s = ||A x||^2 without extra applies.
        ax_top = -spec.gn_residual - r_top
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


def exact_step(spec: SubproblemSpec) -> StepResult:
    """Solve (H + gamma I) s = -g to a tiny relative residual.

    The target is min(1e-12, 1e-11 * sqrt(gamma / (||H|| + gamma))) times
    ||g||, floored at what the conditioning of the system makes attainable
    in floating point, so the solve never spins on an impossible tolerance.
    """
    gn = norm(spec.g)
    if gn == 0.0:
        raise ValueError("exact_step requires a nonzero gradient")
    kappa = (spec.h_norm_estimate + spec.gamma) / spec.gamma
    scale = math.sqrt(spec.gamma / (spec.h_norm_estimate + spec.gamma))
    tol = max(min(1e-12, 1e-11 * scale), 50.0 * _EPS * math.sqrt(kappa)) * gn
    return _solve(spec, tol)


def truncated_cg_step(spec: SubproblemSpec) -> StepResult:
    """Run CGLS until the relative-residual inexactness rule is met.

    The tolerance factor theta * sqrt(gamma / (||H|| + gamma)) is strictly
    below one, so at least one iteration always happens for a nonzero
    gradient. Zero curvature takes the closed-form step as its one iteration.
    """
    if norm(spec.g) == 0.0:
        raise ValueError("truncated_cg_step requires a nonzero gradient")
    if spec.theta <= 0.0:
        raise ValueError("truncated_cg_step requires theta > 0; use exact_step")
    return _solve(spec, _inexact_tolerance(spec))
