"""Numerical Legendre-Fenchel transforms, grid derivatives and level solvers.

All operations here are one-dimensional: the experiments and the acceptance
targets are 1-d, and d-dimensional conjugates are exposed only through
closed-form models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DataError, NumericalError, UsageError
from .blockstats import SampledFunction

_XS_CHUNK = 1024
_LEVEL_BRACKET = 50.0
_LEVEL_TOL = 1e-9
_SLOPE_TOL = 1e-10
_SLOPE_EXPAND_CAP = 2.0 ** 60


@dataclass(frozen=True)
class ConjugateResult:
    """Discrete Legendre transform f*(x) = max over grid lambda of (lambda*x - f(lambda)).

    argmax holds the exposing grid slope per x; boundary is set when the max
    is attained at an endpoint of the finite part of the grid, in which case
    the value is only a lower bound for the true conjugate.  The values are
    convex on the x grid by construction (a maximum of affine functions).
    """

    xs: np.ndarray
    values: np.ndarray
    argmax: np.ndarray
    boundary: np.ndarray


def legendre(f: SampledFunction, xs) -> ConjugateResult:
    """Discrete Legendre-Fenchel transform of a sampled function.

    The sup is taken exactly over the grid, without interpolation; +inf
    entries of f are excluded.  Ties resolve to the smallest grid slope.
    For a smooth convex f whose exposing slope for x lies strictly inside
    the grid, the discrete max undershoots the true conjugate by at most
    h^2/8 times the local second derivative of f (h the grid step).

    Raises DataError if no grid value is finite.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if xs.ndim != 1:
        raise UsageError("x grid must be one-dimensional")
    if np.any(np.isnan(f.values)):
        raise DataError("sampled function contains NaN values")
    finite = np.isfinite(f.values)
    if not finite.any():
        raise DataError("sampled function has empty finite support")
    g = f.grid[finite]
    v = f.values[finite]
    last = len(g) - 1
    values = np.empty(xs.shape)
    argmax = np.empty(xs.shape)
    boundary = np.empty(xs.shape, dtype=bool)
    for i0 in range(0, len(xs), _XS_CHUNK):
        xc = xs[i0 : i0 + _XS_CHUNK]
        scores = xc[:, None] * g[None, :] - v[None, :]
        idx = np.argmax(scores, axis=1)
        rows = np.arange(len(xc))
        values[i0 : i0 + _XS_CHUNK] = scores[rows, idx]
        argmax[i0 : i0 + _XS_CHUNK] = g[idx]
        boundary[i0 : i0 + _XS_CHUNK] = (idx == 0) | (idx == last)
    return ConjugateResult(xs=xs, values=values, argmax=argmax, boundary=boundary)


def grad_estimate(f: SampledFunction) -> SampledFunction:
    """Derivative of a sampled function on its own uniform grid.

    Central differences at interior nodes, second-order one-sided stencils
    at the two ends (exact for quadratic data everywhere; first-order end
    stencils would lose a factor h at the boundary nodes).
    """
    if len(f.grid) < 3:
        raise UsageError("derivative estimation needs at least 3 grid points")
    if not np.all(np.isfinite(f.values)):
        raise DataError("derivative estimation requires finite values")
    h = (f.grid[-1] - f.grid[0]) / (len(f.grid) - 1)
    if np.max(np.abs(np.diff(f.grid) - h)) > 1e-9 * max(1.0, abs(h)):
        raise UsageError("derivative estimation requires a uniform grid")
    meta = dict(f.meta)
    meta["derived"] = "grad"
    return SampledFunction(grid=f.grid, values=np.gradient(f.values, h, edge_order=2),
                           meta=meta)


def _bisect(fn, target: float, lo: float, hi: float, tol: float, what: str) -> float:
    """Halve [lo, hi] up to 500 times until |fn(mid) - target| <= tol; fn is
    monotone, below target at lo and above at hi (lo may exceed hi)."""
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if abs(fm - target) <= tol:
            return mid
        if fm < target:
            lo = mid
        else:
            hi = mid
    raise NumericalError("%s bisection did not reach tolerance %g" % (what, tol))


def solve_slope(model, x: float) -> float:
    """The tilt lambda with Lambda'(lambda) = x, for a 1-d model.

    Bisection on the nondecreasing derivative, bracket auto-expanded, down
    to |Lambda'(lambda) - x| <= 1e-10.  Raises DataError when x is outside
    the attainable slopes.
    """
    if model.d != 1:
        raise UsageError("solve_slope requires a 1-d model")
    x = float(x)
    if not np.isfinite(x):
        raise UsageError("target slope must be finite")
    lo, hi = -1.0, 1.0
    while model.grad(lo) >= x:
        lo *= 2.0
        if -lo > _SLOPE_EXPAND_CAP:
            raise DataError("x=%r is at or below the attainable slope range" % (x,))
    while model.grad(hi) <= x:
        hi *= 2.0
        if hi > _SLOPE_EXPAND_CAP:
            raise DataError("x=%r is at or above the attainable slope range" % (x,))
    return _bisect(model.grad, x, lo, hi, _SLOPE_TOL, "slope")


def rate_along(model, lam) -> float:
    """g(lambda) = Lambda*(Lambda'(lambda)) via the duality identity.

    g(lambda) = <lambda, Lambda'(lambda)> - Lambda(lambda), exact at exposed
    points; lam is a scalar or, for a d-dimensional model, a vector.  At the
    tilt lambda0 it is the critical schedule exponent.
    """
    return float(np.dot(np.atleast_1d(lam), np.atleast_1d(model.grad(lam)))
                 - model.lam(lam))


def _level_point_side(model, c: float, side: int) -> float | None:
    """Solve g(lambda) = c on one side of 0 (side=+1 right, -1 left).

    g vanishes at 0 and is nondecreasing in |lambda| (g'(lambda) =
    lambda * Lambda''(lambda)), so bisection on [0, 50] or [-50, 0] applies.
    Returns None when the level is not attained inside the bracket.
    """
    outer = side * _LEVEL_BRACKET
    if rate_along(model, outer) < c - _LEVEL_TOL:
        return None
    return _bisect(lambda lam: rate_along(model, lam), c, 0.0, outer, _LEVEL_TOL,
                   "level")


def find_level_points(model, c: float) -> tuple[float, float]:
    """The two solutions (lambda1 < 0 < lambda2) of Lambda*(Lambda'(lambda)) = c.

    Both solutions satisfy |g(lambda) - c| <= 1e-9.  Raises DataError when
    the level is not attained on a side within the bracket [-50, 50].
    """
    if model.d != 1:
        raise UsageError("find_level_points requires a 1-d model")
    if not c > 0:
        raise UsageError("level must be > 0, got %r" % (c,))
    lam2 = _level_point_side(model, c, +1)
    if lam2 is None:
        raise DataError("level %g not attained for lambda in (0, 50]" % c)
    lam1 = _level_point_side(model, c, -1)
    if lam1 is None:
        raise DataError("level %g not attained for lambda in [-50, 0)" % c)
    return lam1, lam2
