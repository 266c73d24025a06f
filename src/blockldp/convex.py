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

_LEVEL_BRACKET = 50.0
_LEVEL_TOL = 1e-9
# Halvings per batched level-solver call (2^D - 1 tilts); D divides 500.
_LEVEL_DEPTH = 4


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

    Cost O(G + X) for G samples of a convex f and X slopes (Lucet's linear-
    time transform): a search over the hull's edge slopes finds each x's
    exposing vertex of the samples' lower convex hull; comparing float scores
    near it then gives the dense max over all samples bit for bit.

    Raises UsageError for a non-finite x, DataError if no value is finite.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if xs.ndim != 1 or not np.all(np.isfinite(xs)):
        raise UsageError("x grid must be a one-dimensional array of finite values")
    if np.any(np.isnan(f.values)):
        raise DataError("sampled function contains NaN values")
    finite = np.isfinite(f.values)
    if not finite.any():
        raise DataError("sampled function has empty finite support")
    g, v = f.grid[finite], f.values[finite]
    gl, vl, hull = g.tolist(), v.tolist(), []
    for j in range(len(gl)):  # Andrew's monotone chain; collinear points drop
        while len(hull) > 1 and ((gl[hull[-1]] - gl[hull[-2]]) * (vl[j] - vl[hull[-2]])
                                 <= (vl[hull[-1]] - vl[hull[-2]]) * (gl[j] - gl[hull[-2]])):
            hull.pop()
        hull.append(j)
    hull, last = np.array(hull), len(hull) - 1
    # The first hull vertex whose right edge is at least x steep exposes x.
    pos = np.searchsorted(np.diff(v[hull]) / np.diff(g[hull]), xs)

    def score(at):
        return xs * g[hull[at]] - v[hull[at]]

    # Widen each window while an outer hull vertex scores within a margin, far
    # above rounding, of the exposing one: no sample outside can win in float.
    floor = score(pos) - 2.0 ** -40 * (np.abs(xs) * np.abs(g).max() + np.abs(v).max())
    lo, hi = np.maximum(pos - 1, 0), np.minimum(pos + 1, last)
    while (left := (lo > 0) & (score(lo) >= floor)).any() | \
            (right := (hi < last) & (score(hi) >= floor)).any():
        lo, hi = lo - left, hi + right
    idx, top = hull[lo], score(lo)
    for t in range(1, int(np.max(hull[hi] - hull[lo], initial=0)) + 1):
        j = np.minimum(hull[lo] + t, hull[hi])
        s = xs * g[j] - v[j]
        idx, top = np.where(s > top, j, idx), np.where(s > top, s, top)
    return ConjugateResult(xs=xs, values=top, argmax=g[idx],
                           boundary=(idx == 0) | (idx == len(g) - 1))


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
    return SampledFunction(grid=f.grid, values=np.gradient(f.values, h, edge_order=2))


def _rate_and_slope(model, lam):
    """(rate_along(model, lam), Lambda'(lam)) from one grad and one lam call."""
    t = np.asarray(lam, dtype=np.float64)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise UsageError("tilt lambda=%g must be finite" % bad[0])
    with np.errstate(over="ignore", invalid="ignore"):
        x = model.grad(t)
        g = t * x - model.lam(t)
    bad = t[~np.isfinite(g)]
    if bad.size:
        raise NumericalError("lambda*Lambda'(lambda) - Lambda(lambda) is not finite "
                             "at tilt lambda=%g" % bad[0])
    return g, x


def rate_along(model, lam):
    """g(lambda) = Lambda*(Lambda'(lambda)) of a 1-d model via the duality identity.

    g(lambda) = lambda * Lambda'(lambda) - Lambda(lambda), exact at exposed
    points.  At the tilt lambda0 it is the critical schedule exponent.
    lam is a scalar (the result is a float) or an array of tilts (the result
    is an array of the same shape, each value bit for bit the scalar one).
    Raises UsageError for a non-finite tilt and NumericalError, naming the
    tilt, where g is not finite.
    """
    g = _rate_and_slope(model, lam)[0]
    return float(g) if np.ndim(g) == 0 else g


def _level_point_side(model, c: float, side: int) -> float:
    """Solve g(lambda) = c on one side of 0 (side=+1 right, -1 left).

    g vanishes at 0 and is nondecreasing in |lambda| (g'(lambda) =
    lambda * Lambda''(lambda)), so bisection on [0, 50] or [-50, 0] applies:
    up to 500 halvings until |g(mid) - c| <= 1e-9.  Returns side * inf when
    the level is not attained inside the bracket.

    Each rate_along call takes, as one array, every midpoint that the next
    D = _LEVEL_DEPTH halvings could visit: a heap of 2^D - 1 tilts, node i
    the midpoint 0.5 * (lo + hi) of its bracket and nodes 2i + 1, 2i + 2
    those of its left and right halves (the first call also takes the outer
    probe at side * 50).  The walk then compares them one at a time in the
    one-tilt order, so the result is the one-tilt bisection's bit for bit.
    """
    outer = side * _LEVEL_BRACKET
    lo, hi, probe = 0.0, outer, [outer]
    for _ in range(500 // _LEVEL_DEPTH):
        mids, spans = [], [(lo, hi)]
        for i in range(2 ** _LEVEL_DEPTH - 1):
            a, b = spans[i]
            mids.append(0.5 * (a + b))
            spans += [(a, mids[i]), (mids[i], b)]
        g = rate_along(model, np.array(probe + mids)).tolist()
        if probe and g.pop(0) < c - _LEVEL_TOL:
            return side * np.inf
        probe, i = [], 0
        for _ in range(_LEVEL_DEPTH):
            if abs(g[i] - c) <= _LEVEL_TOL:
                return mids[i]
            if g[i] < c:
                lo, i = mids[i], 2 * i + 2
            else:
                hi, i = mids[i], 2 * i + 1
    raise NumericalError("level bisection did not reach tolerance %g" % _LEVEL_TOL)


def find_level_points(model, c: float) -> tuple[float, float]:
    """The two solutions (lambda1 < 0 < lambda2) of Lambda*(Lambda'(lambda)) = c.

    Both solutions satisfy |g(lambda) - c| <= 1e-9.  A side whose level is
    not attained within the bracket [-50, 50] is open: its point is -inf
    (left) or +inf (right).
    """
    if model.d != 1:
        raise UsageError("find_level_points requires a 1-d model")
    if not c > 0:
        raise UsageError("level must be > 0, got %r" % (c,))
    return _level_point_side(model, c, -1), _level_point_side(model, c, +1)
