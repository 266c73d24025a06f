"""Numerical Legendre-Fenchel transforms and grid derivatives of sampled functions.

Nothing here evaluates a model.  All operations are one-dimensional: the
experiments and the acceptance targets are 1-d, and d-dimensional
conjugates are exposed only through closed-form models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DataError, UsageError


@dataclass
class SampledFunction:
    """A function sampled on a strictly increasing scalar grid.

    Values live in R extended by +inf (serialized as the literal "inf").
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise UsageError("grid and values must be 1-d arrays of equal length")
        if self.grid.size >= 2 and not np.all(np.diff(self.grid) > 0):
            raise UsageError("grid must be strictly increasing")


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

    For G samples and X slopes, a search over the hull's edge slopes finds
    each x's exposing vertex of the samples' lower convex hull (Lucet's
    linear-time transform); comparing float scores near it then gives the
    dense max over all samples bit for bit.  That comparison scores every
    sample between the window's hull vertices, and the hull drops collinear
    samples, so the cost is O(G + X) on a strictly convex f but grows to
    O(G * X) on an affine one (1.6 s at G = 64,000 and X = 999 on a 2-core
    Xeon, against 0.045 s on a quadratic).

    Raises UsageError for a non-finite x, DataError for a NaN or -inf value
    (f's values lie in R or are +inf) or if no value is finite.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if xs.ndim != 1 or not np.all(np.isfinite(xs)):
        raise UsageError("x grid must be a one-dimensional array of finite values")
    if not np.all(f.values > -np.inf):  # NaN fails the comparison too
        raise DataError("sampled function values must lie in R or be +inf, not NaN or -inf")
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

