"""Block empirical measures and empirical scaled-cumulant generating functions.

A sequence is cut into k consecutive blocks of length n; the block empirical
measure is the uniform measure on the k normalized block sums, and the
empirical SCGF is

    L_n(lambda) = (1/n) * log( (1/k) * sum_j exp(n * <lambda, mean_j>) )

evaluated through a log-sum-exp shift.  The measure is stored as distinct
means with integer counts: when every block sum of a scalar observable is an
integer (digits, indicators, Bernoulli and integer-valued Markov observables)
the sums take few values (at most n+1 for a 0/1 observable), and the means
are the distinct sums divided by n in increasing order, each weighted by its
block count.  Otherwise the means stay in block order with unit weights.
Every reduction in this module uses one fixed pairwise (tree) summation over
row order, so serial, chunked and parallel evaluations agree bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._errors import DataError, UsageError
from .sources import SeriesSource

_CHUNK_VALUES = 1 << 21


def pairwise_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along an axis with the fixed pairwise tree.

    Level by level, element 2r is added to element 2r+1 in index order; an
    odd trailing element is carried to the next level unchanged.  The result
    is a pure function of the operand order, independent of chunking or
    worker count, which is the determinism contract for every reduction in
    the package.
    """
    a = np.moveaxis(np.asarray(a, dtype=np.float64), axis, -1)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    while a.shape[-1] > 1:
        m = a.shape[-1]
        even = m - (m % 2)
        s = a[..., 0:even:2] + a[..., 1:even:2]
        if m % 2:
            s = np.concatenate([s, a[..., m - 1 : m]], axis=-1)
        a = s
    return a[..., 0]


@dataclass(frozen=True)
class BlockStats:
    """Normalized block sums of one sample path, as a weighted point set.

    means has shape (r, d) and weights[i] counts the blocks whose mean is
    means[i]; the weights are integers >= 1 that sum to the block count k.
    weights=None means one block per row (r = k).  Every coordinate of a
    bounded observable's block mean stays in the observable's range.
    """

    n: int
    k: int
    d: int
    means: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        rows = np.shape(self.means)[0]
        w = (np.broadcast_to(np.int64(1), (rows,)) if self.weights is None
             else np.asarray(self.weights))
        if w.ndim != 1 or w.shape[0] != rows or not np.issubdtype(w.dtype, np.integer):
            raise UsageError("weights must be a 1-d integer array with one entry "
                             "per row of means")
        if not np.all(w >= 1) or int(w.sum()) != self.k:
            raise UsageError("weights must be >= 1 and sum to the block count %d" % self.k)
        object.__setattr__(self, "weights", w.astype(np.int64, copy=False))


@dataclass
class SampledFunction:
    """A function sampled on a strictly increasing scalar grid.

    Values live in R extended by +inf (serialized as the literal "inf").
    meta carries run metadata such as n, k, seed and a model tag.
    """

    grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise UsageError("grid and values must be 1-d arrays of equal length")
        if self.grid.size >= 2 and not np.all(np.diff(self.grid) > 0):
            raise UsageError("grid must be strictly increasing")


def block_means(source: SeriesSource, n: int, k: int, start_index: int = 0) -> BlockStats:
    """Means of k consecutive length-n blocks starting at start_index.

    Parameters
    ----------
    source : SeriesSource
        Supplies n*k observations from start_index.
    n, k : int
        Block length and block count, both >= 1, with n*k < 2**63.

    Each block sum uses the fixed pairwise tree over its n observations, so
    the result does not depend on the internal batching.  When d == 1 and
    every block sum is an integer, the stats hold the distinct sums / n in
    increasing order with their block counts as weights; otherwise they hold
    the means in block order with unit weights.  Raises DataError when the
    source is exhausted, stating how many full blocks were available.
    """
    if n < 1 or k < 1:
        raise UsageError("block length and block count must be >= 1")
    if start_index < 0:
        raise UsageError("start_index must be >= 0")
    if n * k > np.iinfo(np.int64).max:
        raise UsageError("n*k = %d*%d observations exceed 2**63 - 1" % (n, k))
    d = source.d
    sums = np.empty((k, d), dtype=np.float64)
    integral = d == 1
    step = max(1, _CHUNK_VALUES // max(1, n * d))
    for j0 in range(0, k, step):
        cnt = min(step, k - j0)
        try:
            batch = source.batch(start_index + j0 * n, cnt * n)
        except DataError as err:
            avail = getattr(err, "symbols_available", None)
            if avail is None:
                raise
            full = max(0, (int(avail) - start_index) // n)
            raise DataError(
                "source exhausted: only %d full blocks of length %d available "
                "from index %d, needed %d" % (full, n, start_index, k)
            ) from err
        part = pairwise_sum(batch.reshape(cnt, n, d), axis=1)
        sums[j0 : j0 + cnt] = part
        integral = integral and np.array_equal(part, np.rint(part))
    if integral:
        values, counts = np.unique(sums[:, 0], return_counts=True)
        return BlockStats(n=n, k=k, d=d, means=(values / n)[:, None], weights=counts)
    sums /= n
    return BlockStats(n=n, k=k, d=d, means=sums)


def scgf_values(stats: BlockStats, lambdas: np.ndarray) -> np.ndarray:
    """Empirical SCGF values at an array of tilt vectors.

    lambdas has shape (G,) for d=1 or (G, d); the value at each lambda is
    (1/n) * (M + log(sum_i w_i exp(n <lambda, mean_i> - M) / k)) with M the
    maximum exponent and w the weights, the sum taken with the fixed pairwise
    tree over the rows of stats.means (distinct sums in increasing order for
    integer block sums, block order otherwise).
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim == 1 and stats.d != 1:
        raise UsageError("scalar tilt grid requires d=1 block stats")
    if lam.ndim == 2 and lam.shape[1] != stats.d:
        raise UsageError("tilt vectors have dimension %d, stats have d=%d"
                         % (lam.shape[1], stats.d))
    if not np.all(np.isfinite(stats.means)):
        raise DataError("block means contain non-finite entries")
    proj = stats.means[:, 0] if lam.ndim == 1 else None
    out = np.empty(lam.shape[0], dtype=np.float64)
    gstep = max(1, _CHUNK_VALUES // max(1, stats.means.shape[0]))
    for g0 in range(0, lam.shape[0], gstep):
        lam_c = lam[g0 : g0 + gstep]
        if lam.ndim == 1:
            t = np.outer(lam_c, proj) * stats.n
        else:
            t = (lam_c @ stats.means.T) * stats.n
        M = t.max(axis=1)
        terms = np.exp(t - M[:, None]) * stats.weights
        mean = pairwise_sum(terms, axis=1) / stats.k
        out[g0 : g0 + gstep] = (M + np.log(mean)) / stats.n
    return out


def empirical_scgf(stats: BlockStats, lambdas, meta: dict | None = None) -> SampledFunction:
    """Empirical SCGF on a strictly increasing scalar tilt grid (d=1).

    Exact at lambda=0: there every shifted term is its integer weight, the
    pairwise sum of the weights is exactly k, and the mean is exactly 1.
    For vector tilts with d>1 use scgf_values directly.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1:
        raise UsageError("empirical_scgf needs a 1-d tilt grid; "
                         "use scgf_values for vector tilts")
    base = {"n": stats.n, "k": stats.k, "d": stats.d}
    if meta:
        base.update(meta)
    return SampledFunction(grid=lam, values=scgf_values(stats, lam), meta=base)


def ball_mass(stats: BlockStats, x, eps: float) -> tuple[int, float]:
    """Count and fraction of blocks whose mean lies in the closed ball B(x, eps)."""
    if not eps > 0:
        raise UsageError("ball radius must be > 0")
    center = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if center.shape != (stats.d,):
        raise UsageError("ball center must have dimension %d" % stats.d)
    diff = stats.means - center[None, :]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    count = int(stats.weights[dist <= eps].sum())
    return count, count / stats.k


def local_rate(stats: BlockStats, x, eps: float) -> float:
    """-(1/n) log of the ball mass; +inf sentinel when the ball is empty."""
    count, mass = ball_mass(stats, x, eps)
    if count == 0:
        return np.inf
    return (-np.log(mass) / stats.n) + 0.0
