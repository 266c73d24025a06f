"""Block empirical measures and empirical scaled-cumulant generating functions.

A sequence is cut into k consecutive blocks of length n; the block empirical
measure is the uniform measure on the k normalized block sums, and the
empirical SCGF is

    L_n(lambda) = (1/n) * log( (1/k) * sum_j exp(n * <lambda, mean_j>) )

evaluated through a log-sum-exp shift.  The measure is stored as distinct
means with integer counts when the source is a lattice: an integer-valued
scalar observable (digits, indicators, Bernoulli and integer-valued Markov
observables).  Its block sums are summed exactly as integers, with no float
tree, and take few values (at most n+1 for a 0/1 observable); the means are
the distinct sums divided by n in increasing order, each weighted by its
block count.  Lattice-ness is a property of the source, never of the data:
a continuous source keeps its means in block order with unit weights even
when every block sum happens to be an integer.  BlockStats reads k (the
weights' sum) and d (the columns of means) from its finite points.  The float
block sums and the SCGF's sum over rows both go through _tree, one fixed
pairwise summation in row order, so serial, chunked and parallel
evaluations agree bit-exactly.

block_means alone uses threads: on a digit, Bernoulli or Gaussian source,
Reader._reduce_blocks cuts the k blocks into parts of at least 2**16 values
counting every coordinate, and runs the reducer on each part's own thread.
It writes the part's block sums into its rows of the (k, d) sums (float path)
or returns the part's exact tally (lattice path), which block_means merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sources
from ._errors import DataError, UsageError, fmt_int
from ._serialize import fmt_cell


def _tree(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum the rows of a float64 array a with the fixed pairwise tree: level
    by level, row 2r is added to row 2r + 1 in index order, and an odd
    trailing row is carried up unchanged.  The result is a pure function of
    the operand order, independent of chunking or worker count: the
    determinism contract for every float reduction in the package.

    a has at least one row.  Each level adds into one of the halves
    scratch[:h] and scratch[h:], h = ceil(len(a) / 2), in turn; scratch has
    as many rows as a, of the same shape, in any layout, and long contiguous
    rows make each level a few long vector adds.  Returns a view of scratch,
    or a's own row 0 when a has one row.
    """
    m = len(a)
    halves = (scratch[: (m + 1) // 2], scratch[(m + 1) // 2 :])
    while m > 1:
        even, dst = m - m % 2, halves[0]
        np.add(a[0:even:2], a[1:even:2], out=dst[: even // 2], dtype=np.float64)
        if m % 2:
            dst[even // 2] = a[m - 1]
        a, m, halves = dst, (m + 1) // 2, halves[::-1]
    return a[0]


@dataclass(frozen=True)
class BlockStats:
    """Normalized block sums of one sample path, as a weighted point set.

    means has shape (r, d), r >= 1; weights[i] >= 1 counts the blocks whose
    mean is means[i], and weights=None means one block per row.  k (the
    weights' sum) and d (the columns of means) are read from the points.
    Every mean is finite (DataError otherwise), and every coordinate of a
    bounded observable's block mean stays in the observable's range.
    """

    n: int
    means: np.ndarray
    weights: np.ndarray | None = None
    k: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        if np.ndim(self.means) != 2 or np.shape(self.means)[0] < 1:
            raise UsageError("means must have shape (r, d) with r >= 1, got %s"
                             % (np.shape(self.means),))
        rows, d = np.shape(self.means)
        w = (np.broadcast_to(np.int64(1), (rows,)) if self.weights is None
             else np.asarray(self.weights))
        if (w.ndim != 1 or w.shape[0] != rows or not np.issubdtype(w.dtype, np.integer)
                or not np.all(w >= 1)):
            raise UsageError("weights must be a 1-d integer array of counts >= 1, one "
                             "per row of means")
        if not np.all(np.isfinite(self.means)):
            raise DataError("block means contain non-finite entries")
        object.__setattr__(self, "weights", w.astype(np.int64, copy=False))
        object.__setattr__(self, "k", int(self.weights.sum()))
        object.__setattr__(self, "d", d)


def block_means(source: sources.SeriesSource, n: int, k: int) -> BlockStats:
    """Means of the first k consecutive length-n blocks of a source.

    Parameters
    ----------
    source : SeriesSource
        Supplies observations 0..n*k-1, read in order through one reader.
    n, k : int
        Block length and block count, both >= 1, with n*k < 2**63.

    A lattice source, an integer-valued scalar one (source.int_bound is not
    None) whose block sums stay within n * int_bound <= 2**53, has its values
    summed exactly: in uint16 when they are uint8 (the digit kinds and
    Bernoulli) and n * int_bound < 2**16, else in int64.  The stats hold the
    distinct sums / n in increasing order with their block counts as weights,
    merged piece by piece, so memory stays flat in k and in the observable's
    range.  Any other source is summed with the fixed pairwise tree over each
    block's n observations and keeps its means in block order with unit
    weights.
    A digit, Bernoulli or Gaussian source is generated and reduced in parts
    of whole blocks, one per thread.  Neither form depends on the internal
    batching or on the thread count.  Raises DataError when the source is
    exhausted, stating how many full blocks were available, or a block sum
    overflows to a non-finite mean.
    """
    if n < 1 or k < 1:
        raise UsageError("block length and block count must be >= 1")
    if n * k > np.iinfo(np.int64).max:
        raise UsageError("n*k = %s*%s observations exceed 2**63 - 1"
                         % (fmt_int(n), fmt_int(k)))
    d = source.d
    bound = source.int_bound
    if bound is not None and n * bound <= 2 ** 53:
        # A part tallies its block sums once they number at least
        # sources._BLOCK and its merged tally's size, so each merge costs at
        # most twice the sums it takes in and the total stays O(k log k).
        def tally(pieces):
            merged, sums = (np.zeros(0, dtype=np.int64),) * 2, []
            for _, values in pieces:
                acc = (np.uint16 if values.dtype == np.uint8 and n * bound < 2 ** 16
                       else np.int64)
                sums.append(values.reshape(-1, n).sum(axis=1, dtype=acc))
                if sum(map(len, sums)) >= max(merged[0].size, sources._BLOCK):
                    merged = _merge_tallies([merged, np.unique(np.concatenate(sums),
                                                               return_counts=True)])
                    sums = []
            sums.append(np.zeros(0, dtype=np.int64))
            return _merge_tallies([merged, np.unique(np.concatenate(sums), return_counts=True)])

        values, counts = _merge_tallies(source.reader()._reduce_blocks(n, k, tally))
        return BlockStats(n=n, means=(values / n)[:, None], weights=counts)
    sums = np.empty((k, d), dtype=np.float64)

    def tree(pieces):
        # A piece's blocks are summed as n rows of (blocks, d) values; the
        # first level reads them straight from the (blocks, n, d) values.  An
        # overflowing sum stays inf or NaN, unwarned, for BlockStats to refuse.
        scratch = None
        for j, values in pieces:
            rows = values.reshape(-1, n, d).transpose(1, 0, 2)
            if scratch is None:
                scratch = np.empty(rows.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                sums[j : j + rows.shape[1]] = _tree(rows, scratch[:, : rows.shape[1]])

    source.reader()._reduce_blocks(n, k, tree)
    sums /= n
    return BlockStats(n=n, means=sums)


def _merge_tallies(tallies):
    """One (distinct values, counts) pair from several, counts added exactly."""
    values, slot = np.unique(np.concatenate([t[0] for t in tallies]), return_inverse=True)
    counts = np.zeros(values.size, dtype=np.int64)
    np.add.at(counts, slot, np.concatenate([t[1] for t in tallies]))
    return values, counts


def scgf_values(stats: BlockStats, lambdas: np.ndarray) -> np.ndarray:
    """Empirical SCGF values of d = 1 block stats at a 1-d array of tilts.

    Tilts come in any order, 2**16 // r per batch for r rows; each value is
    (1/n) * (M + log(sum_i w_i exp(n lambda mean_i - M) / k)) with M the
    maximum exponent and w the weights, the sum taken with the fixed pairwise
    tree over the rows of stats.means (distinct sums in increasing order for
    a lattice source, block order otherwise).  Exact at lambda = 0: there
    every shifted term is its integer weight, the pairwise sum of the weights
    is exactly k, and the mean is exactly 1.  Other tilt shapes, a
    non-finite tilt or d > 1 stats raise UsageError.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1 or stats.d != 1:
        raise UsageError("the empirical SCGF needs a 1-d tilt array and d=1 block "
                         "stats, got tilts of shape %s and d=%d" % (lam.shape, stats.d))
    if not np.all(np.isfinite(lam)):
        raise UsageError("tilt lambda=%g must be finite" % lam[~np.isfinite(lam)][0])
    out = np.empty(lam.size, dtype=np.float64)
    gstep = max(1, sources._BLOCK // stats.means.shape[0])
    for g0 in range(0, lam.size, gstep):
        t = lam[g0 : g0 + gstep, None] * stats.means[:, 0] * stats.n
        M = t.max(axis=1)
        terms = np.exp(t - M[:, None]) * stats.weights
        mean = _tree(terms.T, np.empty_like(terms.T)) / stats.k
        out[g0 : g0 + gstep] = (M + np.log(mean)) / stats.n
    return out


def ball_mass(stats: BlockStats, x, eps: float) -> tuple[int, float]:
    """Count and fraction of blocks whose mean lies in the closed ball B(x, eps);
    eps <= 0 or a center off the stats' dimension or not finite raises UsageError."""
    if not eps > 0:
        raise UsageError("ball radius must be > 0")
    center = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if center.shape != (stats.d,):
        raise UsageError("ball center must have dimension %d" % stats.d)
    if not np.all(np.isfinite(center)):
        raise UsageError("ball center %s must be finite" % fmt_cell(center))
    diff = stats.means - center[None, :]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    count = int(stats.weights[dist <= eps].sum())
    return count, count / stats.k


def _ball_rate(count: int, mass: float, n: int) -> float:
    """-(1/n) log of a ball mass; +inf sentinel when the ball is empty."""
    if count == 0:
        return np.inf
    return (-np.log(mass) / n) + 0.0
