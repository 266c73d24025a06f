"""Reference computations that tests compare the package's outputs against."""

from __future__ import annotations

import functools
import math

import numpy as np

from blockldp import (DataError, MarkovSpec, NumericalError, UsageError, ball_mass,
                      blockstats, models, pairwise_sum, sources)
from blockldp.blockstats import _ball_rate
from blockldp.regimes import _LEVEL_BRACKET, _LEVEL_TOL, rate_along

# The default sizes: values per piece, worker threads, and values per batch
# of a lattice tally merge or a tilt batch.
BLOCK, WORKERS, CHUNK = sources._BLOCK, sources._WORKERS, blockstats._CHUNK_VALUES


def sizes(monkeypatch, block=None, workers=None, chunk=None) -> None:
    """Set the sizes the package cuts its work by, for one test.

    block is the piece size (counters per kernel pass, digit-file bytes per
    chunk, values per read of Reader.pieces and per piece of a block
    reduction), workers the most threads of one block_means, and chunk the
    batch of blockstats and models.  This is the one place in the tests that
    names the module attributes holding them.  block may not exceed BLOCK:
    sources._RAMP holds BLOCK counters, sized at import.
    """
    if block is not None:
        if not 1 <= block <= BLOCK:
            raise ValueError("block must lie in [1, %d], got %r" % (BLOCK, block))
        monkeypatch.setattr(sources, "_BLOCK", block)
    if workers is not None:
        monkeypatch.setattr(sources, "_WORKERS", workers)
    if chunk is not None:
        monkeypatch.setattr(blockstats, "_CHUNK_VALUES", chunk)
        monkeypatch.setattr(models, "_CHUNK_VALUES", chunk)


def uniform(seed: int, i: int) -> float:
    """Uniform draw in the open interval (0, 1) at counter i, one word at a time."""
    return ((sources.raw_word(seed, i) >> 11) + 0.5) * 2.0 ** -53


def next_digit(seed: int, i: int, m: int) -> int:
    """Uniform symbol in {0, ..., m-1} at index i, deterministic in (seed, i, m);
    reads sources._digit_limit at call time, so a test may patch it."""
    return sources._sample_digit(seed, i, m, sources._digit_limit(m))


def bernoulli_value(seed: int, i: int, p: float) -> float:
    """Bernoulli(p) observation (0.0 or 1.0) at index i."""
    return 1.0 if uniform(seed, i) < p else 0.0


def _scalar_uniforms(seed: int, first: int, count: int, step: int = 1) -> np.ndarray:
    """uniform(seed, first + step * j) for j < count."""
    return np.array([uniform(seed, first + step * j) for j in range(count)])


def _box_muller_reference(seed: int, start: int, count: int, d: int) -> np.ndarray:
    """Standard-normal vectors at indices start..start+count-1: coordinate c
    is sqrt(-2 log u1) cos(2 pi u2) of the uniforms at counters 2i and 2i + 1
    offset by c * 2**40."""
    cols = []
    for c in range(d):
        first = 2 * start + c * (1 << 40)
        u1 = _scalar_uniforms(seed, first, count, 2)
        u2 = _scalar_uniforms(seed, first + 1, count, 2)
        cols.append(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
    return np.stack(cols, axis=1)


def _walk(spec: MarkovSpec, u) -> np.ndarray:
    """States driven by uniforms u: X_0 from the initial law, then one
    searchsorted per step on the current row of P."""
    cum, cum_rows, top = np.cumsum(spec.pi), np.cumsum(spec.P, axis=1), spec.s - 1
    states = []
    for x in u:
        states.append(min(int(np.searchsorted(cum, x, side="right")), top))
        cum = cum_rows[states[-1]]
    return np.array(states, dtype=np.int64)


def values(src, start: int, count: int) -> np.ndarray:
    """Values start..start+count-1 of src from per-index scalar forms alone,
    shape (count, d): uint8 for the digit kinds and Bernoulli, float64 for a
    Gaussian or Markov source.  A digit file gives fewer at its end, and the
    DataError of a bad byte that the values reach."""
    start, count = int(start), int(count)
    at = range(start, start + count)
    if src.kind == "iid-digit":
        vals = [next_digit(src.seed, i, src.m) for i in at]
    elif src.kind == "iid-bernoulli":
        vals = [bernoulli_value(src.seed, i, src.p) for i in at]
    elif src.kind == "gaussian":
        vals = _box_muller_reference(src.seed, start, count, src.d)
    elif src.kind == "markov-chain":
        states = _walk(src.markov, _scalar_uniforms(src.seed, 0, start + count))
        vals = src.markov.phi[states[start:]]
    else:
        with open(src.path, "rb") as fh:
            symbols, error = _file_values(fh.read(), src.m)
        if error is not None and start + count > len(symbols):
            raise DataError("unexpected byte %r at offset %d in digit file" % error)
        vals = symbols[start : start + count]
    if src.indicator_a is not None:
        vals = [v == src.indicator_a for v in vals]
    dtype = np.float64 if src.kind in ("gaussian", "markov-chain") else np.uint8
    return np.array(vals, dtype=dtype).reshape(-1, src.d)


def block_order_means(src, n: int, k: int) -> np.ndarray:
    """Means of the first k length-n blocks in block order (the dense form)."""
    return pairwise_sum(src.reader().read(n * k).reshape(k, n, src.d), axis=1) / n


def expected_stats(src, vals: np.ndarray, n: int, k: int):
    """(means, weights) block_means(src, n, k) must give, from src's first
    values vals (values(src, 0, count) with count >= n * k): the block-order
    means with unit weights for a continuous source, their exact histogram
    for a lattice one."""
    dense = pairwise_sum(vals[:n * k].reshape(k, n, src.d), axis=1) / n
    if src.int_bound is None:
        return dense, np.ones(k, dtype=np.int64)
    means, counts = np.unique(dense[:, 0], return_counts=True)
    return means[:, None], counts


def digit_file_symbols(data: bytes, m: int):
    """(symbols, error) of a digit file's bytes, decoded one byte at a time.

    symbols lists the base-m symbols before the first invalid byte: anything
    but '0'..chr(ord('0') + m - 1), space, tab, CR or LF, or a '.' after the
    first.  error is that byte and its offset, (bytes([b]), offset), or None
    when every byte is valid.
    """
    symbols, seen_dot = [], False
    for offset, b in enumerate(data):
        if ord("0") <= b < ord("0") + m:
            symbols.append(b - ord("0"))
        elif b == ord(".") and not seen_dot:
            seen_dot = True
        elif b not in b" \t\r\n":
            return symbols, (bytes([b]), offset)
    return symbols, None


@functools.lru_cache(maxsize=4)
def _file_values(data: bytes, m: int) -> tuple:
    """digit_file_symbols of data, kept for the next read of the same bytes."""
    symbols, error = digit_file_symbols(data, m)
    return tuple(symbols), error


def local_rate(stats, x, eps: float) -> float:
    """-(1/n) log of the ball mass; +inf sentinel when the ball is empty."""
    return _ball_rate(*ball_mass(stats, x, eps), stats.n)


def exact_prefix_scgf(spec: MarkovSpec, lam: float, n: int) -> float:
    """Finite-n SCGF (1/n) log E exp(lam * S_n) by exact forward recursion.

    S_n sums the scalar observable over n transitions from the initial
    distribution.  The row vector v starts at pi and is multiplied by
    P_lambda n times with per-step renormalization, so the result is exact
    up to float rounding for n <= 24.
    """
    if spec.phi.ndim != 1:
        raise UsageError("exact_prefix_scgf requires a scalar observable")
    if not 1 <= n <= 24:
        raise UsageError("n must lie in [1, 24], got %r" % (n,))
    tilted = spec.P * np.exp(lam * spec.phi)[None, :]
    v = spec.pi.astype(np.float64).copy()
    total = 0.0
    for _ in range(n):
        v = v @ tilted
        s = float(v.sum())
        total += math.log(s)
        v /= s
    return total / n


def level_point_side(model, c: float, side: int) -> float:
    """The one-tilt level bisection that regimes._level_points batches per side.

    Solves g(lambda) = c on one side of 0 with one rate_along call per
    midpoint: the outer probe at side * 50, then up to 500 halvings until
    |g(mid) - c| <= 1e-9.  Returns side * inf when the level is not attained
    inside the bracket.
    """
    outer = side * _LEVEL_BRACKET
    if rate_along(model, outer) < c - _LEVEL_TOL:
        return side * np.inf
    lo, hi = 0.0, outer
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        g = rate_along(model, mid)
        if abs(g - c) <= _LEVEL_TOL:
            return mid
        if g < c:
            lo = mid
        else:
            hi = mid
    raise NumericalError("level bisection did not reach tolerance %g" % _LEVEL_TOL)


def log_perron_eig(spec: MarkovSpec, lams: np.ndarray) -> np.ndarray:
    """Lambda at the tilts lams from np.linalg.eig's eigenvalues, as the
    spectral model computed it before its Lambda row took eigenvalues only:
    shift + log of the top real eigenvalue of the shifted tilted matrices."""
    expo = lams[:, None] * spec.phi
    shift = expo.max(axis=1)
    w = np.linalg.eig(spec.P * np.exp(expo - shift[:, None])[:, None, :])[0]
    rho = w.real[np.arange(lams.size), np.argmax(w.real, axis=1)]
    return shift + np.where(lams == 0.0, 0.0, np.log(rho))
