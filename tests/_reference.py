"""Reference computations that tests compare the package's outputs against."""

from __future__ import annotations

import math

import numpy as np

from blockldp import MarkovSpec, NumericalError, UsageError, ball_mass, sources
from blockldp.blockstats import _ball_rate
from blockldp.regimes import _LEVEL_BRACKET, _LEVEL_TOL, rate_along


def uniform(seed: int, i: int) -> float:
    """Uniform draw in the open interval (0, 1) at counter i, one word at a time."""
    return ((sources.raw_word(seed, i) >> 11) + 0.5) * 2.0 ** -53


def next_digit(seed: int, i: int, m: int) -> int:
    """Uniform symbol in {0, ..., m-1} at index i, deterministic in (seed, i, m);
    reads sources._digit_limit at call time, so a test may patch it."""
    sources._check_base(m)
    return sources._sample_digit(seed, i, m, sources._digit_limit(m))


def bernoulli_value(seed: int, i: int, p: float) -> float:
    """Bernoulli(p) observation (0.0 or 1.0) at index i."""
    return 1.0 if uniform(seed, i) < p else 0.0


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
    v = spec.stationary().astype(np.float64).copy()
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
