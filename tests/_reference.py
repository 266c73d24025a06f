"""Reference computations that tests compare the package's outputs against."""

from __future__ import annotations

import math

import numpy as np

from blockldp import MarkovSpec, UsageError


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
