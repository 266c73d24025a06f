"""Closed-form and spectral SCGF models with gradients, Hessians and conjugates.

Each model packages the scaled-cumulant generating function Lambda, its first
two derivatives and the Legendre conjugate Lambda*, normalized so that
Lambda(0) = 0.  These serve as ground truth for the empirical estimates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import expit, rel_entr

from ._errors import NumericalError, UsageError
from .blockstats import _CHUNK_VALUES, SampledFunction
from .convex import legendre
from .sources import MarkovSpec


@dataclass(frozen=True)
class ScgfModel:
    """An SCGF with derivatives and conjugate.

    Fields
    ------
    lam : Lambda(lambda), finite on all of R^d for every bundled model.
    grad : gradient of Lambda (the exposed point map).
    hess : second derivative; scalar function for d=1, matrix for d>1.
    conj : Legendre conjugate Lambda*(x), +inf outside the closure of the
        attainable means.
    """

    name: str
    d: int
    lam: Callable
    grad: Callable
    hess: Callable
    conj: Callable
    domain: str = "all of R^d"


def _scalarized(fn):
    """Wrap a function of 1-d arrays so any input shape round-trips and
    scalar input yields a python float."""

    def wrapped(x):
        arr = np.asarray(x, dtype=np.float64)
        out = np.asarray(fn(arr.ravel()), dtype=np.float64)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    return wrapped


def bernoulli_model(p: float) -> ScgfModel:
    """SCGF of iid Bernoulli(p) observations.

    Lambda(lambda) = log(1 - p + p e^lambda), Lambda'(lambda) is the logistic
    function shifted by logit(p), Lambda'' = q(1-q) at q = Lambda', and
    Lambda*(x) = x log(x/p) + (1-x) log((1-x)/(1-p)) on [0, 1], extended by
    continuity at the endpoints (-log(1-p) and -log p) and +inf outside.
    """
    if not 0.0 < p < 1.0:
        raise UsageError("p must lie strictly inside (0, 1), got %r" % (p,))
    logit_p = math.log(p / (1.0 - p))

    @_scalarized
    def lam(l):
        out = np.empty_like(l)
        neg = l <= 0
        # log1p keeps Lambda(0) = 0 exact and the negative tail accurate.
        out[neg] = np.log1p(p * np.expm1(l[neg]))
        pos = ~neg
        lp = l[pos]
        out[pos] = lp + math.log(p) + np.log1p((1.0 - p) * np.exp(-lp) / p)
        return out

    @_scalarized
    def grad(l):
        return expit(l + logit_p)

    @_scalarized
    def hess(l):
        q = expit(l + logit_p)
        return q * (1.0 - q)

    @_scalarized
    def conj(x):
        # rel_entr covers the endpoints (0 log 0 = 0) and returns +inf for
        # arguments outside [0, 1].
        return rel_entr(x, p) + rel_entr(1.0 - x, 1.0 - p)

    return ScgfModel(name="bernoulli:%r" % p, d=1, lam=lam, grad=grad,
                     hess=hess, conj=conj, domain="all of R")


def digit_indicator_model(m: int, a: int) -> ScgfModel:
    """SCGF of the indicator of symbol a in a uniform base-m digit stream.

    Analytically identical to bernoulli_model(1/m):
    Lambda(lambda) = log((m - 1 + e^lambda)/m).
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise UsageError("base m must be an integer >= 2, got %r" % (m,))
    if not 0 <= a < m:
        raise UsageError("symbol a must lie in {0, ..., m-1}, got %r" % (a,))
    return replace(bernoulli_model(1.0 / m), name="digit:%d:%d" % (m, a))


def gaussian_model(d: int) -> ScgfModel:
    """Self-dual SCGF of iid standard-normal vectors: Lambda = Lambda* = |.|^2/2."""
    if d < 1:
        raise UsageError("dimension must be >= 1")

    if d == 1:
        quad = _scalarized(lambda l: 0.5 * l * l)
        grad = _scalarized(lambda l: l + 0.0)
        hess = _scalarized(np.ones_like)
    else:
        def quad(l):
            arr = np.asarray(l, dtype=np.float64)
            return 0.5 * np.sum(arr * arr, axis=-1)

        def grad(l):
            return np.asarray(l, dtype=np.float64) + 0.0

        def hess(l):
            return np.eye(d)

    return ScgfModel(name="gaussian:%d" % d, d=d, lam=quad, grad=grad, hess=hess,
                     conj=quad, domain="all of R" if d == 1 else "all of R^d")


def _spectral(P: np.ndarray, phi: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Rows Lambda, Lambda', Lambda'' of markov_model at the tilts l."""
    out = np.empty((3, l.size))
    gstep = max(1, _CHUNK_VALUES // P.size)
    for g0 in range(0, l.size, gstep):
        lc = l[g0 : g0 + gstep]
        g = np.arange(lc.size)
        expo = lc[:, None] * phi
        if not np.all(np.isfinite(expo)):
            raise NumericalError("tilted matrix is not finite (non-finite tilt)")
        shift = expo.max(axis=1)
        T = P * np.exp(expo - shift[:, None])[:, None, :]
        w, R = np.linalg.eig(T)
        wt, U = np.linalg.eig(np.swapaxes(T, 1, 2))
        top = np.argmax(w.real, axis=1)
        rho = w.real[g, top]
        if not np.all(rho > 0.0):
            raise NumericalError("tilted matrix has no positive Perron root")
        r, u = np.abs(R[g, :, top]), np.abs(U[g, :, np.argmax(wt.real, axis=1)])
        mu = u * r / np.sum(u * r, axis=1, keepdims=True)
        cen = phi - (mu @ phi)[:, None]
        # z solves the Poisson equation of cen under the Doob transform Q.
        Q = T * r[:, None, :] / (rho[:, None, None] * r[:, :, None])
        z = np.linalg.solve(np.eye(len(P)) - Q + mu[:, None, :], cen[..., None])[..., 0]
        # P is stochastic, so its Perron root is 1 and Lambda(0) = 0 exactly.
        out[:, g0 : g0 + gstep] = (shift + np.where(lc == 0.0, 0.0, np.log(rho)), mu @ phi,
                                   np.sum(mu * cen * (2.0 * z - cen), axis=1))
    return out


def markov_model(spec: MarkovSpec) -> ScgfModel:
    """Spectral SCGF of a Markov chain with a scalar observable.

    Lambda(lambda) = log rho(P_lambda), rho the Perron root of (P_lambda)_{xy}
    = P_{xy} e^{lambda phi(y) - shift}, shift = max_y lambda phi(y) (so no
    overflow, a linear one-state chain, and Lambda(0) = 0 exactly).  Batched
    eigen-decompositions of P_lambda and its transpose give rho and Perron
    vectors r, u; Lambda' = sum u phi r / sum u r, and Lambda'' is the
    asymptotic variance of phi under the Doob transform Q = P_lambda diag(r) /
    (rho diag(r)), stationary law mu = u r / sum u r: with c = phi - Lambda'
    and (I - Q + 1 mu^T) z = c, Lambda'' = sum mu c (2z - c).  All three are
    float-accurate (about 1e-15 on small well-conditioned chains).  The
    conjugate is the numerical Legendre transform of Lambda sampled on
    [-20, 20] at step 0.005 (a discrete sup, so values at tilts exposed
    outside that grid are lower bounds).
    """
    spec.validate()
    if spec.phi.ndim != 1:
        raise UsageError("markov_model requires a scalar observable")
    P, phi = spec.P, spec.phi

    def view(row):
        return _scalarized(lambda l: _spectral(P, phi, l)[row])

    lam, grad, hess = view(0), view(1), view(2)

    @functools.cache
    def sampled():
        grid = -20.0 + 0.005 * np.arange(8001)
        return SampledFunction(grid=grid, values=lam(grid), meta={"model": "markov"})

    conj = _scalarized(lambda x: legendre(sampled(), x).values)
    return ScgfModel(name="markov:%d-state" % spec.s, d=1, lam=lam, grad=grad,
                     hess=hess, conj=conj, domain="all of R")


def exact_prefix_scgf(spec: MarkovSpec, lam: float, n: int) -> float:
    """Finite-n SCGF (1/n) log E exp(lam * S_n) by exact forward recursion.

    S_n sums the scalar observable over n transitions from the initial
    distribution.  The row vector v starts at pi and is multiplied by
    P_lambda n times with per-step renormalization, so the result is exact
    up to float rounding for n <= 24.
    """
    spec.validate()
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
