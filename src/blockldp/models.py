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

from ._errors import NumericalError, UsageError
from .blockstats import _CHUNK_VALUES, SampledFunction
from .convex import legendre
from .sources import MarkovSpec


@dataclass(frozen=True)
class ScgfModel:
    """An SCGF with derivatives and conjugate.

    Fields
    ------
    lam : Lambda(lambda) of a scalar tilt, finite on all of R for every
        bundled model.
    grad : derivative Lambda' (the exposed point map).
    hess : second derivative Lambda''.
    conj : Legendre conjugate Lambda*(x), +inf outside the closure of the
        attainable means.

    Each takes a float or an array of any shape and acts elementwise.
    """

    name: str
    lam: Callable
    grad: Callable
    hess: Callable
    conj: Callable


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


def _expit(v: float) -> float:
    """scipy.special.expit bit for bit: 1/(1 + exp(-v)) with libm's exp (numpy's
    vectorized exp differs in the last ulp), 0 where exp(-v) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _rel_entr(x: float, y: float) -> float:
    """scipy.special.rel_entr(x, y) bit for bit for 0 < y < 1, where x/y > 0 for
    every x > 0: scipy's branches with libm's log1p and log."""
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 0.0 if x == 0.0 else math.inf
    ratio = x / y
    if 0.5 < ratio < 2.0:
        return x * math.log1p((x - y) / y)
    return x * (math.log(ratio) if ratio < math.inf else math.log(x) - math.log(y))


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
        return np.array([_expit(v) for v in (l + logit_p).tolist()], dtype=np.float64)

    @_scalarized
    def hess(l):
        q = grad(l)
        return q * (1.0 - q)

    @_scalarized
    def conj(x):
        # rel_entr covers the endpoints (0 log 0 = 0) and returns +inf for
        # arguments outside [0, 1].
        return np.array([_rel_entr(v, p) + _rel_entr(1.0 - v, 1.0 - p)
                         for v in x.tolist()], dtype=np.float64)

    return ScgfModel(name="bernoulli:%r" % p, lam=lam, grad=grad, hess=hess, conj=conj)


def digit_indicator_model(m: int, a: int) -> ScgfModel:
    """SCGF of the indicator of symbol a in a uniform base-m digit stream.

    Analytically identical to bernoulli_model(1/m):
    Lambda(lambda) = log((m - 1 + e^lambda)/m).
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise UsageError("base m must be an integer >= 2, got %r" % (m,))
    if not (isinstance(a, (int, np.integer)) and 0 <= a < m):
        raise UsageError("symbol a must be an integer in {0, ..., m-1}, got %r" % (a,))
    return replace(bernoulli_model(1.0 / m), name="digit:%d:%d" % (m, a))


def gaussian_model() -> ScgfModel:
    """Self-dual SCGF of iid standard-normal scalars: Lambda = Lambda* = l^2/2.

    Its name is "gaussian:1"; vector Gaussian sources are served by ball
    masses, not by a model.
    """
    quad = _scalarized(lambda l: 0.5 * l * l)
    return ScgfModel(name="gaussian:1", lam=quad, grad=_scalarized(lambda l: l + 0.0),
                     hess=_scalarized(np.ones_like), conj=quad)


def _spectral(P: np.ndarray, phi: np.ndarray, l: np.ndarray, row: int) -> np.ndarray:
    """Row `row` (0: Lambda, 1: Lambda', 2: Lambda'') of markov_model at the
    tilts l, running each chunk's stages only as far as that row needs."""
    out = np.empty(l.size)
    gstep = max(1, _CHUNK_VALUES // P.size)
    for g0 in range(0, l.size, gstep):
        lc = l[g0 : g0 + gstep]
        g = np.arange(lc.size)
        expo = lc[:, None] * phi
        if not np.all(np.isfinite(expo)):
            raise NumericalError("tilted matrix is not finite (non-finite tilt)")
        shift = expo.max(axis=1)
        T = P * np.exp(expo - shift[:, None])[:, None, :]
        if row == 0:
            w = np.linalg.eigvals(T)
        else:
            w, R = np.linalg.eig(T)
        top = np.argmax(w.real, axis=1)
        rho = w.real[g, top]
        if not np.all(rho > 0.0):
            raise NumericalError("tilted matrix has no positive Perron root")
        if row == 0:
            # P is stochastic, so its Perron root is 1 and Lambda(0) = 0 exactly.
            out[g0 : g0 + gstep] = shift + np.where(lc == 0.0, 0.0, np.log(rho))
            continue
        wt, U = np.linalg.eig(np.swapaxes(T, 1, 2))
        r, u = np.abs(R[g, :, top]), np.abs(U[g, :, np.argmax(wt.real, axis=1)])
        mu = u * r / np.sum(u * r, axis=1, keepdims=True)
        if row == 1:
            out[g0 : g0 + gstep] = mu @ phi
            continue
        cen = phi - (mu @ phi)[:, None]
        # z solves the Poisson equation of cen under the Doob transform Q.
        Q = T * r[:, None, :] / (rho[:, None, None] * r[:, :, None])
        z = np.linalg.solve(np.eye(len(P)) - Q + mu[:, None, :], cen[..., None])[..., 0]
        out[g0 : g0 + gstep] = np.sum(mu * cen * (2.0 * z - cen), axis=1)
    return out


def markov_model(spec: MarkovSpec) -> ScgfModel:
    """Spectral SCGF of a Markov chain with a scalar observable.

    Lambda(lambda) = log rho(P_lambda), rho the Perron root of (P_lambda)_{xy}
    = P_{xy} e^{lambda phi(y) - shift}, shift = max_y lambda phi(y) (so no
    overflow, a linear one-state chain, and Lambda(0) = 0 exactly).  Each call
    pays only for the derivative it returns, per chunk of tilts:
    Lambda costs one batched eigenvalue computation of P_lambda, with no
    eigenvectors; Lambda' takes its eigen-decomposition and one of its
    transpose for the Perron vectors r, u and returns sum u phi r /
    sum u r; Lambda'' adds one batched solve for the asymptotic variance of
    phi under the Doob transform Q = P_lambda diag(r) / (rho diag(r)),
    stationary law mu = u r / sum u r: with c = phi - Lambda' and
    (I - Q + 1 mu^T) z = c, Lambda'' = sum mu c (2z - c).  All three are
    float-accurate (about 1e-15 on small well-conditioned chains).  The
    conjugate is +inf outside [min phi, max phi]; inside, it is the numerical
    Legendre transform of Lambda sampled on [-20, 20] at step 0.005 (a
    discrete sup, so values at tilts exposed outside that grid are lower
    bounds), O(8001 + X) for X slopes by the hull sweep of convex.legendre
    once the sample is cached.
    """
    if spec.phi.ndim != 1:
        raise UsageError("markov_model requires a scalar observable")
    P, phi = spec.P, spec.phi

    def view(row):
        return _scalarized(lambda l: _spectral(P, phi, l, row))

    lam, grad, hess = view(0), view(1), view(2)

    @functools.cache
    def sampled():
        grid = -20.0 + 0.005 * np.arange(8001)
        return SampledFunction(grid=grid, values=lam(grid))

    lo, hi = phi.min(), phi.max()
    conj = _scalarized(lambda x: np.where((x < lo) | (x > hi), np.inf,
                                          legendre(sampled(), x).values))
    return ScgfModel(name="markov:%d-state" % spec.s, lam=lam, grad=grad, hess=hess,
                     conj=conj)
