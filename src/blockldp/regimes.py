"""Growth schedules, the rate along tilts, its level points and regime classification.

A schedule grows the block count as k(n) = ceil(e^{c n}).  Comparing the
exponent c with the rate Lambda*(x0) at the target mean x0 = Lambda'(lambda0)
splits the asymptotics into three regimes:

  supercritical (c > Lambda*(x0)): the empirical SCGF converges uniformly to
      Lambda near lambda0 and the ball mass at x0 decays at rate Lambda*(x0);
  subcritical (c < Lambda*(x0)): small balls around x0 are eventually empty;
  critical (c = Lambda*(x0)): beyond lambda0 the empirical SCGF follows the
      affine continuation t -> Lambda(lambda0) + (t-1) lambda0 x0, t >= 1.

The rate along tilts g(lambda) = lambda Lambda'(lambda) - Lambda(lambda) is
Lambda*(x0) at lambda0; its level points g = c bound the attained block means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import NumericalError, UsageError

_TIE_TOL = 1e-12
_EXP_ARG_CAP = 709.0
_LEVEL_BRACKET = 50.0
_LEVEL_TOL = 1e-9
# Halvings per batched level-solver call (2^D - 1 tilts per side); D divides 500.
_LEVEL_DEPTH = 4


@dataclass(frozen=True)
class Schedule:
    """Block-count schedule k(n) = ceil(e^{c n}) with an optional speed term.

    gamma (None, or finite and >= 0) parameterizes eps_n = gamma * log(n) / n.
    """

    c: float
    gamma: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c >= 0.0):
            raise UsageError("schedule exponent c must be finite and >= 0")
        if self.gamma is not None and not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise UsageError("schedule speed gamma must be finite and >= 0")

    def k(self, n: int) -> int:
        if n < 1:
            raise UsageError("block length must be >= 1")
        arg = self.c * n
        if arg > _EXP_ARG_CAP:
            raise UsageError("k(n) overflows: c*n = %g is beyond float range" % arg)
        return math.ceil(math.exp(arg))

    def eps_n(self, n: int) -> float:
        if self.gamma is None:
            raise UsageError("schedule has no gamma for eps_n")
        return self.gamma * math.log(n) / n


@dataclass(frozen=True)
class RegimeReport:
    """Classification at (lambda0, c) plus the prediction it entails.

    prediction keys by regime:
      supercritical: lambda_interval (the open interval where
          Lambda*(Lambda') < c, endpoints +-inf when a side never attains
          the level), radius (distance from lambda0 to the nearer endpoint),
          ball_rate (the local rate -(1/n) log mass -> Lambda*(x0)).
      subcritical: eps_max (largest ball radius around x0 that is
          eventually empty).
      critical: value_at_t1 (= Lambda(lambda0)), slope (= lambda0 x0),
          samples (the affine continuation at t = 1, 1.5, 2).
    """

    regime: str
    lambda0: float
    x0: float
    threshold: float
    c: float
    prediction: dict = field(default_factory=dict)

    def tilted(self, t: float) -> float:
        """Affine continuation Lambda(lambda0) + (t-1) lambda0 x0, t >= 1."""
        if self.regime != "critical":
            raise UsageError("tilted limit applies to the critical regime only")
        if t < 1.0:
            raise UsageError("tilted limit is defined for t >= 1 only")
        return self.prediction["value_at_t1"] + (t - 1.0) * self.prediction["slope"]


def _rate_and_slope(model, lam):
    """(rate_along(model, lam), Lambda'(lam), Lambda(lam)) from one grad and one lam call."""
    t = np.asarray(lam, dtype=np.float64)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise UsageError("tilt lambda=%g must be finite" % bad[0])
    with np.errstate(over="ignore", invalid="ignore"):
        x, v = model.grad(t), model.lam(t)
        tx = t * x
        g = tx - v
        # Rounding leaves g within 2^-52 (|lambda x| + |Lambda|); where that
        # exceeds both the tie tolerance and 2^-26 |g|, g has lost its digits.
        err = 2.0 ** -52 * np.abs(tx) + 2.0 ** -52 * np.abs(v)
        bad = t[~(np.isfinite(g) & (err <= np.maximum(_TIE_TOL, 2.0 ** -26 * np.abs(g))))]
    if bad.size:
        raise NumericalError("lambda*Lambda'(lambda) - Lambda(lambda) is not finite or has "
                             "lost its digits at tilt lambda=%g" % bad[0])
    return g, x, v


def rate_along(model, lam):
    """g(lambda) = Lambda*(Lambda'(lambda)) of a 1-d model via the duality identity.

    g(lambda) = lambda * Lambda'(lambda) - Lambda(lambda), exact at exposed
    points.  At the tilt lambda0 it is the critical schedule exponent.
    lam is a scalar (the result is a float) or an array of tilts (the result
    is an array of the same shape, each value bit for bit the scalar one).
    Raises UsageError for a non-finite tilt and NumericalError, naming the
    tilt, where g is not finite or has cancelled (Lambda' saturates at huge
    |lambda|, so lambda * Lambda' and Lambda agree in their leading digits).
    """
    g = _rate_and_slope(model, lam)[0]
    return float(g) if np.ndim(g) == 0 else g


def _level_points(model, c: float, sides) -> list[float]:
    """Solve g(lambda) = c on each given side of 0 (+1 right, -1 left).

    g vanishes at 0 and is nondecreasing in |lambda| (g'(lambda) =
    lambda * Lambda''(lambda)), so bisection on [0, 50] or [-50, 0] applies:
    up to 500 halvings until |g(mid) - c| <= 1e-9.  A side whose level is
    not attained inside its bracket gives side * inf.

    Each rate_along call takes, as one array, every midpoint that the next
    D = _LEVEL_DEPTH halvings of every unsolved side could visit: per side a
    heap of 2^D - 1 tilts, node i the midpoint 0.5 * (lo + hi) of its
    bracket and nodes 2i + 1, 2i + 2 those of its left and right halves (the
    first call also takes each side's outer probe at side * 50).  Each side
    then compares its heap one node at a time in the one-tilt order, so its
    point is the one-tilt bisection's bit for bit.
    """
    points = dict.fromkeys(sides)  # None while a side is unsolved
    spans = {side: (0.0, side * _LEVEL_BRACKET) for side in sides}
    probes = [side * _LEVEL_BRACKET for side in sides]
    for _ in range(500 // _LEVEL_DEPTH):
        heaps = {}
        for side, (lo, hi) in spans.items():
            mids, halves = [], [(lo, hi)]
            for i in range(2 ** _LEVEL_DEPTH - 1):
                a, b = halves[i]
                mids.append(0.5 * (a + b))
                halves += [(a, mids[i]), (mids[i], b)]
            heaps[side] = mids
        g = iter(rate_along(model, np.array(probes + sum(heaps.values(), []))).tolist())
        for side, _ in zip(sides, probes):  # the first call only
            if next(g) < c - _LEVEL_TOL:
                points[side] = side * np.inf
        probes = []
        for side, mids in heaps.items():
            gs, (lo, hi), i = [next(g) for _ in mids], spans.pop(side), 0
            while i < len(mids) and points[side] is None:
                if abs(gs[i] - c) <= _LEVEL_TOL:
                    points[side] = mids[i]
                elif gs[i] < c:
                    lo, i = mids[i], 2 * i + 2
                else:
                    hi, i = mids[i], 2 * i + 1
            if points[side] is None:
                spans[side] = (lo, hi)
        if not spans:
            return [points[side] for side in sides]
    raise NumericalError("level bisection did not reach tolerance %g" % _LEVEL_TOL)


def find_level_points(model, c: float) -> tuple[float, float]:
    """The two solutions (lambda1 < 0 < lambda2) of Lambda*(Lambda'(lambda)) = c.

    Both solutions satisfy |g(lambda) - c| <= 1e-9.  A side whose level is
    not attained within the bracket [-50, 50] is open: its point is -inf
    (left) or +inf (right).
    """
    if not c > 0:
        raise UsageError("level must be > 0, got %r" % (c,))
    return tuple(_level_points(model, c, (-1, +1)))


def classify(model, lambda0: float, c: float | None = None) -> RegimeReport:
    """Compare the schedule exponent with the rate at x0 = Lambda'(lambda0).

    The threshold Lambda*(x0) is computed through the duality identity
    lambda0 * x0 - Lambda(lambda0), exact at exposed points.  Ties within
    1e-12 on c classify as critical.  Omitting c takes the critical schedule,
    c = max(threshold, 0): rounding can leave the threshold just below 0.
    """
    if c is not None:
        Schedule(c)  # validates c
    lambda0 = float(lambda0)
    # One grad and one lam call give x0, Lambda(lambda0) and the threshold
    # lambda0 * x0 - Lambda(lambda0); a non-finite lambda0 is refused first.
    threshold, x0, v1 = map(float, _rate_and_slope(model, lambda0))
    c = max(threshold, 0.0) if c is None else c
    diff = c - threshold
    if abs(diff) <= _TIE_TOL:
        regime = "critical"
    elif diff > 0:
        regime = "supercritical"
    else:
        regime = "subcritical"
    if regime == "supercritical":
        # A side whose level lies beyond the +-50 bracket stays open.
        lo, hi = find_level_points(model, c) if c > 0 else (-np.inf, np.inf)
        prediction = {
            "claim": "empirical scgf converges uniformly to the model on "
                     "compact subsets of lambda_interval",
            "lambda_interval": (float(lo), float(hi)),
            "radius": float(min(lambda0 - lo, hi - lambda0)),
            "ball_rate": threshold,
        }
    elif regime == "subcritical":
        # c < Lambda*(x0) puts the level on lambda0's side of 0 (g(lambda0)
        # > 0 makes lambda0 nonzero, and Lambda' rises from 0 to lambda0); at
        # c = 0 the sublevel region shrinks to the mean itself.  An open
        # edge (level beyond the +-50 bracket) leaves eps_max unknown.
        side = +1 if lambda0 > 0 else -1
        edge = _level_points(model, c, (side,))[0] if c > 0 else 0.0
        eps_max = float(abs(x0 - model.grad(edge))) if math.isfinite(edge) else None
        prediction = {
            "claim": "balls B(x0, eps) with eps < eps_max are eventually empty",
            "eps_max": eps_max,
        }
    else:
        slope = lambda0 * x0
        prediction = {
            "claim": "for t >= 1 the empirical scgf at t*lambda0 tends to the "
                     "affine continuation value_at_t1 + (t-1)*slope",
            "value_at_t1": v1,
            "slope": slope,
            "samples": {"1": v1, "1.5": v1 + 0.5 * slope, "2": v1 + slope},
        }
    return RegimeReport(regime=regime, lambda0=lambda0, x0=x0,
                        threshold=threshold, c=float(c), prediction=prediction)
