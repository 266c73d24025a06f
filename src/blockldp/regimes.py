"""Growth schedules, regime classification and quantitative predictions.

A schedule grows the block count as k(n) = ceil(e^{c n}).  Comparing the
exponent c with the rate Lambda*(x0) at the target mean x0 = Lambda'(lambda0)
splits the asymptotics into three regimes:

  supercritical (c > Lambda*(x0)): the empirical SCGF converges uniformly to
      Lambda near lambda0 and the ball mass at x0 decays at rate Lambda*(x0);
  subcritical (c < Lambda*(x0)): small balls around x0 are eventually empty;
  critical (c = Lambda*(x0)): beyond lambda0 the empirical SCGF follows the
      affine continuation t -> Lambda(lambda0) + (t-1) lambda0 x0, t >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import UsageError
from .convex import _level_point_side, _rate_and_slope, find_level_points

_TIE_TOL = 1e-12
_EXP_ARG_CAP = 709.0


@dataclass(frozen=True)
class Schedule:
    """Block-count schedule k(n) = ceil(e^{c n}) with an optional speed term.

    gamma parameterizes eps_n = gamma * log(n) / n.
    """

    c: float
    gamma: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c >= 0.0):
            raise UsageError("schedule exponent c must be finite and >= 0")

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


def classify(model, lambda0: float, c: float) -> RegimeReport:
    """Compare the schedule exponent with the rate at x0 = Lambda'(lambda0), 1-d models.

    The threshold Lambda*(x0) is computed through the duality identity
    lambda0 * x0 - Lambda(lambda0), exact at exposed points.  Ties within
    1e-12 on c classify as critical.
    """
    if model.d != 1:
        raise UsageError("classify requires a 1-d model")
    Schedule(c)  # validates c
    lambda0 = float(lambda0)
    # One grad call gives x0 and the threshold lambda0 * x0 - Lambda(lambda0);
    # a non-finite lambda0 is refused before grad sees it.
    threshold, x0 = map(float, _rate_and_slope(model, lambda0))
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
        side = +1 if x0 > model.grad(0.0) else -1
        # c < Lambda*(x0) puts the level on this side of the mean; at
        # c = 0 the sublevel region shrinks to the mean itself.  An open
        # edge (level beyond the +-50 bracket) leaves eps_max unknown.
        edge = _level_point_side(model, c, side) if c > 0 else 0.0
        eps_max = float(abs(x0 - model.grad(edge))) if math.isfinite(edge) else None
        prediction = {
            "claim": "balls B(x0, eps) with eps < eps_max are eventually empty",
            "eps_max": eps_max,
        }
    else:
        v1 = float(model.lam(lambda0))
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
