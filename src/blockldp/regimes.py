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
from .convex import _level_point_side, find_level_points, rate_along

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
    x0 = float(model.grad(lambda0))
    threshold = rate_along(model, lambda0)
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


@dataclass(frozen=True)
class EnvelopeResult:
    """Uniform error envelope over a tilt window plus the validity flag."""

    xi1: float
    xi2: float
    eps_n: float
    value: float
    valid: bool


def envelope(model, B: tuple[float, float], rho: float, gamma: float,
             gamma_prime: float, n: int, eta: float = 1.0) -> EnvelopeResult:
    """Error envelope E(n, eta) = (eta + 2 xi1(B)) * eps_n for iid sources.

    xi1(B) = sup |Lambda'| over B and xi2(B_rho) = sup of
    (1/2) lambda^2 Lambda'' over the rho-enlargement of B, both by dense
    grid scan with spacing at most rho/100 (endpoints included exactly);
    eps_n = gamma * log(n) / n.  The flag checks the schedule validity
    condition sqrt(gamma * gamma_prime) > d + 2 + gamma * xi2(B_rho).
    eta is the free slack parameter of the envelope.
    """
    if model.d != 1:
        raise UsageError("envelope requires a 1-d model")
    lo, hi = float(B[0]), float(B[1])
    if not lo < hi:
        raise UsageError("tilt window must satisfy lo < hi")
    if not (rho > 0 and gamma > 0 and gamma_prime > 0):
        raise UsageError("rho, gamma and gamma_prime must be > 0")
    if n < 1:
        raise UsageError("n must be >= 1")
    step = rho / 100.0

    def scan(a, b):
        pts = max(2, math.ceil((b - a) / step) + 1)
        return np.linspace(a, b, pts)

    xi1 = float(np.max(np.abs(model.grad(scan(lo, hi)))))
    grid_rho = scan(lo - rho, hi + rho)
    xi2 = float(np.max(0.5 * grid_rho * grid_rho * model.hess(grid_rho)))
    eps_n = gamma * math.log(n) / n
    value = (eta + 2.0 * xi1) * eps_n
    valid = math.sqrt(gamma * gamma_prime) > model.d + 2.0 + gamma * xi2
    return EnvelopeResult(xi1=xi1, xi2=xi2, eps_n=eps_n, value=value, valid=valid)


@dataclass(frozen=True)
class EmptinessPrediction:
    """Union-bound heuristic for when a subcritical ball should empty out.

    heuristic_onset_n is the smallest n with e^{c n} * e^{-n inf} < 1e-3,
    inf being the infimum of Lambda* over the closed ball; it is a heuristic
    onset, not a theorem (the limit statement guarantees only eventual
    emptiness).  claim is False when the ball touches the region where the
    rate is at most c (its mass then does not vanish).
    """

    claim: bool
    heuristic_onset_n: int | None
    inf_rate: float
    c: float


def predict_empty(model, x0: float, c: float, eps: float) -> EmptinessPrediction:
    """Eventual-emptiness prediction for the ball B(x0, eps), 1-d models.

    Requires the subcritical regime at x0 (c < Lambda*(x0) beyond the 1e-12
    tie tolerance); raises UsageError otherwise.
    """
    if model.d != 1:
        raise UsageError("predict_empty requires a 1-d model")
    if not eps > 0:
        raise UsageError("ball radius must be > 0")
    Schedule(c)  # validates c
    rate_x0 = model.conj(float(x0))
    if not c < rate_x0 - _TIE_TOL:
        raise UsageError(
            "regime at x0=%g is not subcritical: c=%g vs Lambda*(x0)=%g"
            % (x0, c, rate_x0))
    mean = model.grad(0.0)
    lo, hi = x0 - eps, x0 + eps
    if lo <= mean <= hi:
        inf_rate = 0.0
    else:
        edge = lo if mean < lo else hi
        inf_rate = float(model.conj(edge))
    if inf_rate <= c:
        return EmptinessPrediction(claim=False, heuristic_onset_n=None,
                                   inf_rate=inf_rate, c=float(c))
    if math.isinf(inf_rate):
        return EmptinessPrediction(claim=True, heuristic_onset_n=1,
                                   inf_rate=inf_rate, c=float(c))
    n_star = math.floor(math.log(1000.0) / (inf_rate - c)) + 1
    return EmptinessPrediction(claim=True, heuristic_onset_n=n_star,
                               inf_rate=inf_rate, c=float(c))
