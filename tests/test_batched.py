"""Batched model evaluation against one tilt at a time, bit for bit, and the
level solver against a 50-digit reference.

The spectral model's Lambda row takes eigenvalues only and must give the
bytes of the eig computation it replaces; every model's batched values are
its scalar values bit for bit, so the level solver's batched sides match
sides solved alone.  Its level points are checked against mpmath, not
pinned, so these tests hold under any numpy SIMD dispatch.
"""

import math

import numpy as np
import pytest

from blockldp import (MarkovSpec, bernoulli_model, classify, digit_indicator_model,
                      find_level_points, gaussian_model, markov_model, regimes)
from blockldp.regimes import rate_along

from _reference import bernoulli_lam_mp, log_perron_eig, markov_lam_mp, rate_along_mp

BENCH_CHAIN = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]), phi=np.array([0.0, 1.0]))
THREE_CHAIN = MarkovSpec(P=np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2],
                                     [0.1, 0.3, 0.6]]),
                         phi=np.array([0.0, 1.0, 2.5]))

MODELS = {
    "bernoulli:0.3": lambda: bernoulli_model(0.3),
    "bernoulli:0.5": lambda: bernoulli_model(0.5),
    "digit:10:0": lambda: digit_indicator_model(10, 0),
    "gaussian:1": lambda: gaussian_model(),
    "markov-bench": lambda: markov_model(BENCH_CHAIN),
    "markov-3": lambda: markov_model(THREE_CHAIN),
}

# Each model's Lambda in mpmath, and the absolute error its float g may add
# to a level point's residual: the spectral Lambda is accurate to about 1e-15
# absolute, not relative (ROADMAP item 7), which shows at c = 1e-4.
MODELS_MP = {
    "bernoulli:0.3": (bernoulli_lam_mp(0.3), 0.0),
    "bernoulli:0.5": (bernoulli_lam_mp(0.5), 0.0),
    "digit:10:0": (bernoulli_lam_mp(0.1), 0.0),
    "gaussian:1": (lambda t: t * t / 2, 0.0),
    "markov-bench": (markov_lam_mp(BENCH_CHAIN), 2e-15),
    "markov-3": (markov_lam_mp(THREE_CHAIN), 2e-15),
}

# Levels from tiny to beyond every bounded rate (open sides: bernoulli:0.5
# never exceeds log 2, so c = 5 leaves both sides at +-inf), plus each
# model's threshold at two tilts.
LEVELS = (1e-4, 0.01, 0.05, 0.1, 0.3, 1.0, 5.0, 2000.0)


def _level_check(lam_mp, slack, c, point, side):
    """point is side's level point at c: open (side * inf) exactly where the
    50-digit g(side * 50) < c, and otherwise |g(point) - c| <= 1e-13 c + slack
    in 50 digits."""
    if rate_along_mp(lam_mp, side * 50.0) < c:
        assert point == side * np.inf, (c, side, point)
    else:
        assert math.isfinite(point) and point * side > 0, (c, side, point)
        assert abs(rate_along_mp(lam_mp, point) - c) <= 1e-13 * c + slack, (c, side, point)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_level_points_match_mpmath(name):
    model, (lam_mp, slack) = MODELS[name](), MODELS_MP[name]
    for c in LEVELS + tuple(rate_along(model, l0) for l0 in (0.5, -0.7)):
        points = find_level_points(model, c)
        for side, point in zip((-1, +1), points):
            _level_check(lam_mp, slack, c, point, side)
            # a side solved alone takes the same tilts, so gives the same bits
            assert repr(regimes._level_points(model, c, (side,))) == repr([point]), (c, side)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_classify_level_points_match_mpmath(name):
    model, (lam_mp, slack) = MODELS[name](), MODELS_MP[name]
    regimes_seen = set()
    for l0 in (0.5, -0.7):
        thr = rate_along(model, l0)
        for c in (0.0, 0.5 * thr, thr, 2.0 * thr, thr + 1e-3, 5.0):
            rep = classify(model, l0, c)
            regimes_seen.add(rep.regime)
            # classify's one-call threshold and x0 equal the separate calls' values
            assert repr(rep.threshold) == repr(thr)
            assert repr(rep.x0) == repr(float(model.grad(l0)))
            if rep.regime == "supercritical":
                lo, hi = rep.prediction["lambda_interval"]
                assert (lo, hi) == find_level_points(model, c)
                for side, point in ((-1, lo), (+1, hi)):
                    _level_check(lam_mp, slack, c, point, side)
                assert rep.prediction["radius"] == min(l0 - lo, hi - l0)
            elif rep.regime == "subcritical" and c > 0:
                side = 1 if l0 > 0 else -1
                edge = regimes._level_points(model, c, (side,))[0]
                _level_check(lam_mp, slack, c, edge, side)
                eps_max = abs(rep.x0 - model.grad(edge)) if math.isfinite(edge) else None
                assert rep.prediction["eps_max"] == eps_max
    assert regimes_seen == {"subcritical", "critical", "supercritical"}


@pytest.mark.parametrize("name", ["bernoulli:0.3", "digit:10:0", "gaussian:1",
                                  "markov-bench", "markov-3"])
def test_batched_values_match_scalar_calls(name):
    model = MODELS[name]()
    rng = np.random.default_rng(20261019)
    tilts = np.concatenate([[-50.0, 0.0, 50.0], rng.uniform(-50.0, 50.0, 1997)])
    for fn in (model.lam, model.grad, lambda t: rate_along(model, t)):
        scalar = [fn(t) for t in tilts.tolist()]
        assert all(type(v) is float for v in scalar)
        assert fn(tilts).tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("spec", [BENCH_CHAIN, THREE_CHAIN], ids=["bench", "three-state"])
def test_markov_lam_eigvals_match_eig(spec):
    grid = -20.0 + 0.005 * np.arange(8001)  # the conjugate's sample grid
    assert markov_model(spec).lam(grid).tobytes() == log_perron_eig(spec, grid).tobytes()
