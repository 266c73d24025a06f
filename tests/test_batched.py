"""Batched model evaluation against one tilt at a time, bit for bit.

The level solver evaluates every side's heap of midpoints in one model call
and the spectral model's Lambda row takes eigenvalues only; both must give
the bytes of the one-tilt computations they replace.  Nothing here is pinned to a
recorded value, so these tests hold under any numpy SIMD dispatch.
"""

import dataclasses
import math

import numpy as np
import pytest

from blockldp import (MarkovSpec, bernoulli_model, classify, digit_indicator_model,
                      find_level_points, gaussian_model, markov_model, regimes)
from blockldp.regimes import _LEVEL_DEPTH, _level_points, rate_along

from _reference import level_point_side, log_perron_eig

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

# Levels from tiny to beyond every bounded rate (open sides: bernoulli:0.5
# never exceeds log 2, so c = 5 leaves both sides at +-inf), plus each
# model's threshold at two tilts.
LEVELS = (1e-4, 0.01, 0.05, 0.1, 0.3, 1.0, 5.0, 2000.0)


def _counting(model):
    """The model with grad calls counted (rate_along makes one per batch)."""
    calls = []

    def grad(lam):
        calls.append(np.size(lam))
        return model.grad(lam)

    return dataclasses.replace(model, grad=grad), calls


@pytest.mark.parametrize("name", sorted(MODELS))
def test_level_solver_matches_one_tilt_bisection(name):
    model = MODELS[name]()
    levels = LEVELS + tuple(rate_along(model, l0) for l0 in (0.5, -0.7))
    for c in levels:
        wants, midpoints = [], 0
        for side in (-1, +1):
            ref_model, ref_calls = _counting(model)
            wants.append(level_point_side(ref_model, c, side))
            midpoints = max(midpoints, len(ref_calls) - 1)
            assert repr(_level_points(model, c, (side,))) == repr(wants[-1:]), (c, side)
        # One walk solves both sides: a call per D halvings of the longer one.
        new_model, new_calls = _counting(model)
        assert repr(_level_points(new_model, c, (-1, +1))) == repr(wants), c
        assert len(new_calls) <= math.ceil(midpoints / _LEVEL_DEPTH) + 1, c
        assert repr(find_level_points(model, c)) == repr(tuple(wants))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_classify_matches_one_tilt_bisection(name, monkeypatch):
    model = MODELS[name]()
    cases = []
    for l0 in (0.5, -0.7):
        thr = rate_along(model, l0)
        cases += [(l0, c) for c in (0.0, 0.5 * thr, thr, 2.0 * thr, thr + 1e-3, 5.0)]
    got = [classify(model, l0, c) for l0, c in cases]
    monkeypatch.setattr(regimes, "_level_points",
                        lambda m, c, sides: [level_point_side(m, c, s) for s in sides])
    monkeypatch.setattr(regimes, "find_level_points",
                        lambda m, c: (level_point_side(m, c, -1), level_point_side(m, c, +1)))
    want = [classify(model, l0, c) for l0, c in cases]
    for (l0, c), g, w in zip(cases, got, want):
        assert repr(g) == repr(w), (l0, c)
        # classify's one-call threshold and x0 equal the separate calls' values
        assert repr(g.threshold) == repr(rate_along(model, l0))
        assert repr(g.x0) == repr(float(model.grad(l0)))
    assert {r.regime for r in got} == {"subcritical", "critical", "supercritical"}


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
