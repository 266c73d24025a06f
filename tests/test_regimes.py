"""Tests for schedules and regime classification."""

import math

import numpy as np
import pytest

from blockldp import (MarkovSpec, Schedule, UsageError, bernoulli_model, classify,
                      digit_indicator_model, gaussian_model, markov_model)

# frozen closed-form constants for the digit:10:0 model at lambda0 = 0.8
DIGIT_THRESHOLD = 0.04299898970786353
DIGIT_X0 = 0.19825689850220396
DIGIT_LAM_08 = 0.11560652909389964   # L(0.8)
TILTED_T2 = 0.27421204789566282      # L(0.8) + 0.8 * x0
# Bernoulli(1/2) threshold at lambda0 = 0.5 and subcritical reach at
# lambda0 = log 9 (x0 = 0.9, c = 0.1)
BERN_THRESHOLD = 0.030299861980765911
BERN_EPS_MAX = 0.18020537383859028


def test_schedule_k_values():
    assert Schedule(0.1).k(100) == 22027
    assert Schedule(0.7).k(20) == 1202605
    assert Schedule(0.1).k(50) == 149
    assert Schedule(0.1).k(75) == 1809
    assert Schedule(0.0).k(10) == 1
    s = Schedule(0.1)
    ks = [s.k(n) for n in range(1, 200)]
    assert min(ks) >= 1
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    for n in (50, 100, 200):
        assert abs(math.log(s.k(n)) / n - 0.1) < 0.05


def test_schedule_guards_and_windows():
    with pytest.raises(UsageError):
        Schedule(-0.1)
    with pytest.raises(UsageError):
        Schedule(float("inf"))
    with pytest.raises(UsageError):
        Schedule(1.0).k(0)
    with pytest.raises(UsageError):
        Schedule(8.0).k(100)  # e^800 overflows a double
    with pytest.raises(UsageError):
        Schedule(0.1).eps_n(10)  # needs gamma
    s = Schedule(0.1, gamma=9.0)
    assert s.eps_n(100) == pytest.approx(9.0 * math.log(100) / 100, rel=1e-15)


def test_classify_threshold_and_regimes():
    mdl = digit_indicator_model(10, 0)
    rep = classify(mdl, 0.8, 0.10)
    assert rep.regime == "supercritical"
    assert rep.threshold == pytest.approx(DIGIT_THRESHOLD, abs=1e-14)
    assert rep.x0 == pytest.approx(DIGIT_X0, abs=1e-14)
    assert classify(mdl, 0.8, DIGIT_THRESHOLD).regime == "critical"
    assert classify(mdl, 0.8, DIGIT_THRESHOLD + 5e-13).regime == "critical"
    assert classify(mdl, 0.8, DIGIT_THRESHOLD + 1e-6).regime == "supercritical"
    assert classify(mdl, 0.8, DIGIT_THRESHOLD - 1e-6).regime == "subcritical"
    bern = classify(bernoulli_model(0.5), 0.5, 0.5)
    assert bern.threshold == pytest.approx(BERN_THRESHOLD, abs=1e-14)
    assert classify(bernoulli_model(0.5), 0.5, 0.01).regime == "subcritical"


def test_classify_gaussian_threshold_exact():
    rep = classify(gaussian_model(1), 1.2, 0.3)
    assert rep.threshold == 0.72  # lambda0^2 / 2 with exact float arithmetic
    assert rep.regime == "subcritical"


def test_classify_requires_1d_model():
    # The supercritical region of |lambda|^2/2 at c = 1/2 is |lambda| < 1; a
    # vector report would need level sets that classify does not compute.
    with pytest.raises(UsageError, match="1-d model"):
        classify(gaussian_model(2), [0.5, 0.5], 0.5)
    # A non-finite lambda0 is refused by name, before any model derivative.
    chain = markov_model(MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                                    phi=np.array([0.0, 1.0])))
    for mdl, lambda0 in ((bernoulli_model(0.5), math.nan), (gaussian_model(1), math.inf),
                         (chain, math.nan), (chain, -math.inf)):
        with pytest.raises(UsageError, match="tilt"):
            classify(mdl, lambda0, 0.1)


def test_supercritical_prediction_interval():
    mdl = digit_indicator_model(10, 0)
    rep = classify(mdl, 0.8, 0.10)
    lo, hi = rep.prediction["lambda_interval"]
    assert lo < 0.8 < hi
    assert rep.prediction["ball_rate"] == rep.threshold
    g_hi = hi * float(mdl.grad(hi)) - float(mdl.lam(hi))
    assert g_hi == pytest.approx(0.10, abs=1e-9)
    assert rep.prediction["radius"] == pytest.approx(min(0.8 - lo, hi - 0.8),
                                                     rel=1e-12)


def test_critical_prediction_affine():
    mdl = digit_indicator_model(10, 0)
    rep = classify(mdl, 0.8, DIGIT_THRESHOLD)
    assert rep.regime == "critical"
    assert rep.prediction["value_at_t1"] == pytest.approx(DIGIT_LAM_08,
                                                          abs=1e-14)
    assert rep.tilted(1.0) == rep.prediction["value_at_t1"]
    assert rep.tilted(2.0) == pytest.approx(TILTED_T2, abs=1e-13)
    assert rep.tilted(1.5) == pytest.approx(
        0.5 * (rep.tilted(1.0) + rep.tilted(2.0)), rel=1e-12)
    assert rep.prediction["samples"]["2"] == rep.tilted(2.0)
    with pytest.raises(UsageError):
        rep.tilted(0.99)
    with pytest.raises(UsageError):  # tilted limit only exists when critical
        classify(mdl, 0.8, 0.10).tilted(1.5)


def test_subcritical_prediction_eps_max():
    rep = classify(bernoulli_model(0.5), math.log(9.0), 0.10)
    assert rep.regime == "subcritical"
    assert rep.x0 == pytest.approx(0.9, abs=1e-12)
    assert rep.prediction["eps_max"] == pytest.approx(BERN_EPS_MAX, abs=1e-8)
