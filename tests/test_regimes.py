"""Tests for schedules, regime classification, envelopes and emptiness."""

import math

import numpy as np
import pytest

from blockldp import (Schedule, UsageError, bernoulli_model, classify,
                      digit_indicator_model, envelope, gaussian_model,
                      predict_empty)

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


def test_envelope_suprema_and_flag():
    mdl = gaussian_model(1)
    res = envelope(mdl, (-1.0, 1.0), 0.5, 9.0, 9.0, 100)
    assert res.xi1 == pytest.approx(1.0, abs=1e-12)
    assert res.xi2 == pytest.approx(1.125, abs=1e-12)
    assert res.eps_n == pytest.approx(9.0 * math.log(100) / 100, rel=1e-15)
    assert res.value == pytest.approx((1.0 + 2.0 * res.xi1) * res.eps_n,
                                      rel=1e-15)
    assert res.valid is False  # sqrt(81) = 9 < 1 + 2 + 9 * 1.125
    ok = envelope(mdl, (-1.0, 1.0), 0.5, 2.0, 200.0, 100)
    assert ok.valid is True    # sqrt(400) = 20 > 3 + 2 * 1.125


def test_envelope_digit_monotone_gradient():
    mdl = digit_indicator_model(10, 0)
    res = envelope(mdl, (-1.45, 0.8), 0.5, 9.0, 9.0, 100)
    # |L'| is increasing here, so the sup sits exactly at the right endpoint
    assert res.xi1 == float(mdl.grad(0.8))


def test_envelope_eta_and_guards():
    mdl = gaussian_model(1)
    base = envelope(mdl, (-1.0, 1.0), 0.5, 9.0, 9.0, 100, eta=1.0)
    wide = envelope(mdl, (-1.0, 1.0), 0.5, 9.0, 9.0, 100, eta=2.0)
    assert wide.value == pytest.approx(base.value + base.eps_n, rel=1e-12)
    with pytest.raises(UsageError):
        envelope(mdl, (1.0, -1.0), 0.5, 9.0, 9.0, 100)
    with pytest.raises(UsageError):
        envelope(mdl, (-1.0, 1.0), 0.0, 9.0, 9.0, 100)
    with pytest.raises(UsageError):
        envelope(gaussian_model(2), (-1.0, 1.0), 0.5, 9.0, 9.0, 100)


def test_predict_empty_bernoulli_onset():
    pred = predict_empty(bernoulli_model(0.5), 0.9, 0.1, 0.05)
    assert pred.claim and pred.heuristic_onset_n == 41
    assert pred.inf_rate == pytest.approx(0.27043809275395444, abs=1e-12)


def test_predict_empty_gaussian_onset():
    pred = predict_empty(gaussian_model(1), 2.0, 1.0, 0.5)
    assert pred.claim and pred.heuristic_onset_n == 56
    assert pred.inf_rate == pytest.approx(1.125, rel=1e-15)


def test_predict_empty_withdrawn_claims():
    # ball containing the mean: the mass cannot vanish
    pred = predict_empty(bernoulli_model(0.5), 0.62, 0.001, 0.2)
    assert pred.claim is False and pred.heuristic_onset_n is None
    assert pred.inf_rate == 0.0
    # rate on the near edge below c: growth wins, claim withdrawn
    pred2 = predict_empty(bernoulli_model(0.5), 0.62, 0.02, 0.05)
    assert pred2.claim is False and 0.0 < pred2.inf_rate < 0.02
    # rate infinite on the whole ball: empty from the first n
    pred3 = predict_empty(bernoulli_model(0.5), 1.2, 0.1, 0.05)
    assert pred3.claim and pred3.heuristic_onset_n == 1
    assert math.isinf(pred3.inf_rate)


def test_predict_empty_guards():
    with pytest.raises(UsageError):  # supercritical pair rejected
        predict_empty(gaussian_model(1), 0.5, 1.0, 0.1)
    with pytest.raises(UsageError):
        predict_empty(bernoulli_model(0.5), 0.9, 0.1, 0.0)
    with pytest.raises(UsageError):
        predict_empty(gaussian_model(2), 2.0, 1.0, 0.5)
