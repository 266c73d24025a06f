"""Tests for schedules, the rate along tilts, level points and regime classification."""

import dataclasses
import json
import math

import numpy as np
import pytest

from blockldp import (MarkovSpec, NumericalError, Schedule, UsageError, bernoulli_model,
                      classify, digit_indicator_model, find_level_points, gaussian_model,
                      markov_model)
from blockldp.cli import main
from blockldp.regimes import rate_along

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
    rep = classify(gaussian_model(), 1.2, 0.3)
    assert rep.threshold == 0.72  # lambda0^2 / 2 with exact float arithmetic
    assert rep.regime == "subcritical"


def test_classify_refuses_non_finite_lambda0():
    # A non-finite lambda0 is refused by name, before any model derivative.
    chain = markov_model(MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                                    phi=np.array([0.0, 1.0])))
    for mdl, lambda0 in ((bernoulli_model(0.5), math.nan), (gaussian_model(), math.inf),
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


def test_level_points_quadratic_and_digit():
    lam1, lam2 = find_level_points(gaussian_model(), 0.125)
    assert lam1 == pytest.approx(-0.5, abs=1e-7)
    assert lam2 == pytest.approx(0.5, abs=1e-7)
    mdl = digit_indicator_model(10, 0)
    lam1, lam2 = find_level_points(mdl, DIGIT_THRESHOLD)
    assert lam2 == pytest.approx(0.8, abs=1e-6)
    assert lam1 == pytest.approx(-1.45, abs=0.02)
    g1 = lam1 * float(mdl.grad(lam1)) - float(mdl.lam(lam1))
    assert g1 == pytest.approx(DIGIT_THRESHOLD, abs=1e-9)


def test_level_points_guards():
    with pytest.raises(UsageError):
        find_level_points(gaussian_model(), 0.0)
    # the Bernoulli rate never exceeds log 2: both sides are open
    assert find_level_points(bernoulli_model(0.5), 5.0) == (-np.inf, np.inf)


def test_shared_bisection_values_pinned():
    # Bit-exact results of the level bisection on digit:10:0.
    model = digit_indicator_model(10, 0)
    assert find_level_points(model, 0.05) == (-1.6567451879382133, 0.8524678181856871)
    assert find_level_points(model, 0.1) == (-4.786078631877899, 1.1349048523698002)


def test_rate_along_scalars_and_arrays():
    mdl = gaussian_model()
    assert rate_along(mdl, 0.5) == 0.125 and type(rate_along(mdl, 0.5)) is float
    got = rate_along(mdl, np.array([[0.5, -2.0], [0.0, 1.0]]))
    assert got.shape == (2, 2) and got.tolist() == [[0.125, 2.0], [0.0, 0.5]]
    for lam in (1e4, 1e8, 1e12, 1e16, -1e16):  # wide rates keep their digits
        assert rate_along(mdl, lam) == 0.5 * lam * lam
    with pytest.raises(UsageError, match="nan"):
        rate_along(mdl, np.array([0.5, np.nan]))


def test_rate_along_non_finite_rate_is_numerical_error():
    # 1e200 * Lambda'(1e200) - Lambda(1e200) is inf - inf for the Gaussian;
    # the overflow must surface as NumericalError naming the tilt, not as a
    # RuntimeWarning (an error under this suite's warning filter).
    mdl = gaussian_model()
    with pytest.raises(NumericalError, match=r"lambda=1e\+200"):
        rate_along(mdl, 1e200)
    with pytest.raises(NumericalError, match=r"lambda=-1e\+200"):
        rate_along(mdl, np.array([0.5, -1e200, 2.0]))
    with pytest.raises(NumericalError, match=r"lambda=1e\+200"):
        classify(mdl, 1e200, 0.1)


BENCH_CHAIN = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]), phi=np.array([0.0, 1.0]))
THREE_CHAIN = MarkovSpec(P=np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2],
                                     [0.1, 0.3, 0.6]]),
                         phi=np.array([0.0, 1.0, 2.5]))
SATURATING = {"bernoulli:0.3": lambda: bernoulli_model(0.3),
              "digit:10:0": lambda: digit_indicator_model(10, 0),
              "markov-bench": lambda: markov_model(BENCH_CHAIN),
              "markov-3": lambda: markov_model(THREE_CHAIN)}


@pytest.mark.parametrize("name", sorted(SATURATING))
def test_rate_along_refuses_cancelled_digits(name):
    # Lambda' saturates at huge lambda, so lambda * Lambda' - Lambda cancels to
    # a wrong finite value (0.0 at 1e200, 2.0 for bernoulli:0.3 at 1e16).
    model = SATURATING[name]()
    for lam in (1e16, 1e200):
        with pytest.raises(NumericalError, match=r"lambda=1e\+%d" % round(math.log10(lam))):
            rate_along(model, lam)
        with pytest.raises(NumericalError, match="tilt"):
            rate_along(model, np.array([0.5, lam]))
        with pytest.raises(NumericalError):
            classify(model, lam, 0.1)
    # Tilts where g keeps its digits still give lambda * Lambda' - Lambda.
    for lam in (0.0, 1e-300, -1e-300, 1e-15, -1e-15, 0.5, -0.5, 50.0, -50.0, 60.0,
                1e3, 1e4, -1e9, -1e200):
        assert rate_along(model, lam) == lam * model.grad(lam) - model.lam(lam), lam


def test_cancelled_threshold_exits_3_and_writes_nothing(tmp_path, capsys):
    for lambda0 in ("1e16", "1e200"):
        assert main(["regime", "--model", "bernoulli:0.3", "--lambda0", lambda0]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "lambda=" in err
    cfg = {"kind": "iid-digit", "m": 10, "a": 0, "lambda0": 1e200, "n_list": [20],
           "seeds": [1], "budget": 1e5, "lambda_grid": [-1.0, 1.0, 0.5],
           "x_grid": [0.05, 0.25, 0.05], "out_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["fig1", "--config", str(tmp_path / "cfg.json")]) == 3
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def _counting(model):
    """The model with its lam and grad calls recorded (argument per call)."""
    calls = {"lam": [], "grad": []}

    def counted(name):
        def fn(lam):
            calls[name].append(np.copy(lam))
            return getattr(model, name)(lam)
        return fn

    return dataclasses.replace(model, lam=counted("lam"), grad=counted("grad")), calls


def test_classify_evaluates_each_model_value_once():
    model = markov_model(BENCH_CHAIN)
    thr = rate_along(model, 0.5)
    counting, calls = _counting(model)
    find_level_points(counting, thr)
    assert len(calls["grad"]) <= 8  # one walk for both sides
    for c, regime, grads in ((thr + 0.03, "supercritical", 8),
                             (0.6 * thr, "subcritical", 10)):
        counting, calls = _counting(model)
        assert classify(counting, 0.5, c).regime == regime
        assert len(calls["grad"]) <= grads, regime
    # critical: Lambda(lambda0) comes from the call that gave the threshold
    counting, calls = _counting(model)
    assert classify(counting, 0.5, thr).regime == "critical"
    assert (len(calls["lam"]), len(calls["grad"])) == (1, 1)


def test_subcritical_side_is_the_sign_of_lambda0():
    makers = {**SATURATING, "gaussian:1": lambda: gaussian_model()}
    for name, make in sorted(makers.items()):
        model = make()
        for l0 in (0.5, -0.7, 2.0, -3.0):
            thr = rate_along(model, l0)
            for c in (0.0, 0.3 * thr, 0.9 * thr):
                counting, calls = _counting(model)
                rep = classify(counting, l0, c)
                assert rep.regime == "subcritical", (name, l0, c)
                # Lambda'(0) is read only as the edge slope when c = 0, never
                # to pick the side
                grad_at_0 = any(np.all(t == 0.0) for t in calls["grad"])
                assert grad_at_0 == (c == 0.0), (name, l0, c)
                assert (l0 > 0) == (rep.x0 > model.grad(0.0)), (name, l0, c)


def test_default_c_is_the_threshold_of_one_model_call(capsys):
    for model in (markov_model(BENCH_CHAIN), digit_indicator_model(10, 0)):
        counting, calls = _counting(model)
        rep = classify(counting, 0.5)
        assert rep.regime == "critical" and rep.c == rep.threshold == rate_along(model, 0.5)
        assert (len(calls["lam"]), len(calls["grad"])) == (1, 1)
    # Bernoulli rounding leaves this threshold at -3.4e-16: the default c is
    # 0, not a refused negative exponent.
    rep = classify(digit_indicator_model(10, 0), 1e-15)
    assert rep.threshold < 0.0 and rep.c == 0.0 and rep.regime == "critical"
    assert main(["regime", "--model", "digit:10:0", "--lambda0", "1e-15"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["regime"] == "critical"
    assert json.loads(out)["c"] == 0.0
