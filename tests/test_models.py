"""Tests for the closed-form and spectral SCGF models."""

import hashlib
import math

import numpy as np
import pytest

from blockldp import (MarkovSpec, NumericalError, UsageError, bernoulli_model,
                      digit_indicator_model, gaussian_model, markov_model, models)

from _reference import exact_prefix_scgf

# Spectral and finite-n values for the two-state chain with stay probability
# 0.9 and the state-1 indicator observable, frozen from a 40-digit evaluation
# of the closed-form Perron root and the exact matrix recursion.
SYM_LAM_P1 = 0.90171939946990602
SYM_LAM_M1 = -0.098280600530093977
SYM_PREFIX = {
    (1.0, 6): 0.82161197821842428,
    (1.0, 12): 0.86155693744534841,
    (-1.0, 6): -0.17838802178157572,
    (-1.0, 12): -0.13844306255465159,
}


# sha256 of the float64 bytes of lam, grad and hess on the tilts -6:6:0.01
# (1,201 points), recorded before the spectral rows were staged.
SPECTRAL_ROW_SHA256 = {
    ("symmetric", "lam"): "4cc958a334c707e0d636a2712863d934bca653eb7fb1734290b9254010a6ee03",
    ("symmetric", "grad"): "1a9c4e8c722c1b54f92b764f1f97ae80e0939c3f603b674403f9711cd95164e6",
    ("symmetric", "hess"): "a238c89592ef53f296b4720fda14bef3021a1ebb47394ac809036b6302a49880",
    ("three-state", "lam"): "7b25312d6d4cf3e64a05d03bc4be9b9637bbc870fe5045b784ff44413c66a4d4",
    ("three-state", "grad"): "dd11e911d6f82c3768ddc2d73928ff3d46972c4dbfada00f4d0c549ed82ee184",
    ("three-state", "hess"): "6bd67daac0afed28cdbb8e78998fb1eb09a44e3f0a7d56b8d1ea47078ae46323",
}


def _sym_chain() -> MarkovSpec:
    return MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]))


def _three_chain() -> MarkovSpec:
    return MarkovSpec(P=np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2],
                                  [0.1, 0.3, 0.6]]),
                      phi=np.array([0.0, 1.0, 2.5]))


def _scalar_models():
    return [bernoulli_model(0.5), bernoulli_model(0.1),
            digit_indicator_model(10, 0), gaussian_model(),
            markov_model(_sym_chain())]


def test_bernoulli_closed_forms():
    mdl = bernoulli_model(0.5)
    assert float(mdl.lam(0.0)) == 0.0
    assert float(mdl.lam(1.0)) == pytest.approx(math.log((1.0 + math.e) / 2.0),
                                                rel=1e-15)
    assert float(mdl.lam(1.0)) == pytest.approx(0.62011450695827752, abs=1e-15)
    assert float(mdl.grad(0.0)) == 0.5
    assert float(mdl.hess(0.0)) == 0.25
    assert float(mdl.conj(0.5)) == 0.0
    assert float(mdl.conj(1.0)) == pytest.approx(math.log(2.0), rel=1e-15)
    assert float(mdl.conj(0.0)) == pytest.approx(math.log(2.0), rel=1e-15)
    assert np.isinf(mdl.conj(1.0000001)) and np.isinf(mdl.conj(-0.0000001))
    with pytest.raises(UsageError):
        bernoulli_model(0.0)
    with pytest.raises(UsageError):
        bernoulli_model(1.0)


def test_bernoulli_tails_stable():
    mdl = bernoulli_model(0.5)
    # log(1 - p + p e^l) approaches log(1-p) and l + log p without overflow
    assert float(mdl.lam(-700.0)) == pytest.approx(math.log(0.5), rel=1e-15)
    assert float(mdl.lam(700.0)) == pytest.approx(700.0 + math.log(0.5),
                                                  rel=1e-15)


def test_digit_indicator_matches_bernoulli():
    dm = digit_indicator_model(10, 0)
    bm = bernoulli_model(0.1)
    lam = np.linspace(-4.0, 4.0, 41)
    assert np.max(np.abs(dm.lam(lam) - bm.lam(lam))) <= 1e-12
    xs = np.linspace(0.01, 0.99, 21)
    assert np.max(np.abs(dm.conj(xs) - bm.conj(xs))) <= 1e-12
    assert dm.name == "digit:10:0"
    with pytest.raises(UsageError):
        digit_indicator_model(1, 0)
    with pytest.raises(UsageError):
        digit_indicator_model(10, 10)
    with pytest.raises(UsageError):  # the symbol is an integer
        digit_indicator_model(10, 1.5)


def test_digit_level_values():
    mdl = digit_indicator_model(10, 0)
    assert float(mdl.grad(0.8)) == pytest.approx(0.19825689850220396, abs=1e-14)
    assert float(mdl.grad(-1.45)) == pytest.approx(0.025401321423286036,
                                                   abs=1e-14)
    x2 = float(mdl.grad(0.8))
    assert 0.8 * x2 - float(mdl.lam(0.8)) == pytest.approx(
        0.04299898970786353, abs=1e-14)
    assert float(mdl.conj(x2)) == pytest.approx(0.04299898970786353, abs=1e-12)


def test_gaussian_self_dual():
    mdl = gaussian_model()
    assert mdl.name == "gaussian:1"
    for v in (-1.3, 0.0, 0.4, 2.0):
        assert float(mdl.lam(v)) == 0.5 * v * v
        assert float(mdl.conj(v)) == float(mdl.lam(v))
        assert float(mdl.grad(v)) == v
        assert float(mdl.hess(v)) == 1.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    lams = rng.uniform(-2.0, 2.0, size=25)
    h = 1e-4
    for mdl in _scalar_models():
        for lam in lams:
            fd = (float(mdl.lam(lam + h)) - float(mdl.lam(lam - h))) / (2.0 * h)
            g = float(mdl.grad(lam))
            assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))


def test_hessians_nonnegative():
    rng = np.random.default_rng(9)
    lams = rng.uniform(-2.0, 2.0, size=25)
    for mdl in _scalar_models():
        assert np.all(np.asarray(mdl.hess(lams)) >= -1e-9)


def test_duality_at_exposed_points():
    rng = np.random.default_rng(10)
    lams = rng.uniform(-2.0, 2.0, size=25)
    for mdl in (bernoulli_model(0.5), bernoulli_model(0.1),
                digit_indicator_model(10, 0), gaussian_model()):
        for lam in lams:
            x = float(mdl.grad(lam))
            assert abs(float(mdl.conj(x)) - (lam * x - float(mdl.lam(lam)))) <= 1e-9


def test_young_fenchel_inequality():
    rng = np.random.default_rng(11)
    mdl = bernoulli_model(0.3)
    for _ in range(200):
        lam = float(rng.uniform(-3.0, 3.0))
        x = float(rng.uniform(0.0, 1.0))
        assert float(mdl.lam(lam)) + float(mdl.conj(x)) >= lam * x - 1e-12


def test_markov_spectral_frozen_values():
    mdl = markov_model(_sym_chain())
    assert float(mdl.lam(0.0)) == 0.0
    assert float(mdl.lam(1.0)) == pytest.approx(SYM_LAM_P1, abs=1e-12)
    assert float(mdl.lam(-1.0)) == pytest.approx(SYM_LAM_M1, abs=1e-12)
    assert float(mdl.grad(0.0)) == pytest.approx(0.5, abs=1e-6)
    # swapping the two states maps phi to 1 - phi, so L(-l) = L(l) - l
    for lam in (0.5, 1.0, 2.0):
        assert float(mdl.lam(-lam)) == pytest.approx(float(mdl.lam(lam)) - lam,
                                                     abs=1e-11)


def test_markov_perron_against_quadratic_formula():
    # two states: the Perron root of the tilted matrix solves
    # r^2 - 0.9 (1 + e^l) r + 0.8 e^l = 0 at l = 1
    import mpmath
    mpmath.mp.dps = 30
    tr = mpmath.mpf("0.9") * (1 + mpmath.e)
    det = mpmath.mpf("0.8") * mpmath.e
    rho = (tr + mpmath.sqrt(tr * tr - 4 * det)) / 2
    want = float(mpmath.log(rho))
    assert float(markov_model(_sym_chain()).lam(1.0)) == pytest.approx(
        want, abs=1e-12)


def test_markov_one_state_is_linear():
    mdl = markov_model(MarkovSpec(P=np.array([[1.0]]), phi=np.array([2.5])))
    for lam in (-3.0, 0.0, 0.7, 10.0):
        assert float(mdl.lam(lam)) == lam * 2.5
    chain = markov_model(_sym_chain())
    for field in ("lam", "grad", "hess"):
        for bad in (np.nan, np.inf):  # exit code 3
            with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
                getattr(chain, field)(np.array([0.5, bad]))
    with pytest.raises(UsageError):  # vector observables are not supported
        markov_model(MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                                phi=np.array([[0.0, 1.0], [1.0, 0.0]])))


@pytest.mark.parametrize("name, spec", [("symmetric", _sym_chain()),
                                        ("three-state", _three_chain())])
def test_markov_spectral_rows_are_pinned(name, spec):
    grid = -6.0 + 0.01 * np.arange(1201)
    mdl = markov_model(spec)
    for field in ("lam", "grad", "hess"):
        got = hashlib.sha256(getattr(mdl, field)(grid).tobytes()).hexdigest()
        assert got == SPECTRAL_ROW_SHA256[name, field], field


def test_markov_conjugate_infinite_outside_mean_range():
    mdl = markov_model(_sym_chain())
    for x in (-0.5, -1e-9, 1.0 + 1e-9, 1.5):
        assert mdl.conj(x) == np.inf, x
    assert np.all(np.isfinite(mdl.conj(np.array([0.001, 0.5, 0.999]))))
    one = markov_model(MarkovSpec(P=np.array([[1.0]]), phi=np.array([2.5])))
    assert one.conj(2.4) == one.conj(2.6) == np.inf


def test_markov_conjugate_duality_loose():
    # the conjugate comes from a dense grid, so allow its O(step^2) error
    mdl = markov_model(_sym_chain())
    for lam0 in (-1.0, 0.5, 1.0):
        x = float(mdl.grad(lam0))
        want = lam0 * x - float(mdl.lam(lam0))
        assert float(mdl.conj(x)) == pytest.approx(want, abs=1e-5)


def test_prefix_scgf_degenerate_and_frozen():
    spec = _sym_chain()
    assert exact_prefix_scgf(spec, 0.0, 6) == 0.0
    one = MarkovSpec(P=np.array([[1.0]]), phi=np.array([2.5]))
    assert exact_prefix_scgf(one, 0.4, 5) == pytest.approx(1.0, abs=1e-12)
    # n = 1 under the uniform marginal is the Bernoulli(1/2) value
    assert exact_prefix_scgf(spec, 1.0, 1) == pytest.approx(
        math.log((1.0 + math.e) / 2.0), rel=1e-14)
    for (lam, n), want in SYM_PREFIX.items():
        assert exact_prefix_scgf(spec, lam, n) == pytest.approx(want, abs=1e-13)
    for bad in (0, 25):
        with pytest.raises(UsageError):
            exact_prefix_scgf(spec, 1.0, bad)


def test_prefix_scgf_symmetry_and_approach():
    spec = _sym_chain()
    mdl = markov_model(spec)
    for n in (4, 9):
        assert exact_prefix_scgf(spec, -1.0, n) == pytest.approx(
            exact_prefix_scgf(spec, 1.0, n) - 1.0, abs=1e-13)
    for lam in (-1.0, 1.0):
        target = float(mdl.lam(lam))
        gap12 = abs(exact_prefix_scgf(spec, lam, 12) - target)
        gap6 = abs(exact_prefix_scgf(spec, lam, 6) - target)
        assert gap12 < gap6


@pytest.mark.parametrize("spec", [_sym_chain(), _three_chain()],
                         ids=["symmetric", "three-state"])
def test_markov_spectral_against_mpmath(spec):
    import mpmath
    P = mpmath.matrix(spec.P.tolist())

    def log_perron(l):
        T = mpmath.matrix(spec.s, spec.s)
        for x in range(spec.s):
            for y in range(spec.s):
                T[x, y] = P[x, y] * mpmath.exp(l * mpmath.mpf(spec.phi[y]))
        return mpmath.log(max(mpmath.eig(T, left=False, right=False),
                              key=lambda e: mpmath.re(e)).real)

    mdl = markov_model(spec)
    lams = np.array([-3.0, -0.4, 0.0, 0.5, 2.0])
    got = (mdl.lam(lams), mdl.grad(lams), mdl.hess(lams))
    with mpmath.workdps(40):
        for i, lam in enumerate(lams):
            for order in range(3):
                want = float(mpmath.diff(log_perron, mpmath.mpf(lam), order))
                assert abs(got[order][i] - want) <= 1e-12, (lam, order)


def test_markov_identical_rows_is_bernoulli():
    p = 0.3
    mdl = markov_model(MarkovSpec(P=np.array([[1.0 - p, p], [1.0 - p, p]]),
                                  phi=np.array([0.0, 1.0])))
    ber = bernoulli_model(p)
    lams = np.linspace(-4.0, 4.0, 33)
    for field in ("lam", "grad", "hess"):
        assert np.max(np.abs(getattr(mdl, field)(lams)
                             - getattr(ber, field)(lams))) <= 1e-12, field


def test_markov_exact_values_at_zero():
    # asymptotic variance of the stay-0.9 indicator chain:
    # 0.25 (1 + 0.8) / (1 - 0.8), with 0.8 the second eigenvalue
    mdl = markov_model(_sym_chain())
    assert float(mdl.grad(0.0)) == pytest.approx(0.5, abs=1e-12)
    assert float(mdl.hess(0.0)) == pytest.approx(2.25, abs=1e-12)
    assert float(markov_model(_three_chain()).lam(0.0)) == 0.0


def test_markov_spectral_chunk_independent(monkeypatch):
    grid = np.linspace(-6.0, 6.0, 101)
    whole = markov_model(_three_chain()).lam(grid)
    pieces = np.concatenate([markov_model(_three_chain()).lam(grid[a:a + 17])
                             for a in range(0, grid.size, 17)])
    monkeypatch.setattr(models, "_CHUNK_VALUES", 9 * 5)
    small = markov_model(_three_chain()).lam(grid)
    assert whole.tobytes() == pieces.tobytes() == small.tobytes()


@pytest.mark.parametrize("p", [0.1, 0.37, 0.5])
def test_bernoulli_matches_scipy_bit_for_bit(p):
    # The libm forms in models.py reproduce scipy.special's expit and rel_entr
    # bit for bit; scipy is kept as the independent reference.
    from scipy.special import expit, rel_entr
    mdl = bernoulli_model(p)
    rng = np.random.default_rng(7)
    edges = np.array([-800.0, -709.9, 709.9, -np.inf, np.inf, np.nan, 0.0, 1.0])
    lams = np.concatenate([rng.uniform(-40.0, 40.0, 900_000),
                           rng.uniform(-760.0, 760.0, 100_000), edges])
    q = expit(lams + math.log(p / (1.0 - p)))
    assert np.array_equal(mdl.grad(lams), q, equal_nan=True)
    assert np.array_equal(mdl.hess(lams), q * (1.0 - q), equal_nan=True)
    # x/p and (1-x)/(1-p) at and beside 1/2 and 2, the log1p branch edges
    branch = np.array([p / 2.0, 2.0 * p, 1.0 - (1.0 - p) / 2.0, 1.0 - 2.0 * (1.0 - p)])
    branch = np.concatenate([branch, np.nextafter(branch, -np.inf),
                             np.nextafter(branch, np.inf)])
    xs = np.concatenate([rng.uniform(-0.5, 1.5, 200_000), edges, branch,
                         [-0.0, 1e300, -1e300]])
    assert np.array_equal(mdl.conj(xs), rel_entr(xs, p) + rel_entr(1.0 - xs, 1.0 - p),
                          equal_nan=True)
