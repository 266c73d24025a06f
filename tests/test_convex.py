"""Tests for the discrete Legendre transform, grid gradients and level solvers."""

import numpy as np
import pytest

from blockldp import (BlockStats, DataError, SampledFunction, UsageError,
                      bernoulli_model, digit_indicator_model, empirical_scgf,
                      find_level_points, gaussian_model, grad_estimate,
                      legendre, solve_slope)
from blockldp._serialize import make_grid

DIGIT_THRESHOLD = 0.04299898970786353  # 0.8 * L'(0.8) - L(0.8), digit:10:0


def _quad() -> SampledFunction:
    g = make_grid(-3.0, 3.0, 0.005)
    return SampledFunction(grid=g, values=0.5 * g * g)


def test_legendre_quadratic():
    res = legendre(_quad(), np.array([1.0, 0.5]))
    assert abs(res.values[0] - 0.5) <= 1.5e-5
    assert res.values[1] == 0.125  # slope 0.5 lies on the grid: exact
    assert res.argmax[1] == 0.5
    assert not res.boundary.any()


def test_legendre_boundary_flags():
    res = legendre(_quad(), np.array([-5.0, 0.0, 5.0]))
    assert res.boundary[0] and res.boundary[2] and not res.boundary[1]
    # beyond the attained slopes the sup sits at the last grid node
    assert res.values[2] == pytest.approx(5.0 * 3.0 - 4.5, rel=1e-15)
    assert res.argmax[2] == 3.0


def test_legendre_tie_takes_smallest_slope():
    g = make_grid(-1.0, 1.0, 0.5)
    res = legendre(SampledFunction(grid=g, values=np.zeros(5)), np.array([0.0]))
    assert res.argmax[0] == -1.0 and res.values[0] == 0.0 and res.boundary[0]


def test_legendre_skips_infinite_entries():
    g = make_grid(-1.0, 1.0, 0.5)
    v = np.array([np.inf, 0.5, 0.0, 0.5, np.inf])
    res = legendre(SampledFunction(grid=g, values=v), np.array([10.0]))
    assert res.argmax[0] == 0.5 and res.boundary[0]
    with pytest.raises(DataError):
        legendre(SampledFunction(grid=g, values=np.full(5, np.inf)),
                 np.array([0.0]))
    with pytest.raises(DataError):
        legendre(SampledFunction(grid=g,
                                 values=np.array([0.0, 0.0, np.nan, 0.0, 0.0])),
                 np.array([0.0]))


def test_legendre_digit_model_oracle():
    mdl = digit_indicator_model(10, 0)
    g = make_grid(-6.0, 6.0, 0.002)
    f = SampledFunction(grid=g, values=mdl.lam(g))
    res = legendre(f, np.array([0.1983]))
    assert abs(res.values[0] - 0.043055) <= 1e-4
    xs = np.linspace(0.001, 0.97, 500)
    resx = legendre(f, xs)
    assert np.max(np.abs(resx.values - mdl.conj(xs))) <= 1e-4
    assert not resx.boundary.any()


def test_double_conjugation_minorizes():
    mdl = digit_indicator_model(10, 0)
    g = make_grid(-2.0, 1.0, 0.002)
    f = SampledFunction(grid=g, values=mdl.lam(g))
    lo, hi = float(mdl.grad(-2.0)), float(mdl.grad(1.0))
    xs = np.linspace(lo + 1e-3, hi - 1e-3, 4000)
    conj = legendre(f, xs)
    back = legendre(SampledFunction(grid=xs, values=conj.values), g)
    gap = f.values - back.values
    assert np.all(gap >= -1e-12)
    inner = (g >= -1.5) & (g <= 0.8)
    assert np.max(np.abs(gap[inner])) <= 1e-6


def test_grid_young_fenchel_inequality():
    rng = np.random.default_rng(21)
    stats = BlockStats(n=6, k=40, d=1, means=rng.normal(0.2, 0.5, size=(40, 1)))
    g = make_grid(-1.5, 1.5, 0.05)
    f = empirical_scgf(stats, g)
    xs = np.linspace(-1.0, 1.5, 37)
    res = legendre(f, xs)
    scores = xs[None, :] * g[:, None] - f.values[:, None]
    assert np.all(scores <= res.values[None, :] + 1e-12)


def test_conjugate_convex_on_uniform_grid():
    res = legendre(_quad(), np.linspace(-2.0, 2.0, 81))
    assert np.min(np.diff(res.values, 2)) >= -1e-9


def test_grad_estimate_low_degree_exact():
    g = make_grid(-2.0, 2.0, 0.01)
    est = grad_estimate(SampledFunction(grid=g, values=2.0 * g - 1.0))
    assert np.max(np.abs(est.values - 2.0)) <= 1e-12
    est = grad_estimate(SampledFunction(grid=g, values=0.5 * g * g))
    assert np.max(np.abs(est.values - g)) <= 1e-10


def test_grad_estimate_digit_model_accuracy():
    mdl = digit_indicator_model(10, 0)
    g = make_grid(-6.0, 6.0, 0.002)
    est = grad_estimate(SampledFunction(grid=g, values=mdl.lam(g)))
    assert np.max(np.abs(est.values - mdl.grad(g))) <= 1e-5


def test_grad_estimate_grid_guards():
    with pytest.raises(UsageError):  # needs at least three nodes
        grad_estimate(SampledFunction(grid=np.array([0.0, 1.0]),
                                      values=np.array([0.0, 1.0])))
    g = np.array([0.0, 1.0, 3.0])
    with pytest.raises(UsageError):  # non-uniform spacing
        grad_estimate(SampledFunction(grid=g, values=g))
    with pytest.raises(DataError):
        grad_estimate(SampledFunction(grid=np.array([0.0, 1.0, 2.0]),
                                      values=np.array([0.0, np.inf, 2.0])))


def test_solve_slope_examples():
    mdl = digit_indicator_model(10, 0)
    assert abs(solve_slope(mdl, 0.19825689850220396) - 0.8) <= 1e-8
    assert abs(solve_slope(bernoulli_model(0.25), 0.25)) <= 1e-9
    assert solve_slope(gaussian_model(1), 0.37) == pytest.approx(0.37, abs=1e-9)


def test_solve_slope_out_of_range():
    mdl = bernoulli_model(0.5)
    for x in (-0.2, 0.0, 1.0, 1.4):
        with pytest.raises(DataError):
            solve_slope(mdl, x)
    with pytest.raises(UsageError):
        solve_slope(mdl, np.inf)
    with pytest.raises(UsageError):
        solve_slope(gaussian_model(2), 0.5)


def test_level_points_quadratic_and_digit():
    lam1, lam2 = find_level_points(gaussian_model(1), 0.125)
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
        find_level_points(gaussian_model(1), 0.0)
    with pytest.raises(DataError):  # the Bernoulli rate never exceeds log 2
        find_level_points(bernoulli_model(0.5), 5.0)
    with pytest.raises(UsageError):
        find_level_points(gaussian_model(2), 0.1)


def test_shared_bisection_values_pinned():
    # Bit-exact results of the slope and level bisections on digit:10:0.
    model = digit_indicator_model(10, 0)
    assert [solve_slope(model, x) for x in (0.05, 0.3, 0.9)] == [
        -0.7472144030034542, 1.3499267166480422, 4.39444915461354]
    assert find_level_points(model, 0.05) == (-1.6567451879382133, 0.8524678181856871)
    assert find_level_points(model, 0.1) == (-4.786078631877899, 1.1349048523698002)
