"""Tests for the discrete Legendre transform and grid gradients."""

import numpy as np
import pytest

from blockldp import (BlockStats, DataError, SampledFunction, UsageError,
                      digit_indicator_model, grad_estimate, legendre,
                      scgf_values)
from blockldp._serialize import make_grid


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
    stats = BlockStats(n=6, means=rng.normal(0.2, 0.5, size=(40, 1)))
    g = make_grid(-1.5, 1.5, 0.05)
    f = SampledFunction(grid=g, values=scgf_values(stats, g))
    xs = np.linspace(-1.0, 1.5, 37)
    res = legendre(f, xs)
    scores = xs[None, :] * g[:, None] - f.values[:, None]
    assert np.all(scores <= res.values[None, :] + 1e-12)


def test_conjugate_convex_on_uniform_grid():
    res = legendre(_quad(), np.linspace(-2.0, 2.0, 81))
    assert np.min(np.diff(res.values, 2)) >= -1e-9


def _dense_legendre(f: SampledFunction, xs: np.ndarray):
    """Reference: every x against every finite grid value, first max wins."""
    keep = np.isfinite(f.values)
    g, v = f.grid[keep], f.values[keep]
    scores = xs[:, None] * g[None, :] - v[None, :]
    idx = np.argmax(scores, axis=1)
    return scores[np.arange(xs.size), idx], g[idx], (idx == 0) | (idx == g.size - 1)


def _probe_slopes(f: SampledFunction, rng) -> np.ndarray:
    """Every chord slope of neighbouring finite samples, one ulp either side,
    a few random slopes and slopes beyond both ends, shuffled, some twice."""
    keep = np.isfinite(f.values)
    slopes = np.diff(f.values[keep]) / np.diff(f.grid[keep])
    near = np.concatenate([slopes, np.nextafter(slopes, np.inf),
                           np.nextafter(slopes, -np.inf), rng.normal(0.0, 3.0, 8),
                           [-1e6, 1e6]])
    return rng.permutation(np.concatenate([near, near[::3]]))


def _assert_matches_dense(f: SampledFunction, xs: np.ndarray):
    res = legendre(f, xs)
    values, argmax, boundary = _dense_legendre(f, xs)
    assert res.values.tobytes() == values.tobytes()
    assert res.argmax.tobytes() == argmax.tobytes()
    assert res.boundary.tobytes() == boundary.tobytes()


@pytest.mark.parametrize("case", ["collinear-exact", "collinear-rounded", "ties",
                                  "infinite", "one", "two", "kink", "concave"])
def test_legendre_hull_sweep_matches_dense(case):
    rng = np.random.default_rng(5)
    g = make_grid(-2.0, 2.0, 0.25)
    v = {"collinear-exact": 3.0 * np.arange(g.size) - 7.0,
         "collinear-rounded": 0.3 * g + 0.1,
         "ties": np.zeros(g.size),
         "infinite": np.where(np.abs(g) > 1.2, np.inf, g * g),
         "one": np.where(g == 0.5, 1.0, np.inf),
         "two": np.where(np.abs(g) == 0.5, 1.0, np.inf),
         "kink": np.abs(g),
         "concave": -g * g}[case]
    grid = np.arange(g.size, dtype=np.float64) if case == "collinear-exact" else g
    f = SampledFunction(grid=grid, values=v)
    xs = _probe_slopes(f, rng)
    _assert_matches_dense(f, xs)
    if case in ("one", "two", "infinite"):
        assert legendre(f, [-1e6, 1e6]).boundary.all()


@pytest.mark.parametrize("seed", range(40))
def test_legendre_hull_sweep_ulp_perturbed(seed):
    # A convex sample and a near-linear one, each moved by -1, 0 or +1 ulp per
    # value, so that rounding leaves some samples off the hull.
    rng = np.random.default_rng(seed)
    g = make_grid(-3.0, 3.0, 0.05)
    for v in (0.5 * g * g, np.log1p(np.exp(g)), 0.7 * g - 0.2):
        f = SampledFunction(grid=g, values=v + rng.integers(-1, 2, g.size) * np.spacing(v))
        _assert_matches_dense(f, _probe_slopes(f, rng))


def test_legendre_rejects_non_finite_x():
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(UsageError):
            legendre(_quad(), np.array([0.5, x]))


def test_legendre_rejects_minus_inf_values():
    # A -inf sample makes the conjugate +inf at every x; it is no sample of a
    # function with values in R or +inf, so it is refused as NaN is.
    f = SampledFunction(grid=np.array([0.0, 1.0]), values=np.array([-np.inf, 2.0]))
    with pytest.raises(DataError, match="-inf"):
        legendre(f, np.array([0.0, 0.5]))


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
