"""Tests for block means, the empirical SCGF and ball statistics."""

import math

import numpy as np
import pytest

import blockldp.blockstats as blockstats
from blockldp import (BlockStats, DataError, MarkovSpec, SampledFunction,
                      UsageError, ball_mass, bernoulli_source, block_means,
                      digit_source, empirical_scgf, file_source, gaussian_source,
                      local_rate, markov_source, pairwise_sum, scgf_values)

LATTICE_SOURCES = {
    "digit-indicator": lambda: digit_source(5, 10, indicator_a=0),
    "raw-digit": lambda: digit_source(6, 10),
    "bernoulli": lambda: bernoulli_source(7, 0.3),
    "markov-01": lambda: markov_source(
        MarkovSpec(P=[[0.9, 0.1], [0.2, 0.8]], phi=[0.0, 1.0]), 8),
}


def _block_order_means(src, n, k):
    """Means of the first k length-n blocks in block order (the dense form)."""
    return pairwise_sum(src.batch(0, n * k).reshape(k, n, src.d), axis=1) / n


def test_pairwise_sum_fixed_tree():
    a = np.array([1e16, 1.0, 1.0, 1.0, 1.0])
    want = ((a[0] + a[1]) + (a[2] + a[3])) + a[4]
    assert pairwise_sum(a) == want
    b = np.array([0.1, 0.2, 0.3])
    assert pairwise_sum(b) == (0.1 + 0.2) + 0.3


def test_pairwise_sum_axes_and_empty():
    a = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(pairwise_sum(a, axis=1), a.sum(axis=1))
    assert np.array_equal(pairwise_sum(a, axis=0), a.sum(axis=0))
    assert np.array_equal(pairwise_sum(np.empty((2, 0)), axis=1), [0.0, 0.0])


def test_block_means_digits(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1234")
    stats = block_means(file_source(p, 10), 2, 2)
    assert (stats.n, stats.k, stats.d) == (2, 2, 1)
    assert np.array_equal(stats.means[:, 0], [1.5, 3.5])


def test_block_means_start_index():
    src = digit_source(3, 10)
    sym = src.symbols(0, 100).astype(np.float64)
    stats = block_means(src, 10, 4, start_index=20)
    # integer-valued sums up to 90 are exact, so equality is exact; integer
    # sums are stored as distinct means in increasing order with counts
    values, counts = np.unique(sym[20:60].reshape(4, 10).mean(axis=1),
                               return_counts=True)
    assert np.array_equal(stats.means[:, 0], values)
    assert np.array_equal(stats.weights, counts)


def test_block_means_chunk_independent(monkeypatch):
    src = gaussian_source(7, 2)
    want = block_means(src, 16, 33)
    monkeypatch.setattr(blockstats, "_CHUNK_VALUES", 64)
    got = block_means(src, 16, 33)
    assert np.array_equal(got.means, want.means)


@pytest.mark.parametrize("kind", sorted(LATTICE_SOURCES))
def test_lattice_scgf_matches_dense(kind):
    src = LATTICE_SOURCES[kind]()
    n, k = 40, 3000
    stats = block_means(src, n, k)
    dense_means = _block_order_means(src, n, k)
    values, counts = np.unique(dense_means[:, 0], return_counts=True)
    assert np.array_equal(stats.means[:, 0], values)
    assert np.array_equal(stats.weights, counts)
    assert stats.means.shape[0] < k and stats.weights.sum() == k
    dense = BlockStats(n=n, k=k, d=1, means=dense_means)
    lam = np.linspace(-3.0, 3.0, 121)
    got = scgf_values(stats, lam)
    assert np.max(np.abs(got - scgf_values(dense, lam))) <= 1e-13
    assert got[60] == 0.0 and lam[60] == 0.0


def test_lattice_stats_chunk_independent(monkeypatch):
    src = LATTICE_SOURCES["digit-indicator"]()
    lam = np.linspace(-2.0, 2.0, 41)
    want = block_means(src, 12, 500)
    want_scgf = scgf_values(want, lam)
    monkeypatch.setattr(blockstats, "_CHUNK_VALUES", 50)
    got = block_means(src, 12, 500)
    assert np.array_equal(got.means, want.means)
    assert np.array_equal(got.weights, want.weights)
    assert scgf_values(got, lam).tobytes() == want_scgf.tobytes()


def test_gaussian_stats_stay_dense():
    src = gaussian_source(9, 1)
    n, k = 8, 700
    stats = block_means(src, n, k)
    assert stats.means.shape == (k, 1)
    assert np.array_equal(stats.weights, np.ones(k, dtype=np.int64))
    assert np.array_equal(stats.means, _block_order_means(src, n, k))
    lam = np.linspace(-2.0, 2.0, 41)
    # the unweighted formula: pairwise mean of the shifted exponentials
    t = np.outer(lam, stats.means[:, 0]) * n
    M = t.max(axis=1)
    want = (M + np.log(pairwise_sum(np.exp(t - M[:, None]), axis=1) / k)) / n
    assert scgf_values(stats, lam).tobytes() == want.tobytes()


def test_ball_mass_lattice_matches_dense():
    # n = 8 puts every mean on the exact binary lattice j/8, so these radii
    # place lattice points exactly on the sphere
    src = LATTICE_SOURCES["digit-indicator"]()
    n, k = 8, 2000
    stats = block_means(src, n, k)
    assert stats.means.shape[0] < k
    dense = BlockStats(n=n, k=k, d=1, means=_block_order_means(src, n, k))
    for x, eps in [(0.0, 0.125), (0.125, 0.125), (0.25, 0.25), (0.1, 0.025),
                   (0.375, 0.5), (1.0, 0.125), (2.0, 0.5)]:
        assert ball_mass(stats, x, eps) == ball_mass(dense, x, eps)
    assert ball_mass(stats, 0.125, 0.125)[0] > 0


@pytest.mark.parametrize("weights", [
    np.array([[1, 1], [1, 1]]),  # not 1-d
    np.array([2, 2]),            # one entry short of the rows of means
    np.array([1.5, 1.5, 1.0]),   # not integer counts
    np.array([0, 2, 2]),         # a weight below 1
    np.array([1, 1, 1]),         # sums to 3, not k = 4
], ids=["ndim", "length", "dtype", "below-one", "sum"])
def test_block_stats_rejects_bad_weights(weights):
    with pytest.raises(UsageError):
        BlockStats(n=2, k=4, d=1, means=np.array([[0.0], [0.5], [1.0]]),
                   weights=weights)


def test_block_stats_dense_rows_must_match_k():
    with pytest.raises(UsageError):
        BlockStats(n=2, k=4, d=1, means=np.array([[0.0], [0.5], [1.0]]))


def test_block_means_guards(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1234567")
    with pytest.raises(DataError, match="3 full blocks"):
        block_means(file_source(p, 10), 2, 4)
    with pytest.raises(UsageError):
        block_means(digit_source(0, 10), 0, 4)
    with pytest.raises(UsageError):
        block_means(digit_source(0, 10), 2, 0)


def test_scgf_zero_tilt_is_exact():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = int(rng.integers(1, 50))
        stats = BlockStats(n=int(rng.integers(1, 30)), k=k, d=1,
                           means=rng.normal(size=(k, 1)))
        assert scgf_values(stats, np.array([0.0]))[0] == 0.0


def test_scgf_matches_direct_formula():
    stats = BlockStats(n=2, k=2, d=1, means=np.array([[1.5], [3.5]]))
    lam = 0.3
    want = math.log((math.exp(2 * 1.5 * lam) + math.exp(2 * 3.5 * lam)) / 2.0) / 2.0
    got = float(scgf_values(stats, np.array([lam]))[0])
    assert got == pytest.approx(want, rel=1e-14)


def test_scgf_single_block_is_linear():
    stats = BlockStats(n=5, k=1, d=1, means=np.array([[0.7]]))
    lam = np.array([-2.0, 0.0, 1.3])
    assert np.allclose(scgf_values(stats, lam), lam * 0.7, atol=1e-15)


def test_scgf_extreme_exponents_no_overflow():
    stats = BlockStats(n=10, k=2, d=1, means=np.array([[1000.0], [0.0]]))
    got = float(scgf_values(stats, np.array([1.0]))[0])
    want = (10000.0 + math.log(0.5)) / 10.0
    assert got == pytest.approx(want, rel=1e-15)


def test_scgf_vector_tilts():
    means = np.array([[0.1, 0.4], [0.3, -0.2], [0.0, 0.5]])
    stats = BlockStats(n=4, k=3, d=2, means=means)
    lam = np.array([[0.5, -1.0], [0.0, 0.0]])
    t = means @ lam.T * 4
    want = np.log(np.exp(t).mean(axis=0)) / 4.0
    got = scgf_values(stats, lam)
    assert np.allclose(got, want, atol=1e-14)
    assert got[1] == 0.0
    with pytest.raises(UsageError):
        scgf_values(stats, np.array([0.1, 0.2]))  # scalar grid needs d = 1


def test_scgf_rejects_nonfinite_means():
    stats = BlockStats(n=2, k=2, d=1, means=np.array([[np.inf], [0.0]]))
    with pytest.raises(DataError):
        scgf_values(stats, np.array([0.0]))


def test_empirical_scgf_meta_and_validation():
    stats = BlockStats(n=3, k=2, d=1, means=np.array([[0.1], [0.2]]))
    f = empirical_scgf(stats, np.array([-1.0, 0.0, 1.0]), meta={"tag": "x"})
    assert f.meta["n"] == 3 and f.meta["k"] == 2 and f.meta["tag"] == "x"
    assert f.values[1] == 0.0
    with pytest.raises(UsageError):
        empirical_scgf(stats, np.array([[0.0], [1.0]]))  # needs a 1-d grid
    with pytest.raises(UsageError):
        SampledFunction(grid=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(UsageError):
        SampledFunction(grid=np.array([0.0, 1.0]), values=np.array([1.0]))


def test_ball_mass_closed_ball():
    stats = BlockStats(n=1, k=4, d=1,
                       means=np.array([[0.0], [0.25], [0.5], [1.0]]))
    assert ball_mass(stats, 0.25, 0.25) == (3, 0.75)  # boundary points count
    assert ball_mass(stats, 2.0, 0.1) == (0, 0.0)
    with pytest.raises(UsageError):
        ball_mass(stats, 0.0, 0.0)
    with pytest.raises(UsageError):
        ball_mass(stats, np.array([0.0, 0.0]), 0.1)  # center must match d


def test_ball_mass_euclidean():
    stats = BlockStats(n=1, k=2, d=2, means=np.array([[3.0, 4.0], [10.0, 10.0]]))
    assert ball_mass(stats, np.array([0.0, 0.0]), 5.0) == (1, 0.5)


def test_local_rate_values_and_sentinel():
    stats = BlockStats(n=8, k=3, d=1, means=np.array([[0.1], [0.2], [0.9]]))
    r = local_rate(stats, 0.15, 0.06)
    assert r == pytest.approx(-math.log(2.0 / 3.0) / 8.0, rel=1e-15)
    assert local_rate(stats, 5.0, 0.01) == np.inf
    full = local_rate(stats, 0.0, 5.0)
    assert full == 0.0 and not np.signbit(full)
