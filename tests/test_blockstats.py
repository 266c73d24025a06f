"""Tests for block means, the empirical SCGF and ball statistics."""

import math
import tracemalloc

import numpy as np
import pytest

import blockldp.sources as sources
from blockldp import (BlockStats, DataError, MarkovSpec, SampledFunction,
                      UsageError, ball_mass, bernoulli_source, block_means,
                      digit_source, file_source, gaussian_source,
                      markov_source, pairwise_sum, scgf_values)

from _reference import block_order_means, local_rate, next_digit, sizes

LATTICE_SOURCES = {
    "digit-indicator": lambda: digit_source(5, 10, indicator_a=0),
    "raw-digit": lambda: digit_source(6, 10),
    "bernoulli": lambda: bernoulli_source(7, 0.3),
    "markov-01": lambda: markov_source(
        MarkovSpec(P=[[0.9, 0.1], [0.2, 0.8]], phi=[0.0, 1.0]), 8),
}


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


def test_markov_block_means_generate_each_value_once(monkeypatch):
    # Every counter is mixed once: a replay from index 0 per chunk would mix
    # about (n*k)**2 / (2 * chunk) of them (6,500 here).
    spec = MarkovSpec(P=[[0.9, 0.1], [0.2, 0.8]], phi=[0.0, 1.0])
    want = block_means(markov_source(spec, 3), 10, 50)
    mixed = []
    mix = sources._mix_into

    def counted(z, tmp, seed, first, step):
        mixed.append(z.size)
        return mix(z, tmp, seed, first, step)

    monkeypatch.setattr(sources, "_mix_into", counted)
    sizes(monkeypatch, block=20)
    got = block_means(markov_source(spec, 3), 10, 50)
    assert sum(mixed) == 10 * 50
    assert np.array_equal(got.means, want.means)
    assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("kind", sorted(LATTICE_SOURCES))
def test_lattice_scgf_matches_dense(kind):
    src = LATTICE_SOURCES[kind]()
    n, k = 40, 3000
    stats = block_means(src, n, k)
    dense_means = block_order_means(src, n, k)
    values, counts = np.unique(dense_means[:, 0], return_counts=True)
    assert np.array_equal(stats.means[:, 0], values)
    assert np.array_equal(stats.weights, counts)
    assert stats.means.shape[0] < k and stats.weights.sum() == k
    dense = BlockStats(n=n, k=k, d=1, means=dense_means)
    lam = np.linspace(-3.0, 3.0, 121)
    got = scgf_values(stats, lam)
    assert np.max(np.abs(got - scgf_values(dense, lam))) <= 1e-13
    assert got[60] == 0.0 and lam[60] == 0.0


@pytest.mark.parametrize("phi, n", [((0.5, 1.5), 10), ((0.0, 2.0 ** 50), 16)])
def test_non_lattice_observable_stays_in_block_order(phi, n):
    # Lattice-ness is a property of the source: phi = (0.5, 1.5) with n even,
    # and phi = (0, 2**50) with n * 2**50 beyond 2**53, give integer block
    # sums, yet the means stay in block order.
    src = markov_source(MarkovSpec(P=[[0.9, 0.1], [0.2, 0.8]], phi=phi), 4)
    k = 400
    dense = block_order_means(src, n, k)
    assert np.array_equal(dense * n, np.rint(dense * n))
    stats = block_means(src, n, k)
    assert np.array_equal(stats.means, dense)
    assert np.array_equal(stats.weights, np.ones(k, dtype=np.int64))


def test_lattice_block_means_memory_flat_in_k(monkeypatch):
    # A k x 1 float array of sums would add 7.2 MB between these two runs.
    sizes(monkeypatch, chunk=1 << 16)
    peaks = []
    for k in (100_000, 1_000_000):
        tracemalloc.start()
        block_means(digit_source(1, 10, 0), 4, k)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + (1 << 20)


def test_threaded_block_parts_resolve_a_straggler_in_the_second_part(monkeypatch):
    sizes(monkeypatch, block=1000, workers=2)
    n, k = 7, 1001
    src = digit_source(4, 10)
    before = block_means(src, n, k)
    # Reject exactly the largest word of the run, which lies in the second of
    # the two parts (blocks k // 2 on).
    words = np.array([sources.raw_word(4, i) for i in range(n * k)], dtype=np.uint64)
    j = int(np.argmax(words))
    assert j >= k // 2 * n and np.count_nonzero(words == words[j]) == 1
    monkeypatch.setattr(sources, "_digit_limit", lambda m: int(words[j]))
    digits = np.array([next_digit(4, i, 10) for i in range(n * k)])
    values, counts = np.unique(digits.reshape(k, n).sum(axis=1), return_counts=True)
    stats = block_means(src, n, k)
    assert stats.means.tobytes() == (values / n)[:, None].tobytes()
    assert stats.weights.tobytes() == counts.tobytes()
    assert stats.weights.tobytes() != before.weights.tobytes()


def test_dense_block_means_memory_flat(monkeypatch):
    # A Gaussian reduction holds its k x d sums and, per thread, a piece of
    # at most one piece of values with its kernel and tree buffers (3 MB at
    # the default 2**16), whatever the piece size; a 2**21-value batch alone
    # would be 16 MB.
    n, k = 19, 120_000
    for block in (1 << 14, 1 << 16):
        sizes(monkeypatch, block=block, workers=2)
        for d in (1, 2):
            tracemalloc.start()
            block_means(gaussian_source(1, d), n, k)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < k * d * 8 + 2 * (4 << 20), (block, d, peak)


def test_digit_file_block_means_memory_flat(tmp_path):
    # A digit file is decoded in 2**16-byte chunks into reused buffers and
    # reduced in pieces of at most 2**16 values, so an 8-times longer file
    # adds under 0.4 MB to the peak; reads of 2**21 symbols would add 6 to 10 MB.
    rng = np.random.default_rng(3)
    for a in (0, None):
        peaks = []
        for size in (1 << 20, 1 << 23):
            p = tmp_path / "d.txt"
            lines = (rng.integers(0, 10, size, dtype=np.uint8) + ord("0")).reshape(-1, 64)
            p.write_bytes(np.hstack([lines, np.full((len(lines), 1), ord("\n"),
                                                    np.uint8)]).tobytes())
            tracemalloc.start()
            stats = block_means(file_source(p, 10, indicator_a=a), 100, size // 100)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert stats.weights.sum() == size // 100
        assert peaks[1] < peaks[0] + (3 << 19), (a, peaks)


def test_gaussian_stats_stay_dense():
    src = gaussian_source(9, 1)
    n, k = 8, 700
    stats = block_means(src, n, k)
    assert stats.means.shape == (k, 1)
    assert np.array_equal(stats.weights, np.ones(k, dtype=np.int64))
    assert np.array_equal(stats.means, block_order_means(src, n, k))
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
    dense = BlockStats(n=n, k=k, d=1, means=block_order_means(src, n, k))
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
    # The empirical SCGF is scalar: (G, d) tilts and d > 1 stats are refused.
    scalar = BlockStats(n=4, k=3, d=1, means=np.array([[0.1], [0.3], [0.0]]))
    for lam in (np.array([[0.5], [0.0]]), np.array([[0.5, -1.0], [0.0, 0.0]]),
                np.float64(0.5)):
        with pytest.raises(UsageError, match="1-d tilt array"):
            scgf_values(scalar, lam)
    vector = BlockStats(n=4, k=3, d=2,
                        means=np.array([[0.1, 0.4], [0.3, -0.2], [0.0, 0.5]]))
    with pytest.raises(UsageError, match="d=2"):
        scgf_values(vector, np.array([0.1, 0.2]))


def test_scgf_rejects_nonfinite_means():
    stats = BlockStats(n=2, k=2, d=1, means=np.array([[np.inf], [0.0]]))
    with pytest.raises(DataError):
        scgf_values(stats, np.array([0.0]))


def test_empirical_scgf_validation():
    stats = BlockStats(n=3, k=2, d=1, means=np.array([[0.1], [0.2]]))
    assert scgf_values(stats, np.array([-1.0, 0.0, 1.0]))[1] == 0.0
    with pytest.raises(UsageError):
        scgf_values(stats, np.array([[0.0], [1.0]]))  # needs a 1-d grid
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


def test_block_stats_refuse_means_off_their_dimension():
    for d, means in ((2, np.zeros((3, 1))), (1, np.zeros((3, 2))), (1, np.zeros(3)),
                     (1, np.zeros((3, 1, 1)))):
        with pytest.raises(UsageError, match="shape"):
            BlockStats(n=1, k=3, d=d, means=means)


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
