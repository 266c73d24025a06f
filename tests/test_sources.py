"""Tests for the deterministic sources: counter PRNG, chains, file decoding."""

import math
import os

import numpy as np
import pytest
from scipy.stats import chi2

import blockldp.sources as sources
from blockldp import (DataError, MarkovSpec, UsageError, bernoulli_source,
                      digit_source, file_source, gaussian_increment,
                      gaussian_source, markov_path, markov_source, next_digit,
                      pi_fixture_path, read_digit_file)
from blockldp.sources import bernoulli_value, raw_word, uniform

# Fixed outputs of the 64-bit mix, recomputed with a standalone big-integer
# implementation of the finalizer; the (0, 0) and (1, 0) words equal the
# published SplitMix64 reference outputs for seeds 0 and 1.
RAW_WORDS = {
    (0, 0): 16294208416658607535,
    (1, 0): 10451216379200822465,
    (1, 1): 13757245211066428519,
    (12345, 999): 11146372364405179148,
    ((1 << 64) - 1, 0): 16490336266968443936,
}


def _sym_chain() -> MarkovSpec:
    return MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]))


def test_raw_word_reference_values():
    for (seed, i), want in RAW_WORDS.items():
        assert raw_word(seed, i) == want


def test_uniform_reference_and_open_interval():
    assert uniform(1, 0) == 0.566561575172281
    assert uniform(1, 1) == 0.7457817572627012
    u = np.array([uniform(3, i) for i in range(1000)])
    assert np.all((u > 0.0) & (u < 1.0))


def test_digit_sequence_frozen():
    assert [next_digit(7, i, 10) for i in range(8)] == [7, 4, 6, 3, 4, 5, 8, 2]


def test_digit_block_matches_scalar():
    for m in (2, 10):
        blk = digit_source(11, m).symbols(0, 512)
        ref = [next_digit(11, i, m) for i in range(512)]
        assert np.array_equal(blk, ref)
        assert blk.min() >= 0 and blk.max() < m


def test_digit_rejection_limit_arithmetic():
    # the acceptance bound is the largest multiple of m that fits in 64 bits
    for m in range(2, 11):
        limit = sources._digit_limit(m)
        assert limit % m == 0
        assert (1 << 64) - limit < m


def test_digit_uniformity_chi_square():
    sym = digit_source(1, 10).symbols(0, 100000)
    obs = np.bincount(sym, minlength=10)
    stat = float(((obs - 10000.0) ** 2 / 10000.0).sum())
    assert stat < chi2.ppf(0.999, 9)


def test_base_validation():
    for m in (1, 11, 2.5, "10"):
        with pytest.raises(UsageError):
            next_digit(0, 0, m)


def test_bernoulli_uniform_threshold():
    obs = bernoulli_source(6, 0.3).batch(0, 128)[:, 0]
    ref = [1.0 if uniform(6, i) < 0.3 else 0.0 for i in range(128)]
    assert np.array_equal(obs, ref)
    assert bernoulli_value(6, 0, 0.3) == obs[0]


def test_gaussian_transform_from_uniforms():
    # each coordinate c uses counters 2i and 2i+1 offset by c * 2^40
    seed, d = 9, 3
    for i in (0, 5):
        vec = gaussian_increment(seed, i, d)
        for c in range(d):
            off = (c * (1 << 40)) & ((1 << 64) - 1)
            u1 = uniform(seed, 2 * i + off)
            u2 = uniform(seed, 2 * i + 1 + off)
            want = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            assert vec[c] == pytest.approx(want, rel=1e-12)


def test_gaussian_block_matches_scalar():
    blk = gaussian_source(5, 2).batch(3, 40)
    ref = np.array([gaussian_increment(5, i, 2) for i in range(3, 43)])
    assert np.array_equal(blk, ref)


def test_gaussian_moments():
    b = gaussian_source(5, 2).batch(0, 200000)
    assert np.all(np.abs(b.mean(axis=0)) < 0.01)
    assert np.all(np.abs(b.var(axis=0) - 1.0) < 0.02)


def test_random_access_consistency():
    for src in (digit_source(2, 10), bernoulli_source(2, 0.3),
                gaussian_source(2, 2)):
        full = src.batch(0, 64)
        assert np.array_equal(src.batch(17, 31), full[17:48])
        assert np.array_equal(src.get(40), full[40])


def test_with_seed_changes_stream():
    src = digit_source(1, 10)
    assert not np.array_equal(src.symbols(0, 64),
                              src.with_seed(2).symbols(0, 64))
    assert np.array_equal(src.symbols(0, 64), src.with_seed(1).symbols(0, 64))


def test_indicator_observable():
    sym = digit_source(4, 10).symbols(0, 256)
    obs = digit_source(4, 10, indicator_a=0).batch(0, 256)
    assert obs.shape == (256, 1)
    assert np.array_equal(obs[:, 0], (sym == 0).astype(np.float64))


def test_source_parameter_guards():
    with pytest.raises(UsageError):
        bernoulli_source(0, 0.0)
    with pytest.raises(UsageError):
        bernoulli_source(0, 1.0)
    with pytest.raises(UsageError):
        digit_source(0, 10, indicator_a=10)
    with pytest.raises(UsageError):
        gaussian_source(0, 0)
    with pytest.raises(UsageError):
        gaussian_source(0, 2).symbols(0, 4)  # no symbol alphabet
    with pytest.raises(UsageError):
        digit_source(0, 10).batch(-1, 4)


def test_markov_validation_errors():
    with pytest.raises(UsageError):  # rows must sum to one
        MarkovSpec(P=np.array([[0.5, 0.4], [0.1, 0.9]]),
                   phi=np.array([0.0, 1.0])).validate()
    with pytest.raises(UsageError):  # square matrix required
        MarkovSpec(P=np.array([[0.5, 0.5]]), phi=np.array([0.0])).validate()
    with pytest.raises(UsageError):  # negative entries
        MarkovSpec(P=np.array([[1.5, -0.5], [0.5, 0.5]]),
                   phi=np.array([0.0, 1.0])).validate()
    with pytest.raises(UsageError):  # observable shape
        MarkovSpec(P=np.eye(1), phi=np.array([0.0, 1.0])).validate()
    with pytest.raises(UsageError):  # initial distribution must sum to one
        MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                   phi=np.array([0.0, 1.0]),
                   pi=np.array([0.7, 0.7])).validate()
    with pytest.raises(UsageError):  # reducible chain
        MarkovSpec(P=np.eye(2), phi=np.array([0.0, 1.0])).validate()


def test_markov_stationary_and_supplied_pi():
    spec = _sym_chain().validate()
    assert np.allclose(spec.stationary(), [0.5, 0.5], atol=1e-12)
    spec = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]), pi=np.array([1.0, 0.0]))
    assert np.array_equal(spec.stationary(), [1.0, 0.0])


def test_markov_path_mean_and_random_access():
    obs = markov_path(_sym_chain(), 11, 100000)
    assert abs(float(np.mean(obs)) - 0.5) < 0.01
    src = markov_source(_sym_chain(), 11)
    full = src.batch(0, 200)
    assert np.array_equal(src.batch(50, 100), full[50:150])
    assert np.array_equal(full[:, 0], markov_path(_sym_chain(), 11, 200))


def _loop_states(spec: MarkovSpec, seed: int, length: int) -> np.ndarray:
    """Reference walk: one searchsorted per step on the current state's row."""
    cum_rows = np.cumsum(spec.P, axis=1)
    u = sources._uniforms(seed, np.arange(length, dtype=np.uint64))
    top = spec.s - 1
    state = min(int(np.searchsorted(np.cumsum(spec.stationary()), u[0],
                                    side="right")), top)
    states = [state]
    for t in range(1, length):
        state = min(int(np.searchsorted(cum_rows[state], u[t], side="right")), top)
        states.append(state)
    return np.array(states, dtype=np.float64)


MARKOV_CHAINS = {
    "one-state": [[1.0]],
    "two-state": [[0.9, 0.1], [0.1, 0.9]],
    "three-state": [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
    "zero-entries": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]],
}


@pytest.mark.parametrize("name", sorted(MARKOV_CHAINS))
@pytest.mark.parametrize("scan_values", [None, 12])
def test_markov_scan_matches_loop(name, scan_values, monkeypatch):
    if scan_values is not None:  # many short segments, with carries between them
        monkeypatch.setattr(sources, "_SCAN_VALUES", scan_values)
    P = np.array(MARKOV_CHAINS[name])
    spec = MarkovSpec(P=P, phi=np.arange(P.shape[0], dtype=np.float64))
    for seed in (0, 5):
        for length in (1, 2, 3, 7, 13, 1000):
            assert np.array_equal(markov_path(spec, seed, length),
                                  _loop_states(spec, seed, length)), (seed, length)
    src = markov_source(spec, 5)
    full = src.batch(0, 1000)
    for start, count in ((0, 1), (1, 2), (11, 1), (37, 500)):
        assert np.array_equal(src.batch(start, count), full[start:start + count])


def test_markov_constant_chain():
    spec = MarkovSpec(P=np.array([[1.0]]), phi=np.array([2.5]))
    assert np.all(markov_path(spec, 3, 50) == 2.5)
    with pytest.raises(UsageError):
        markov_path(spec, 3, 0)


def test_read_digit_file_basic(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.14159")
    assert np.array_equal(read_digit_file(p, 10, 0, 6), [3, 1, 4, 1, 5, 9])
    assert np.array_equal(read_digit_file(p, 10, 2, 3), [4, 1, 5])


def test_read_digit_file_skips_whitespace(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1 0\t1\r\n0")
    assert np.array_equal(read_digit_file(p, 2, 0, 4), [1, 0, 1, 0])


def test_read_digit_file_rejects_bad_bytes(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("12a4")
    with pytest.raises(DataError, match="offset 2"):
        read_digit_file(p, 10, 0, 4)
    p.write_text("3.14.15")
    with pytest.raises(DataError, match="offset 4"):  # second radix point
        read_digit_file(p, 10, 0, 5)
    p.write_text("012")
    with pytest.raises(DataError, match="offset 2"):  # '2' outside base 2
        read_digit_file(p, 2, 0, 3)


def test_read_digit_file_stops_at_request(tmp_path):
    # bytes past the one that completes the request are never examined
    p = tmp_path / "d.txt"
    p.write_text("123x")
    assert np.array_equal(read_digit_file(p, 10, 0, 3), [1, 2, 3])


def test_read_digit_file_eof_reports_available(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1234567")
    with pytest.raises(DataError) as err:
        read_digit_file(p, 10, 0, 9)
    assert err.value.symbols_available == 7


def test_read_digit_file_chunk_independent(tmp_path, monkeypatch):
    p = tmp_path / "d.txt"
    p.write_text("3.1415 9265\n358979")
    want = read_digit_file(p, 10, 2, 12)
    monkeypatch.setattr(sources, "_FILE_CHUNK", 3)
    assert np.array_equal(read_digit_file(p, 10, 2, 12), want)
    with pytest.raises(DataError, match="offset"):
        read_digit_file(tmp_path / "d.txt", 2, 0, 3)  # '3' outside base 2


def test_pi_fixture_contents():
    path = pi_fixture_path()
    assert os.path.exists(path)
    first = read_digit_file(path, 10, 0, 12)
    assert np.array_equal(first, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    with pytest.raises(DataError) as err:
        read_digit_file(path, 10, 0, 100001)
    assert err.value.symbols_available == 100000


def test_file_source_offsets(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.14159")
    src = file_source(p, 10)
    assert np.array_equal(src.symbols(2, 3), [4, 1, 5])
    obs = file_source(p, 10, indicator_a=1).batch(0, 6)
    assert np.array_equal(obs[:, 0], [0.0, 1.0, 0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("kind", ["iid-digit", "iid-bernoulli", "gaussian",
                                  "markov-chain", "digit-file"])
def test_empty_batch_every_kind(kind, tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("31415")
    src = {"iid-digit": lambda: digit_source(1, 10),
           "iid-bernoulli": lambda: bernoulli_source(1, 0.3),
           "gaussian": lambda: gaussian_source(1, 3),
           "markov-chain": lambda: markov_source(
               MarkovSpec(P=[[0.9, 0.1], [0.1, 0.9]], phi=[[0.0, 1.0], [1.0, 0.0]]), 1),
           "digit-file": lambda: file_source(p, 10)}[kind]()
    for start in (0, 5):
        out = src.batch(start, 0)
        assert out.shape == (0, src.d) and out.dtype == np.float64


def test_read_digit_file_to_eof(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.1415 9265\n358979\n")
    whole = read_digit_file(p, 10, 0, None)
    assert np.array_equal(whole, read_digit_file(p, 10, 0, 15))
    assert whole.dtype == np.int64
    assert np.array_equal(read_digit_file(p, 10, 13), [7, 9])
    assert read_digit_file(p, 10, 15).size == 0
    p.write_text("31415x")  # a bad byte after the last digit is still seen
    with pytest.raises(DataError, match="offset 5"):
        read_digit_file(p, 10, 0, None)
    assert np.array_equal(read_digit_file(p, 10, 0, 5), [3, 1, 4, 1, 5])
