"""Tests for the deterministic sources: counter PRNG, chains, file decoding."""

import hashlib
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

import blockldp.sources as sources
from blockldp import (DataError, MarkovSpec, NumericalError, SeriesSource, UsageError,
                      bernoulli_source, block_means, digit_source, file_source,
                      gaussian_source, markov_source, pi_fixture_path)
from blockldp.cli import main
from blockldp.sources import raw_word

from _reference import BLOCK, digit_file_symbols, next_digit, sizes, uniform, values

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
        blk = digit_source(11, m).reader().read(512)[:, 0]
        ref = [next_digit(11, i, m) for i in range(512)]
        assert blk.dtype == np.uint8 and np.array_equal(blk, ref)
        assert blk.min() >= 0 and blk.max() < m


def test_digit_rejection_limit_arithmetic():
    # the acceptance bound is the largest multiple of m that fits in 64 bits
    for m in range(2, 11):
        limit = sources._digit_limit(m)
        assert limit % m == 0
        assert (1 << 64) - limit < m


def test_digit_uniformity_chi_square():
    sym = digit_source(1, 10).reader().read(100000)[:, 0]
    obs = np.bincount(sym, minlength=10)
    stat = float(((obs - 10000.0) ** 2 / 10000.0).sum())
    assert stat < chi2.ppf(0.999, 9)


def test_base_validation(tmp_path):
    for m in (1, 11, 2.5, "10"):
        with pytest.raises(UsageError, match="base m"):
            digit_source(0, m)
        with pytest.raises(UsageError, match="base m"):
            file_source(tmp_path / "none.txt", m)


def test_gaussian_transform_from_uniforms():
    # each coordinate c uses counters 2i and 2i+1 offset by c * 2^40
    seed, d = 9, 3
    for i in (0, 5):
        vec = gaussian_source(seed, d).reader(i).read(1)[0]
        for c in range(d):
            off = (c * (1 << 40)) & ((1 << 64) - 1)
            u1 = uniform(seed, 2 * i + off)
            u2 = uniform(seed, 2 * i + 1 + off)
            want = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            assert vec[c] == pytest.approx(want, rel=1e-12)


def test_gaussian_moments():
    b = gaussian_source(5, 2).reader().read(200000)
    assert np.all(np.abs(b.mean(axis=0)) < 0.01)
    assert np.all(np.abs(b.var(axis=0) - 1.0) < 0.02)


def test_with_seed_changes_stream():
    src = digit_source(1, 10)
    first = [replace(src, seed=seed).reader().read(64) for seed in (1, 2)]
    assert not np.array_equal(*first)
    assert np.array_equal(first[0], src.reader().read(64))


def test_source_parameter_guards():
    with pytest.raises(UsageError):
        bernoulli_source(0, 0.0)
    with pytest.raises(UsageError):
        bernoulli_source(0, 1.0)
    with pytest.raises(UsageError):
        digit_source(0, 10, indicator_a=10)
    with pytest.raises(UsageError):  # the indicator symbol is an integer
        digit_source(0, 10, indicator_a=1.5)
    with pytest.raises(UsageError):
        gaussian_source(0, 0)
    with pytest.raises(UsageError):
        digit_source(0, 10).reader(-1)


def test_markov_validation_errors():
    with pytest.raises(UsageError):  # rows must sum to one
        MarkovSpec(P=np.array([[0.5, 0.4], [0.1, 0.9]]),
                   phi=np.array([0.0, 1.0]))
    with pytest.raises(UsageError):  # square matrix required
        MarkovSpec(P=np.array([[0.5, 0.5]]), phi=np.array([0.0]))
    with pytest.raises(UsageError):  # negative entries
        MarkovSpec(P=np.array([[1.5, -0.5], [0.5, 0.5]]),
                   phi=np.array([0.0, 1.0]))
    with pytest.raises(UsageError):  # observable shape
        MarkovSpec(P=np.eye(1), phi=np.array([0.0, 1.0]))
    with pytest.raises(UsageError):  # initial distribution must sum to one
        MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                   phi=np.array([0.0, 1.0]),
                   pi=np.array([0.7, 0.7]))
    with pytest.raises(UsageError):  # reducible chain
        MarkovSpec(P=np.eye(2), phi=np.array([0.0, 1.0]))
    with pytest.raises(UsageError):  # periodic chain: no power is positive
        MarkovSpec(P=[[0.0, 1.0], [1.0, 0.0]], phi=[0.0, 1.0])
    with pytest.raises(UsageError, match="numeric"):  # checked at construction
        MarkovSpec(P=[["a", "b"], [0.5, 0.5]], phi=[0.0, 1.0])
    with pytest.raises(UsageError, match="numeric"):  # ragged rows
        MarkovSpec(P=[[1.0], [0.5, 0.5]], phi=[0.0, 1.0])


def test_markov_slow_chain_stationary_law():
    # Mixing time ~1e5 steps; the law (2/3, 1/3) is an exact linear solve.
    spec = MarkovSpec(P=[[0.99999, 1e-5], [2e-5, 0.99998]], phi=[0, 1])
    assert np.max(np.abs(spec.pi - [2.0 / 3.0, 1.0 / 3.0])) <= 1e-12
    assert markov_source(spec, 1).reader().read(5).shape == (5, 1)
    three = MarkovSpec(P=[[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
                       phi=[0.0, 1.0, 2.0])
    assert np.max(np.abs(three.pi - np.array([5, 9, 7]) / 21)) <= 1e-15


def test_markov_stationary_and_supplied_pi():
    spec = _sym_chain()
    assert np.allclose(spec.pi, [0.5, 0.5], atol=1e-12)
    spec = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]), pi=np.array([1.0, 0.0]))
    assert np.array_equal(spec.pi, [1.0, 0.0])


def test_digit_rejection_chain(monkeypatch):
    # A limit of 2**63 rejects about half the words, so the vectorized block
    # must resolve its stragglers exactly as the scalar chain does.
    monkeypatch.setattr(sources, "_digit_limit", lambda m: 1 << 63)
    words = sources._mix_into(np.empty(512, dtype=np.uint64),
                              np.empty(512, dtype=np.uint64), 11, 0, 1)
    assert int(np.count_nonzero(words >= np.uint64(1 << 63))) == 257
    assert np.array_equal(digit_source(11, 2).reader().read(512)[:, 0],
                          [next_digit(11, i, 2) for i in range(512)])
    monkeypatch.setattr(sources, "_digit_limit", lambda m: 2)
    with pytest.raises(NumericalError, match="128 retries"):
        digit_source(11, 2).reader().read(4)


# The counts the BOUNDARY_SHA256 digests were recorded at: around the edges of
# the 2**14-counter blocks the kernels then used.
BOUNDARY_COUNTS = ((1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 7)
# Around the current block edges, and a read that crosses two of them;
# checked against the scalar forms only.
B = BLOCK
EDGE_COUNTS = (B - 1, B, B + 1, 2 * B + 3)
BOUNDARY_START = 12345  # odd, so no block starts on an aligned counter
BOUNDARY_CHAIN = MarkovSpec(P=[[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
                            phi=[0.0, 1.0, 2.0])
# sha256 of the outputs at BOUNDARY_COUNTS, concatenated, as the whole-array
# kernels produced them before blocking: digits as int64, Bernoulli draws as
# float64.  The Gaussian digests also fix
# numpy's float64 log and cos, like the brownian hashes the benchmark pins.
BOUNDARY_SHA256 = {
    "digit2": "8ab68efc618c1eb4958734272f0aa506902e7fab1ea0cd660a50ebffcb4203c1",
    "digit10": "c92c1336b33df9abe8dac9feb9c4670b622626e42d09d100ba960d37d7cb6ce1",
    "bernoulli": "fb1b14d9f5c0c2c544a6d746bf3a7c20c625deb51e4e2beb1c3ee2d0903733bf",
    "gaussian1": "96f32da86b1e352c148da6858224eed5abc12fa9e90a76a05a9ede3bb7c0004c",
    "gaussian2": "41b237c793fdbcb3a11a6d93d7c7bffb2a8388b2e642916eaf8f00f6dc54ffbc",
    "markov": "772b8942186368a6c13af86d26ae886fbf63fa95dc70b68b89267c3bb8bd8c8b",
}


BOUNDARY_SOURCES = {
    "digit2": digit_source(7, 2),
    "digit10": digit_source(7, 10),
    "bernoulli": bernoulli_source(6, 0.3),
    "gaussian1": gaussian_source(5, 1),
    "gaussian2": gaussian_source(5, 2),
    "markov": markov_source(BOUNDARY_CHAIN, 3),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_SHA256))
def test_kernels_at_block_boundaries(name):
    # Reads from BOUNDARY_START whose counts end just before, on, or just
    # after a block edge, or span several blocks, equal the scalar forms bit
    # for bit.
    src = BOUNDARY_SOURCES[name]
    ref = values(src, BOUNDARY_START, max(BOUNDARY_COUNTS + EDGE_COUNTS))
    digest = hashlib.sha256()
    for count in BOUNDARY_COUNTS + EDGE_COUNTS:
        got = src.reader(BOUNDARY_START).read(count)
        assert got.dtype == ref.dtype and got.tobytes() == ref[:count].tobytes(), count
        if count in BOUNDARY_COUNTS:
            digest.update(got.astype(np.int64 if src.kind == "iid-digit" else np.float64))
    assert digest.hexdigest() == BOUNDARY_SHA256[name]


def test_gaussian_coordinates_stop_before_their_streams_meet(monkeypatch):
    # Coordinate c reads counters from c * 2**40 on, two per index, so at
    # index 2**39 coordinate 0 would repeat coordinate 1's values from index
    # 0.  A d > 1 read or block_means that would reach it raises before it
    # generates a value; a scalar source has no second stream.
    src = gaussian_source(5, 2)
    reader = src.reader(2 ** 39 - 1)
    assert reader.read(1).tobytes() == values(src, 2 ** 39 - 1, 1).tobytes()
    monkeypatch.setattr(sources, "_fill", None)
    with pytest.raises(UsageError, match=r"2\*\*39"):
        reader.read(1)
    with pytest.raises(UsageError, match=r"2\*\*39"):
        block_means(src, 2 ** 20, 2 ** 19 + 1)
    monkeypatch.undo()
    scalar = gaussian_source(5, 1)
    assert scalar.reader(2 ** 39).read(4).tobytes() == values(scalar, 2 ** 39, 4).tobytes()


def test_digit_rejection_straggler_in_later_block(monkeypatch):
    # Reject exactly the largest word of the run, which lies past block 0 of
    # 2**14-counter blocks, and in a longer run past block 0 of BLOCK counters.
    for block in (1 << 14, B):
        s0, count = BOUNDARY_START, 3 * block + 7
        words = [raw_word(7, s0 + j) for j in range(count)]
        j = int(np.argmax(np.array(words, dtype=np.uint64)))
        assert j >= block and words.count(words[j]) == 1
        monkeypatch.setattr(sources, "_digit_limit", lambda m: words[j])
        got = digit_source(7, 10).reader(s0).read(count)[:, 0]
        assert got[j] == raw_word(words[j], s0 + j) % 10 != words[j] % 10
        assert np.array_equal(got, [next_digit(7, s0 + i, 10) for i in range(count)])


def test_error_in_a_worker_thread_reaches_the_caller(monkeypatch, tmp_path, capsys):
    # Only the parts filled off the calling thread reject every word, so the
    # NumericalError comes from a worker; it reaches block_means' caller, and
    # the CLI exits 3 with one error line.  A read of the same n * k values
    # runs on the calling thread alone, so it succeeds.
    sizes(monkeypatch, workers=2)
    limit = sources._digit_limit
    monkeypatch.setattr(sources, "_digit_limit", lambda m: limit(m) if (
        threading.current_thread() is threading.main_thread()) else 2)
    n, k = 1000, 2 * BLOCK // 1000 + 1
    assert digit_source(11, 2).reader().read(n * k).size == n * k
    with pytest.raises(NumericalError, match="128 retries"):
        block_means(digit_source(11, 2), n, k)
    argv = ["analyze", "--kind", "iid-digit", "--m", "2", "--seed", "11", "--n", str(n),
            "--k", str(k), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "128 retries" in err
    assert not os.path.exists(tmp_path / "s.csv")


def _narrow_digit_kernels(m: int, count: int):
    """(uint8 symbols, uint8 indicators of m - 1) at BOUNDARY_START, each from
    the kernel and from a reader's read."""
    s0, a = BOUNDARY_START, m - 1
    kernel = [sources._digits_into(7, s0, np.empty(count, dtype=np.uint8),
                                   sources._work("iid-digit", count), m, b)
              for b in (None, a)]
    read = [digit_source(7, m, b).reader(s0).read(count)[:, 0] for b in (None, a)]
    for got in kernel + read:
        assert got.dtype == np.uint8
    return kernel, read


def test_narrow_digit_kernels_resolve_stragglers(monkeypatch):
    # As in the int64 kernel: the one rejected word lies past block 0.
    s0, count = BOUNDARY_START, BOUNDARY_COUNTS[-1]
    words = [raw_word(7, s0 + j) for j in range(count)]
    j = int(np.argmax(np.array(words, dtype=np.uint64)))
    monkeypatch.setattr(sources, "_digit_limit", lambda m: words[j])
    for m in (3, 7, 10):
        ref = np.array([next_digit(7, s0 + i, m) for i in range(count)])
        assert ref[j] == raw_word(words[j], s0 + j) % m
        (sym, ind), (sym_read, ind_read) = _narrow_digit_kernels(m, count)
        assert np.array_equal(sym, ref) and np.array_equal(sym_read, ref)
        assert np.array_equal(ind, ref == m - 1) and np.array_equal(ind_read, ind)


def test_integer_reads_match_float_reads(tmp_path):
    # An integer-valued scalar source reads in its native dtype, and its
    # values cast to int64 exactly, as block_means sums them.
    p = tmp_path / "d.txt"
    p.write_text("3.1415 9265\n358979\n")
    chain = [[0.9, 0.1], [0.2, 0.8]]
    for src, bound in ((digit_source(2, 10), 9), (digit_source(2, 10, 3), 1),
                       (bernoulli_source(4, 0.3), 1), (file_source(p, 10), 9),
                       (markov_source(MarkovSpec(P=chain, phi=[-3.0, 1e9]), 5), 10 ** 9)):
        assert src.int_bound == bound
        vals = src.reader(1).read(14)
        assert vals.dtype == (np.float64 if src.kind == "markov-chain" else np.uint8)
        assert np.array_equal(vals.astype(np.int64), vals.astype(np.float64))
    for src in (gaussian_source(1, 1),
                markov_source(MarkovSpec(P=chain, phi=[0.5, 1.5]), 1),
                markov_source(MarkovSpec(P=chain, phi=[0.0, 2.0 ** 60]), 1),
                markov_source(MarkovSpec(P=chain, phi=[[0.0, 1.0], [1.0, 0.0]]), 1)):
        assert src.int_bound is None
        assert src.reader().read(4).dtype == np.float64


def test_source_dimension_matches_its_kind():
    spec = _sym_chain()
    for kw in (dict(kind="iid-digit", m=10), dict(kind="iid-bernoulli", p=0.5),
               dict(kind="digit-file", m=10, path=pi_fixture_path()),
               dict(kind="markov-chain", markov=spec)):
        with pytest.raises(UsageError, match="dimension 1, got d=2"):
            SeriesSource(d=2, seed=0, **kw)
    vector = MarkovSpec(P=spec.P, phi=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(UsageError, match="dimension 2, got d=1"):
        SeriesSource(kind="markov-chain", d=1, seed=0, markov=vector)
    assert markov_source(vector, 0).d == gaussian_source(0, 2).d == 2


def test_file_reader_repeats_decode_error(tmp_path):
    # Once the decoder has raised, every later read raises the same error;
    # none may return a short read as if the file had ended.
    p = tmp_path / "d.txt"
    p.write_text("123x456")
    reader = file_source(p, 10).reader()
    assert np.array_equal(reader.read(2)[:, 0], [1, 2])
    with pytest.raises(DataError, match="offset 3") as first:
        reader.read(5)
    for _ in range(2):
        with pytest.raises(DataError, match="offset 3") as again:
            reader.read(5)
        assert again.value is first.value


def test_symbols_rejects_negative_span():
    with pytest.raises(UsageError, match=">= 0"):
        digit_source(1, 10).reader(-1)
    with pytest.raises(UsageError, match=">= 0"):
        digit_source(1, 10).reader().read(-5)


def test_markov_path_mean_and_random_access():
    src = markov_source(_sym_chain(), 11)
    obs = src.reader().read(100000)
    assert abs(float(np.mean(obs)) - 0.5) < 0.01
    full = src.reader().read(200)
    assert np.array_equal(src.reader(50).read(100), full[50:150])
    assert np.array_equal(full, obs[:200])


def test_markov_constant_chain():
    reader = markov_source(MarkovSpec(P=np.array([[1.0]]), phi=np.array([2.5])), 3).reader()
    assert np.all(reader.read(50) == 2.5)
    assert reader.read(0).shape == (0, 1) and reader.pos == 50


def _file_digits(path, m: int, start: int, count: int) -> np.ndarray:
    """Up to count symbols of a digit file from index start, through one reader."""
    return file_source(path, m).reader(start).read(count)[:, 0]


def test_read_digit_file_basic(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.14159")
    assert np.array_equal(_file_digits(p, 10, 0, 6), [3, 1, 4, 1, 5, 9])
    assert np.array_equal(_file_digits(p, 10, 2, 3), [4, 1, 5])


def test_read_digit_file_skips_whitespace(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1 0\t1\r\n0")
    assert np.array_equal(_file_digits(p, 2, 0, 4), [1, 0, 1, 0])


def test_read_digit_file_rejects_bad_bytes(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("12a4")
    with pytest.raises(DataError, match="offset 2"):
        _file_digits(p, 10, 0, 4)
    p.write_text("3.14.15")
    with pytest.raises(DataError, match="offset 4"):  # second radix point
        _file_digits(p, 10, 0, 5)
    p.write_text("012")
    with pytest.raises(DataError, match="offset 2"):  # '2' outside base 2
        _file_digits(p, 2, 0, 3)


def test_read_digit_file_stops_at_request(tmp_path):
    # bytes past the one that completes the request are never examined
    p = tmp_path / "d.txt"
    p.write_text("123x")
    assert np.array_equal(_file_digits(p, 10, 0, 3), [1, 2, 3])


def test_read_digit_file_eof_reports_available(tmp_path):
    # A read past the end returns the symbols there are; pos counts them.
    p = tmp_path / "d.txt"
    p.write_text("1234567")
    reader = file_source(p, 10).reader()
    assert reader.read(9).shape == (7, 1) and reader.pos == 7


@pytest.mark.parametrize("block", [4, 5])
def test_reader_started_past_the_end_of_a_digit_file(block, tmp_path, monkeypatch):
    # The reader skips to its start in pieces of block symbols and stops at
    # the end of the file's 15, which fill the last piece (5) or not (4).
    sizes(monkeypatch, block=block)
    p = tmp_path / "d.txt"
    p.write_text("3.1415 9265\n358979\n")
    reader = file_source(p, 10).reader(99)
    assert reader.pos == 15
    assert len(reader.read(5)) == 0 and reader.pos == 15


def _digit_file_bytes(rng, m: int) -> bytes:
    """Seeded bytes of a base-m digit file: mostly symbols and whitespace,
    with radix points and, in some files, bytes that are never valid (the
    digits m..9, '/', ':', 0x00 and 0x80-0xFF) at rates that vary by file."""
    pools = [np.arange(ord("0"), ord("0") + m), np.frombuffer(b" \t\r\n", np.uint8),
             [ord(".")], np.r_[ord("0") + m : ord("9") + 1, ord("/"), ord(":"), 0],
             np.arange(128, 256)]
    dot, bad = rng.choice([0.0, 0.004, 0.02]), rng.choice([0.0, 0.001, 0.005, 0.025])
    pool = rng.choice(5, int(rng.integers(0, 600)), p=[0.8 - dot - 2 * bad, 0.2, dot, bad, bad])
    data = np.zeros(pool.size, dtype=np.uint8)
    for j, values in enumerate(pools):
        data[pool == j] = rng.choice(values, np.count_nonzero(pool == j))
    return data.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_digit_file_decoder_matches_byte_by_byte_reference(chunk, tmp_path, monkeypatch):
    # Whatever the chunk size, reads in uneven pieces give the reference's
    # symbols, then the end of the file or the reference's bad byte and
    # offset, raised again by a later read.
    if chunk is not None:
        sizes(monkeypatch, block=chunk)
    rng = np.random.default_rng(11)
    p = tmp_path / "d.txt"
    errors = 0
    for case in range(60):
        m = 2 + case % 9
        data = _digit_file_bytes(rng, m)
        p.write_bytes(data)
        want, error = digit_file_symbols(data, m)
        cuts = np.diff(np.sort(rng.integers(0, len(want) + 1, 4)), prepend=0,
                       append=len(want))
        reader = file_source(p, m).reader()
        got = np.concatenate([reader.read(int(c)) for c in cuts])
        assert got.dtype == np.uint8 and got[:, 0].tolist() == want, case
        if error is None:
            assert len(reader.read(1)) == 0 and reader.pos == len(want), case
            continue
        errors += 1
        with pytest.raises(DataError) as first:
            reader.read(1)
        assert str(first.value) == "unexpected byte %r at offset %d in digit file" % error
        with pytest.raises(DataError) as again:
            reader.read(1)
        assert again.value is first.value
    assert 10 < errors < 50


def test_pi_fixture_contents():
    path = pi_fixture_path()
    assert os.path.exists(path)
    assert np.array_equal(_file_digits(path, 10, 0, 12), [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    reader = file_source(path, 10).reader()
    assert len(reader.read(100001)) == reader.pos == 100000


def test_file_source_offsets(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.14159")
    assert np.array_equal(_file_digits(p, 10, 2, 3), [4, 1, 5])
    obs = file_source(p, 10, indicator_a=1).reader().read(6)
    assert obs.dtype == np.uint8
    assert np.array_equal(obs[:, 0], [0, 1, 0, 1, 0, 0])


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
    native = np.float64 if kind in ("gaussian", "markov-chain") else np.uint8
    for start in (0, 5):
        out = src.reader(start).read(0)
        assert out.shape == (0, src.d) and out.dtype == native


def test_read_digit_file_to_eof(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.1415 9265\n358979\n")
    whole = _file_digits(p, 10, 0, 100)
    assert np.array_equal(whole, _file_digits(p, 10, 0, 15))
    assert whole.dtype == np.uint8 and whole.size == 15
    assert np.array_equal(_file_digits(p, 10, 13, 100), [7, 9])
    assert _file_digits(p, 10, 15, 100).size == 0
    assert _file_digits(p, 10, 99, 0).size == 0  # nothing requested, no EOF error
    p.write_text("31415x")  # a bad byte after the last digit is still seen
    with pytest.raises(DataError, match="offset 5"):
        _file_digits(p, 10, 0, 100)
    assert np.array_equal(_file_digits(p, 10, 0, 5), [3, 1, 4, 1, 5])
