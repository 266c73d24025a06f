"""The source contract as one seeded sweep through one size seam.

Every source kind yields the same values whatever the piece size, the worker
count or the start index, because every value is a function of its index
alone (or of the file).  Each case below sets its sizes through
_reference.sizes and compares block_means, a reader from its start and a
stream of pieces with _reference.values, which computes each value from its
per-index scalar form.  The cases are drawn from a fixed numpy seed, in the
spirit of QuickCheck (Claessen and Hughes, ICFP 2000), with no
property-testing dependency.
"""

import threading
from dataclasses import dataclass

import numpy as np
import pytest

from blockldp import (MarkovSpec, bernoulli_source, block_means, blockstats,
                      digit_source, file_source, gaussian_source, markov_source,
                      sources)

from _reference import BLOCK, expected_stats, sizes, values

KINDS = ("digit", "digit-indicator", "bernoulli", "gaussian1", "gaussian2",
         "markov-integer", "markov-real", "file", "file-indicator")
MAX_VALUES = 6000    # n * k of a case, before its dimension
MAX_PIECES = 64      # a case's block cuts its n * k * d values into at most this
                     # many pieces; its start and count each reach half as many
FILE_SYMBOLS = 12_000


@dataclass(frozen=True)
class Case:
    kind: str
    seed: int     # the source's seed; its other parameters are drawn from it
    d: int
    n: int
    k: int
    start: int
    count: int
    block: int
    workers: int


def _log_uniform(rng, lo: int, hi: int) -> int:
    """An integer in [lo, hi], log-uniform, so small values are common."""
    return min(hi, int(np.exp(rng.uniform(np.log(lo), np.log(hi + 1)))))


def _draw_cases(rng, count: int) -> list:
    cases = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        d = {"gaussian2": 2, "markov-real": int(rng.choice([1, 2]))}.get(kind, 1)
        n = _log_uniform(rng, 1, 1500)
        k = _log_uniform(rng, 1, MAX_VALUES // n)
        block = _log_uniform(rng, -(-n * k * d // MAX_PIECES), min(BLOCK, n * k * d))
        reach = min(MAX_VALUES // 2, MAX_PIECES // 2 * block)
        start = rng.integers(reach + 1)  # an np.int64, kept as one in every other case
        cases.append(Case(kind, int(rng.integers(1 << 32)), d, n, k,
                          start if i % 2 else int(start), int(rng.integers(reach + 1)),
                          block, int(rng.choice([1, 2, 3, 8]))))
    return cases


CASES = _draw_cases(np.random.default_rng(20001), 300)


def _chain(rng, integer: bool, d: int) -> MarkovSpec:
    """A primitive chain of 1 to 50 states: a cycle through every state and a
    self-loop at state 0, other entries zero or uniform.  phi takes integer
    values, some negative and some of magnitude 1e9, or normal reals in R^d."""
    s = int(rng.choice([1, 2, 3, 5, 50]))
    P = np.where(rng.random((s, s)) < 0.5, rng.random((s, s)), 0.0)
    P[np.arange(s), (np.arange(s) + 1) % s] += 0.5
    P[0, 0] += 0.5
    P /= P.sum(axis=1, keepdims=True)
    if integer:
        phi = rng.integers(-5, 6, s) * int(rng.choice([1, 10 ** 9]))
    else:
        phi = rng.normal(size=(s, d) if d > 1 else s)
    return MarkovSpec(P=P, phi=phi.astype(np.float64))


def _source(case: Case, path):
    rng = np.random.default_rng(case.seed)
    if case.kind.startswith("digit"):
        m = int(rng.integers(2, 11))
        a = int(rng.integers(m)) if case.kind == "digit-indicator" else None
        return digit_source(case.seed, m, a)
    if case.kind == "bernoulli":
        return bernoulli_source(case.seed, float(rng.uniform(0.05, 0.95)))
    if case.kind.startswith("gaussian"):
        return gaussian_source(case.seed, case.d)
    if case.kind.startswith("file"):
        return file_source(path, 10, int(rng.integers(10)) if case.kind == "file-indicator"
                           else None)
    return markov_source(_chain(rng, case.kind == "markov-integer", case.d), case.seed)


@pytest.fixture(scope="module")
def digit_file(tmp_path_factory):
    """A base-10 digit file of FILE_SYMBOLS symbols after "3.", with spaces,
    tabs and line breaks (LF and CRLF) between some of them."""
    rng = np.random.default_rng(20002)
    gaps = rng.choice(["", " ", "\t", "\n", "\r\n"], FILE_SYMBOLS,
                      p=[0.9, 0.03, 0.01, 0.04, 0.02])
    digits = rng.integers(0, 10, FILE_SYMBOLS).astype(str)
    path = tmp_path_factory.mktemp("sweep") / "digits.txt"
    path.write_text("3." + "".join(np.char.add(digits, gaps)), newline="")
    return path


def _recorded_parts(monkeypatch) -> list:
    """Wrap the reducer inside Reader._reduce_blocks; returns the list that
    each part appends (its thread's id, its pieces as (first block, blocks)) to."""
    parts = []
    reduce_blocks = sources.Reader._reduce_blocks

    def recorded(self, n, k, reduce):
        def part(pieces):
            seen = []
            parts.append((threading.get_ident(), seen))

            def tapped():
                for j, values in pieces:
                    seen.append((j, len(values) // n))
                    yield j, values

            return reduce(tapped())

        return reduce_blocks(self, n, k, part)

    monkeypatch.setattr(sources.Reader, "_reduce_blocks", recorded)
    return parts


def _counter(case: Case) -> bool:
    """Whether the case's source is a counter kind, whose block_means splits."""
    return case.kind.startswith(("digit", "bernoulli", "gaussian"))


def _split(case: Case) -> tuple:
    """(parts, blocks per piece) that the case's sizes ask of block_means."""
    per = case.n * case.d
    parts = min(case.workers, case.k, case.k * per // case.block) if _counter(case) else 1
    return max(1, parts), max(1, case.block // per)


@pytest.mark.parametrize("kind", KINDS)
def test_sizes_leave_no_trace(kind, digit_file, monkeypatch):
    for case in CASES:
        if case.kind == kind:
            with monkeypatch.context() as patch:
                try:
                    _check(case, digit_file, patch)
                except AssertionError as err:
                    raise AssertionError(case) from err


def _check(case: Case, digit_file, monkeypatch) -> None:
    """block_means, a reader from case.start and a stream of pieces at the
    case's sizes against the scalar reference, values and dtype."""
    src = _source(case, digit_file)
    stop = case.start + case.count
    ref = values(src, 0, max(stop, case.n * case.k))
    want_means, want_weights = expected_stats(src, ref, case.n, case.k)
    ref = ref[:stop]
    sizes(monkeypatch, block=case.block, workers=case.workers)
    parts = _recorded_parts(monkeypatch)
    stats = block_means(src, case.n, case.k)
    assert stats.means.tobytes() == want_means.tobytes()
    assert stats.weights.tobytes() == want_weights.tobytes()
    reader, half = src.reader(case.start), case.count // 2  # two reads, an empty one between
    got = np.concatenate([reader.read(half), reader.read(0), reader.read(case.count - half)])
    assert got.dtype == ref.dtype and got.tobytes() == ref[case.start:].tobytes()
    streamed = list(src.reader().pieces(stop))
    assert len(streamed) == -(-stop // case.block)
    assert all(piece.dtype == ref.dtype for piece in streamed)
    assert np.concatenate([ref[:0]] + streamed).tobytes() == ref.tobytes()

    # The sizes split the work: as many parts as asked, the first on the
    # calling thread, and pieces of as many blocks as a piece holds, each
    # part's last perhaps fewer, covering the k blocks in order.
    count, step = _split(case)
    assert len(parts) == count
    assert [t for t, _ in parts].count(threading.get_ident()) == 1
    j = 0
    for _, seen in sorted(parts, key=lambda part: part[1][0]):
        for i, (first, blocks) in enumerate(seen):
            assert first == j and (blocks == step or (i == len(seen) - 1 and blocks < step))
            j += blocks
    assert j == case.k


def _tally_merges(case: Case, digit_file, monkeypatch) -> int:
    """How often block_means at the case's sizes merges a part's pending
    block sums into its tally before the part ends: every _merge_tallies
    call but each part's last and the one that joins the parts."""
    calls = []
    merge = blockstats._merge_tallies
    monkeypatch.setattr(blockstats, "_merge_tallies", lambda t: calls.append(1) or merge(t))
    sizes(monkeypatch, block=case.block, workers=case.workers)
    block_means(_source(case, digit_file), case.n, case.k)
    return len(calls) - _split(case)[0] - 1


def test_cases_cover_the_contract(digit_file, monkeypatch):
    # The drawn cases reach every kind and each way the sizes cut the work.
    def some(pred):
        return sum(map(pred, CASES)) >= 5

    def one_way_row(c):  # a chain of several states with a row of one nonzero entry
        P = _source(c, None).markov.P
        return len(P) > 1 and np.any(np.count_nonzero(P, axis=1) == 1)

    def merges_twice(c):  # a lattice case whose tally merges at least twice
        if _source(c, digit_file).int_bound is None:
            return False
        with monkeypatch.context() as patch:
            return _tally_merges(c, digit_file, patch) >= 2

    assert {c.kind for c in CASES} == set(KINDS)
    assert {_source(c, None).m for c in CASES if c.kind.startswith("digit")} == set(range(2, 11))
    assert some(lambda c: c.kind == "markov-real" and c.d == 2)
    assert some(lambda c: c.kind.startswith("markov") and one_way_row(c))
    assert some(lambda c: c.kind.startswith("markov") and c.block > 2 and c.start > 1
                and (c.start + 1) % c.block <= 2)  # a start within one value of a piece edge
    assert some(lambda c: _counter(c) and isinstance(c.start, np.int64) and c.start > 0)
    assert some(lambda c: c.n * c.d > c.block)  # a block longer than a piece
    assert some(lambda c: c.n * c.d < c.block and c.block % (c.n * c.d))  # n does not divide one
    assert some(lambda c: c.block < 50) and some(merges_twice)
    assert some(lambda c: not _counter(c) and c.start > c.block)  # a skip of several pieces
    for workers in (1, 2, 3):
        assert some(lambda c: _counter(c) and c.workers == _split(c)[0] == workers)
    assert some(lambda c: _counter(c) and 1 < _split(c)[0] < c.workers)  # workers to spare
