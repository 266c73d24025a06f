"""Deterministic generation and ingestion of stationary observation sequences.

Every value is a pure function of (seed, parameters, index), or of the file.
A Reader (SeriesSource.reader) is the one way to take values from a source: it
reads in order, generating or decoding each value once.  A counter kind starts
a reader at any index directly; a Markov chain or a digit file reads and drops
the values before it.

A digit file holds base-m symbols as the ASCII digits 0..m-1; space, tab, CR
and LF are skipped, and at most one '.' (a radix point) may appear.  A read
that needs a symbol past any other byte raises DataError naming that byte by
value (b'\\xc3') and its offset in the file.  Each chunk of the file loses its
separators to bytes.translate when more than 1/16 of its bytes lie below
'0', else to one bytes.replace per separator, and one max over the rest
minus '0' accepts it; only a chunk that fails is searched for that byte.

The counter-based core maps (seed, i) to a 64-bit word with the finalizer

    z = seed + (i + 1) * 0x9E3779B97F4A7C15   (mod 2**64)
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9    (mod 2**64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB    (mod 2**64)
    z ^= z >> 31

Uniforms are u = ((z >> 11) + 0.5) * 2**-53, always inside (0, 1).  Digit
sampling rejects words at or above the largest multiple of m below 2**64
before reducing mod m, which removes modulo bias exactly.  Gaussian
coordinates use Box-Muller on the counter pair (2i, 2i+1), offset by a
per-dimension stride of 2**40, so the streams of a d > 1 source are disjoint
for indices below 2**39: a read or block_means that would reach index 2**39
raises UsageError before it generates a value.

Each vector kernel fills one pass of at most 2**16 values in place in reused
buffers, into an output array of the caller's dtype; _fill, the one loop over
passes, equals the scalar raw_word bit for bit for any split.  _BLOCK = 2**16
is the one size this package cuts work by: counters per kernel pass, bytes
per digit-file chunk, values per Reader.pieces read and per piece of a block
reduction, the fewest block sums a lattice tally merges, and the cells per
tilt batch of scgf_values and the spectral model, which read it at call time.
Reader.read runs on the calling thread, so worker threads call
only _fill and the kernels, which a tracer of the public functions on one
span stack (bench/tracing.py) never sees.  Reader._reduce_blocks takes every
kind through one piece generator, and only a counter kind splits its blocks
into contiguous parts of at least _BLOCK values counting every coordinate, up
to one per CPU of the affinity mask, each generated and reduced in pieces on
its own thread: the bytes do not depend on the split; taskset -c 0 uses one.
The digit kernel reduces a word as z - m * (z // m), which is z mod m exactly
in unsigned 64-bit arithmetic: numpy divides by a scalar with a multiply and
shift, several times faster than its remainder.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._errors import DataError, NumericalError, UsageError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53
_DIM_STRIDE = 1 << 40
_MAX_DIGIT_RETRIES = 128
_BLOCK = 1 << 16  # counters per kernel pass and fewest values per thread: each
                  # ufunc call repays a thread switch, and a thread's buffers total 2 MB
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_RAMP = np.arange(_BLOCK, dtype=np.uint64)


def raw_word(seed: int, i: int) -> int:
    """64-bit mixed word for counter i under the given seed."""
    z = (seed + ((i + 1) * _GOLDEN)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def _mix_into(z: np.ndarray, tmp: np.ndarray, seed: int, first: int,
              step: int) -> np.ndarray:
    """raw_word(seed, first + j * step) into z[j] for j < z.size <= _BLOCK.

    tmp is uint64 scratch of z's size.  Counters wrap mod 2**64 as in raw_word.
    """
    np.multiply(_RAMP[:z.size], np.uint64((step * _GOLDEN) & _MASK64), out=z)
    np.add(z, np.uint64((seed + (int(first) + 1) * _GOLDEN) & _MASK64), out=z)
    np.right_shift(z, np.uint64(30), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(_MIX1), out=z)
    np.right_shift(z, np.uint64(27), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(_MIX2), out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _uniforms_into(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Uniforms ((z >> 11) + 0.5) * 2**-53 of the words z into the float64
    buffer u; z is overwritten."""
    np.right_shift(z, np.uint64(11), out=z)
    u[...] = z
    np.add(u, 0.5, out=u)
    np.multiply(u, _U53, out=u)
    return u


def _digit_limit(m: int) -> int:
    # Largest multiple of m that fits in 64 bits; words >= limit are rejected.
    return (1 << 64) - ((1 << 64) % m)


def _sample_digit(seed: int, i: int, m: int, limit: int) -> int:
    z = raw_word(seed, i)
    retries = 0
    while z >= limit:
        retries += 1
        if retries > _MAX_DIGIT_RETRIES:
            raise NumericalError(
                "digit rejection sampling exceeded %d retries at index %d"
                % (_MAX_DIGIT_RETRIES, i)
            )
        z = raw_word(z, i)
    return z % m


def _work(kind: str, count: int) -> np.ndarray:
    """Scratch for a kind's kernel passes over up to count counters: words in
    rows 0 and 1, then a row of float64 uniforms (as a view) per uniform the
    kind draws, none for digits and two for a Gaussian.  A caller that fills
    many pieces reuses one: with a fresh 2 MB per piece, glibc malloc mapped
    new pages for most pieces of a process's first block_means (44,000 page
    faults on a 597,196-block Gaussian run)."""
    rows = {"iid-digit": 2, "gaussian": 4}.get(kind, 3)
    return np.empty((rows, min(count, _BLOCK)), dtype=np.uint64)


def _digits_into(seed: int, start: int, out: np.ndarray, work: np.ndarray, m: int,
                 a: int | None = None) -> np.ndarray:
    """The base-m digits at indices start..start+out.size-1 (at most _BLOCK)
    into out, any dtype; the 0/1 indicators of symbol == a instead when a is
    given."""
    limit = _digit_limit(m)
    base = np.uint64(m)
    z, tmp = work[:2, :out.size]
    _mix_into(z, tmp, seed, start, 1)
    # Rejection fires with probability (2**64 mod m)/2**64 < 1e-18 per draw;
    # the stragglers are resolved through the scalar chain.
    late = (np.flatnonzero(z >= np.uint64(limit))
            if limit <= _MASK64 and z.max() >= np.uint64(limit) else ())
    np.floor_divide(z, base, out=tmp)
    np.multiply(tmp, base, out=tmp)
    np.subtract(z, tmp, out=z)
    if a is None:
        out[...] = z
    else:
        np.equal(z, np.uint64(a), out=out)
    for j in late:
        sym = _sample_digit(seed, int(start + j), m, limit)
        out[j] = sym if a is None else sym == a
    return out


def _bernoulli_block(seed: int, start: int, out: np.ndarray, work: np.ndarray,
                     p: float) -> np.ndarray:
    """Bernoulli(p) draws at indices start..start+out.size-1 (at most _BLOCK)
    into out, any dtype."""
    z, tmp = work[:2, :out.size]
    u = work[2, :out.size].view(np.float64)
    return np.less(_uniforms_into(_mix_into(z, tmp, seed, start, 1), u), p, out=out)


def _gaussian_block(seed: int, start: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Standard-normal vectors at indices start..start+len(out)-1 (at most
    _BLOCK) into the float64 (count, d) array out.

    Box-Muller sqrt(-2 log u1) cos(2 pi u2), u1 and u2 at counters 2i and
    2i + 1 of coordinate c's stream, which is offset by c * _DIM_STRIDE.
    """
    z, tmp = work[:2, :len(out)]
    u1, u2 = work[2:].view(np.float64)[:, :len(out)]
    for c in range(out.shape[1]):
        first = 2 * start + c * _DIM_STRIDE
        _uniforms_into(_mix_into(z, tmp, seed, first, 2), u1)
        _uniforms_into(_mix_into(z, tmp, seed, first + 1, 2), u2)
        np.log(u1, out=u1)
        np.multiply(u1, -2.0, out=u1)
        np.sqrt(u1, out=u1)
        np.multiply(u2, 2.0 * np.pi, out=u2)
        np.cos(u2, out=u2)
        np.multiply(u1, u2, out=out[:, c])
    return out


def _fill(src: "SeriesSource", start: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Values start..start+len(out)-1 of a counter-kind source into the
    (count, d) array out, uint8 for digits and Bernoulli, float64 for Gaussian.

    The one loop over kernel passes: each _BLOCK rows of out take one call
    of the kind's kernel, with work as its scratch."""
    for b0 in range(0, len(out), _BLOCK):
        rows = out[b0 : b0 + _BLOCK]
        if src.kind == "gaussian":
            _gaussian_block(src.seed, start + b0, rows, work)
        elif src.kind == "iid-digit":
            _digits_into(src.seed, start + b0, rows[:, 0], work, src.m, src.indicator_a)
        else:
            _bernoulli_block(src.seed, start + b0, rows[:, 0], work, src.p)
    return out


def _check_reach(src: "SeriesSource", stop: int) -> None:
    """UsageError unless the values below index stop of a d > 1 Gaussian
    stay below index 2**39, where coordinate c's counters meet c + 1's."""
    if src.kind == "gaussian" and src.d > 1 and stop > _DIM_STRIDE // 2:
        raise UsageError("a Gaussian source with d > 1 has indices below 2**39 only; "
                         "this read reaches index %d" % (stop - 1))


def _integer(name: str, value) -> int:
    if not isinstance(value, (int, np.integer)):
        raise UsageError("%s must be an integer, got %r" % (name, value))
    return int(value)


@dataclass(frozen=True)
class MarkovSpec:
    """Finite-state Markov chain with a per-state observable, checked once,
    when it is built: UsageError names the first invariant that fails.

    Fields
    ------
    P : (s, s) primitive row-stochastic matrix (rows sum to 1 within 1e-12).
    phi : finite observable, shape (s,) for scalar or (s, d) for vector values.
    pi : initial distribution: once built, the supplied one, else the
        stationary one, the exact solution of pi (I - P + 1 1^T) = 1^T.
    """

    P: np.ndarray
    phi: np.ndarray
    pi: np.ndarray | None = None

    def __post_init__(self):
        for name in ("P", "phi", "pi"):
            val = getattr(self, name)
            if val is not None:
                try:
                    val = np.asarray(val, dtype=np.float64)
                except (TypeError, ValueError):
                    raise UsageError("Markov spec %s must be rectangular and numeric" % name)
                object.__setattr__(self, name, val)
        P = self.P
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
            raise UsageError("transition matrix must be square, got shape %r" % (P.shape,))
        s = P.shape[0]
        if not np.all(np.isfinite(P)) or np.any(P < 0.0):
            raise UsageError("transition matrix entries must be finite and >= 0")
        row_err = np.abs(P.sum(axis=1) - 1.0)
        if np.any(row_err > 1e-12):
            bad = int(np.argmax(row_err))
            raise UsageError(
                "row %d of the transition matrix sums to 1%+.3e, beyond 1e-12"
                % (bad, P[bad].sum() - 1.0)
            )
        if self.phi.ndim not in (1, 2) or self.phi.shape[0] != s:
            raise UsageError("observable must have shape (s,) or (s, d) with s=%d" % s)
        if not np.all(np.isfinite(self.phi)):
            raise UsageError("observable entries must be finite")
        if self.pi is not None:
            pi = self.pi
            if pi.shape != (s,):
                raise UsageError("initial distribution must have shape (s,)")
            # Written so that a NaN entry fails both comparisons.
            if not (np.all(pi >= 0.0) and abs(pi.sum() - 1.0) <= 1e-12):
                raise UsageError("initial distribution must be nonnegative and sum to 1")
        # A primitive chain has P^k > 0 for every k >= (s-1)**2 + 1 (Wielandt),
        # and repeated squaring of the reachability pattern reaches such a k.
        reach = (P > 0.0).astype(np.int64)
        for _ in range((s * s).bit_length()):
            reach = (reach @ reach > 0).astype(np.int64)
        if not reach.all():
            raise UsageError(
                "transition matrix is not primitive "
                "(no power up to s**2 is entrywise positive)"
            )
        if self.pi is None:
            object.__setattr__(self, "pi", np.linalg.solve((np.eye(s) - P + 1.0).T,
                                                           np.ones(s)))

    @property
    def s(self) -> int:
        return self.P.shape[0]

    @property
    def d(self) -> int:
        return 1 if self.phi.ndim == 1 else self.phi.shape[1]


def _markov_states(spec: MarkovSpec, seed: int, first: int, count: int,
                   state) -> np.ndarray:
    """States X_first, ..., X_{first+count-1} (int64) after X_{first-1} = state.

    state None starts the path with X_0 drawn from spec's initial law, the
    row of a virtual state s before X_0.  Step t uses the uniform at counter
    t: the next state is the first whose cumulative row entry exceeds it.
    Each row's last entry is +inf, so a uniform past a row's rounded total
    lands in state s - 1.  The walk goes one kernel block at a time, and a
    path split into calls equals the path in one call.
    """
    rows = np.vstack([np.cumsum(spec.P, axis=1), np.cumsum(spec.pi)])
    rows[:, -1] = np.inf
    rows = rows.tolist()
    state = spec.s if state is None else state
    states = np.empty(count, dtype=np.int64)
    work = _work("markov-chain", count)
    for b0 in range(0, count, _BLOCK):
        z, tmp, u = work[:, :min(_BLOCK, count - b0)]
        u = _uniforms_into(_mix_into(z, tmp, seed, first + b0, 1), u.view(np.float64))
        states[b0 : b0 + z.size] = [state := bisect_right(rows[state], x)
                                    for x in u.tolist()]
    return states


def _file_symbols(path, m: int):
    """Base-m symbols of a digit file, one fresh uint8 array per _BLOCK bytes.

    A chunk yields its symbols before its first invalid byte (anything but a
    symbol, space, tab, CR or LF, or a '.' after the file's first); that
    byte's DataError is yielded in place of every later chunk, so no read
    past it can look like the end of the file.  C string routines strip a
    chunk's separators: bytes.translate when more than 1/16 of its bytes lie
    below ord("0"), as every separator and '.' do (one digit per line, as
    gen writes), else one bytes.replace per separator, at memchr speed when
    they are sparse (a line break every 80 digits) but about 7 ns a byte on
    dense ones.  The file's first '.' is dropped, and one max accepts the
    rest minus ord("0").  Only a chunk that fails it looks for its first
    symbol >= m: that byte is the first of its value in the chunk, or for a
    '.' the first after the chunk's allowed dot.
    """
    seen_dot = False
    with open(path, "rb") as fh:
        while data := fh.read(_BLOCK):
            if np.count_nonzero(np.frombuffer(data, np.uint8) < ord("0")) * 16 > len(data):
                clean = data.translate(None, b" \t\r\n")
            else:
                clean = data
                for sep in (b"\n", b"\r", b" ", b"\t"):
                    clean = clean.replace(sep, b"")
            dot = not seen_dot and b"." in clean
            if dot:
                clean, seen_dot = clean.replace(b".", b"", 1), True
            s = np.frombuffer(clean, np.uint8) - np.uint8(ord("0"))
            if s.max(initial=0) < m:
                yield s
                continue
            i = int(np.argmax(s >= m))
            b = clean[i : i + 1]
            yield s[:i]
            at = data.find(b, data.find(b".") + 1 if dot and b == b"." else 0)
            yield from repeat(DataError("unexpected byte %r at offset %d in digit file"
                                        % (b, fh.tell() - len(data) + at)))


def pi_fixture_path() -> str:
    """Path of the bundled 1e5-digit Pi fixture (test data, base 10)."""
    from importlib import resources

    return str(resources.files(__package__).joinpath("data/pi_100k.txt"))


_KINDS = ("iid-digit", "iid-bernoulli", "gaussian", "markov-chain", "digit-file")
# The kinds whose values are functions of (seed, index), with their native dtypes.
_COUNTER_KINDS = {"iid-digit": np.uint8, "iid-bernoulli": np.uint8, "gaussian": np.float64}


class Reader:
    """Sequential reader of a source from index `start` (an integer >= 0) on;
    pos is the next index.

    read returns each kind's native values: uint8 for the digit kinds (base-m
    symbols, or the 0/1 indicators of indicator_a) and Bernoulli draws,
    float64 for Gaussian and Markov sources.  It returns fewer values than
    asked only at the end of a digit file, and raises again the DataError of
    a bad byte on every read after it.  A counter kind keeps pos, a Markov
    chain also its last state, a digit file its open chunk decoder (byte
    position, radix-point flag) and its unread symbols; those two read and
    drop the values before start through pieces, so a reader started past
    the end of a digit file has pos at the file's symbol count.  Dropping the
    reader closes its file.  read runs on the calling thread; only
    _reduce_blocks on a counter kind generates and reduces parts of a run of
    blocks on threads of their own.
    """

    def __init__(self, source: "SeriesSource", start: int = 0):
        start = _integer("start", start)
        if start < 0:
            raise UsageError("start must be >= 0")
        self.source = source
        self.pos = 0 if source.kind in ("markov-chain", "digit-file") else start
        self._state = None  # Markov: the state at index pos - 1
        self._chunks = _file_symbols(source.path, source.m) if source.path else None
        self._rest = np.zeros(0, dtype=np.uint8)  # digit file: unread symbols
        for _ in self.pieces(start):
            pass

    def pieces(self, stop: int | None = None):
        """Successive reads of at most _BLOCK values up to index stop, or up
        to the end of a digit file when stop is None.  A short read, empty
        or not, comes only at the end of a digit file and is the last."""
        while stop is None or self.pos < stop:
            want = _BLOCK if stop is None else min(_BLOCK, stop - self.pos)
            values = self.read(want)
            yield values
            if len(values) < want:
                return

    def read(self, count: int) -> np.ndarray:
        """The next count observations in the kind's native dtype, shape (count, d)."""
        if count < 0:
            raise UsageError("count must be >= 0")
        src = self.source
        if src.kind in _COUNTER_KINDS:
            _check_reach(src, self.pos + count)
            out = _fill(src, self.pos, np.empty((count, src.d), _COUNTER_KINDS[src.kind]),
                        _work(src.kind, count))
        elif src.kind == "digit-file":
            parts, rest, need = [], self._rest, count
            while need > rest.size and (chunk := next(self._chunks, None)) is not None:
                if isinstance(chunk, DataError):
                    raise chunk
                parts.append(rest)
                need -= rest.size
                rest = chunk
            parts.append(rest[:need])
            out = np.concatenate(parts) if len(parts) > 1 else parts[0]
            self._rest = rest[need:]
            if src.indicator_a is not None:
                out = (out == src.indicator_a).view(np.uint8)
        else:
            states = _markov_states(src.markov, src.seed, self.pos, count, self._state)
            self._state = states[-1] if count else self._state
            out = src.markov.phi[states]
        self.pos += len(out)
        return out.reshape(-1, src.d)

    def _reduce_blocks(self, n: int, k: int, reduce) -> list:
        """[reduce(pieces) for each part] over the next k blocks of n values.

        A part is a run of whole blocks j0..j1-1, counted from this call's
        first.  Its piece generator part(j0, j1) yields (j, values) for
        successive runs of them: j is the run's first block, and values the
        run's observations as read would return them, in pieces of at most
        _BLOCK values (one block when n * d > _BLOCK), so each piece is
        reduced while it is in cache.  A counter kind fills each piece through
        _fill into its part's buffer, which the next piece overwrites, and
        splits the blocks into min(_WORKERS, k, k * n * d // _BLOCK) contiguous
        parts: the first runs on the calling thread, the others in parallel on
        a pool that lives for this call (numpy releases the GIL inside each
        ufunc).  reduce runs on its part's thread and must only write state of
        its own part.  A Markov chain or a digit file is one part, read on the
        calling thread.  Raises DataError, stating how many full blocks were
        available, when the source ends first.
        """
        src, d, start = self.source, self.source.d, self.pos
        _check_reach(src, start + k * n)
        step = max(1, _BLOCK // (n * d))
        dtype = _COUNTER_KINDS.get(src.kind)

        def part(j0: int, j1: int):
            if dtype:
                buf = np.empty((min(step, j1 - j0) * n, d), dtype)
                work = _work(src.kind, len(buf))
            for j in range(j0, j1, step):
                want = min(step, j1 - j) * n
                values = _fill(src, start + j * n, buf[:want], work) if dtype else self.read(want)
                if len(values) < want:
                    raise DataError("source exhausted: only %d full blocks of length "
                                    "%d available, needed %d" % ((self.pos - start) // n, n, k))
                yield j, values

        parts = min(_WORKERS, k, k * n * d // _BLOCK) if dtype else 1
        if parts < 2:
            out = [reduce(part(0, k))]
        else:
            from concurrent.futures import ThreadPoolExecutor  # 5 ms, paid only by a split

            edges = [k * i // parts for i in range(parts + 1)]
            with ThreadPoolExecutor(parts - 1) as pool:
                rest = [pool.submit(reduce, part(j, j2)) for j, j2 in zip(edges[1:-1], edges[2:])]
                out = [reduce(part(0, edges[1]))] + [f.result() for f in rest]
        self.pos = start + k * n
        return out


@dataclass(frozen=True)
class SeriesSource:
    """Seed-indexed producer of real-vector observations.

    Two sources with equal (kind, seed, parameters) are observationally
    identical; reader(start) reads them in order from any index, and readers
    from different starts agree bit-exactly.  Construction, here or in the
    module constructors, checks the seed, d and the kind's parameters once.
    """

    kind: str
    d: int
    seed: int
    m: int | None = None
    p: float | None = None
    markov: MarkovSpec | None = None
    path: str | None = None
    indicator_a: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UsageError("unknown source kind %r" % (self.kind,))
        for name in ("d", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.d < 1:
            raise UsageError("dimension must be >= 1")
        if self.kind == "markov-chain" and not isinstance(self.markov, MarkovSpec):
            raise UsageError("a markov-chain source needs a MarkovSpec")
        if self.kind == "iid-bernoulli" and not (isinstance(self.p, (int, float))
                                                 and 0 < self.p < 1):
            raise UsageError("p must lie strictly inside (0, 1), got %r" % (self.p,))
        if self.kind == "digit-file":
            if not (isinstance(self.path, (str, os.PathLike)) and os.fspath(self.path)):
                raise UsageError("a digit-file source needs a path")
            object.__setattr__(self, "path", os.fspath(self.path))
        if self.kind != "gaussian":
            want = self.markov.d if self.kind == "markov-chain" else 1
            if self.d != want:
                raise UsageError("a %s source has dimension %d, got d=%r"
                                 % (self.kind, want, self.d))
        if self.kind in ("iid-digit", "digit-file"):
            if not (isinstance(self.m, (int, np.integer)) and 2 <= self.m <= 10):
                raise UsageError("base m must be an integer in [2, 10], got %r" % (self.m,))
            a = self.indicator_a
            if a is not None and not (isinstance(a, (int, np.integer)) and 0 <= a < self.m):
                raise UsageError("indicator symbol must be an integer in {0, ..., m-1}")

    @property
    def int_bound(self) -> int | None:
        """Largest |observation| of an integer-valued scalar source (digit
        kinds, Bernoulli, a Markov chain with integer scalar phi of magnitude
        at most 2**53); None for any other source."""
        if self.kind in ("iid-digit", "digit-file"):
            return self.m - 1 if self.indicator_a is None else 1
        if self.kind == "iid-bernoulli":
            return 1
        if self.kind == "markov-chain" and self.d == 1:
            phi = self.markov.phi
            top = np.abs(phi).max()
            if top <= 2 ** 53 and np.array_equal(phi, np.rint(phi)):
                return int(top)
        return None

    def reader(self, start: int = 0) -> Reader:
        """Sequential Reader of the values from index start on."""
        return Reader(self, start)


def digit_source(seed: int, m: int, indicator_a: int | None = None) -> SeriesSource:
    """Uniform iid base-m digits; observations are the symbol values, or the
    0/1 indicator of symbol == indicator_a when it is given."""
    return SeriesSource(kind="iid-digit", d=1, seed=seed, m=m, indicator_a=indicator_a)


def bernoulli_source(seed: int, p: float) -> SeriesSource:
    """Iid Bernoulli(p) observations 0 and 1."""
    return SeriesSource(kind="iid-bernoulli", d=1, seed=seed, p=p)


def gaussian_source(seed: int, d: int) -> SeriesSource:
    """Iid standard-normal vectors in R^d."""
    return SeriesSource(kind="gaussian", d=d, seed=seed)


def markov_source(spec: MarkovSpec, seed: int) -> SeriesSource:
    """Stationary Markov-chain observable sequence."""
    return SeriesSource(kind="markov-chain", d=spec.d, seed=seed, markov=spec)


def file_source(path, m: int, indicator_a: int | None = None) -> SeriesSource:
    """Digit-file ingestion; observations as in digit_source.  The seed field
    is carried for manifests only, the stream is fixed by the file."""
    return SeriesSource(kind="digit-file", d=1, seed=0, m=m, path=path,
                        indicator_a=indicator_a)
