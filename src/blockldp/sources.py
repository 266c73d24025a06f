"""Deterministic generation and ingestion of stationary observation sequences.

Every generator is a pure function of (seed, parameters, index): regenerating
any index yields bit-identical values, so disjoint index ranges can be produced
concurrently or in chunks with no coordination.

The counter-based core maps (seed, i) to a 64-bit word with the finalizer

    z = seed + (i + 1) * 0x9E3779B97F4A7C15   (mod 2**64)
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9    (mod 2**64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB    (mod 2**64)
    z ^= z >> 31

Uniforms are u = ((z >> 11) + 0.5) * 2**-53, always inside (0, 1).  Digit
sampling rejects words at or above the largest multiple of m below 2**64
before reducing mod m, which removes modulo bias exactly.  Gaussian
coordinates use Box-Muller on the counter pair (2i, 2i+1), offset by a
per-dimension stride of 2**40 (collision-free for indices below 2**39 per
dimension, far beyond any supported run length).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._errors import DataError, NumericalError, UsageError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53
_DIM_STRIDE = 1 << 40
_MAX_DIGIT_RETRIES = 128
_FILE_CHUNK = 1 << 20
_SCAN_VALUES = 1 << 16  # per Markov scan segment: cache-sized, log2(steps) passes


def raw_word(seed: int, i: int) -> int:
    """64-bit mixed word for counter i under the given seed."""
    z = (seed + ((i + 1) * _GOLDEN)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def _raw_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """Vectorized raw_word over a uint64 counter array."""
    z = np.uint64(seed & _MASK64) + (idx + np.uint64(1)) * np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def uniform(seed: int, i: int) -> float:
    """Uniform draw in the open interval (0, 1) at counter i."""
    return ((raw_word(seed, i) >> 11) + 0.5) * _U53


def _uniforms(seed: int, idx: np.ndarray) -> np.ndarray:
    w = _raw_words(seed, idx) >> np.uint64(11)
    return (w.astype(np.float64) + 0.5) * _U53


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


def next_digit(seed: int, i: int, m: int) -> int:
    """Uniform symbol in {0, ..., m-1} at index i, deterministic in (seed, i, m).

    Parameters
    ----------
    seed : int
        64-bit generator seed.
    i : int
        Symbol index (random access).
    m : int
        Base, 2 <= m <= 10.
    """
    _check_base(m)
    return _sample_digit(seed, i, m, _digit_limit(m))


def digit_block(seed: int, start: int, count: int, m: int) -> np.ndarray:
    """Vectorized next_digit over indices start..start+count-1."""
    _check_base(m)
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = _raw_words(seed, idx)
    limit = _digit_limit(m)
    out = (z % np.uint64(m)).astype(np.int64)
    if limit <= _MASK64:
        # Rejection fires with probability (2**64 mod m)/2**64 < 1e-18 per
        # draw; resolve the stragglers through the scalar chain.
        bad = np.nonzero(z >= np.uint64(limit))[0]
        for j in bad:
            out[j] = _sample_digit(seed, int(start + j), m, limit)
    return out


def bernoulli_value(seed: int, i: int, p: float) -> float:
    """Bernoulli(p) observation (0.0 or 1.0) at index i."""
    return 1.0 if uniform(seed, i) < p else 0.0


def _bernoulli_block(seed: int, start: int, count: int, p: float) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.uint64)
    return (_uniforms(seed, idx) < p).astype(np.float64)


def gaussian_increment(seed: int, i: int, d: int) -> np.ndarray:
    """Standard-normal vector in R^d at index i.

    Coordinate c applies Box-Muller (cosine branch) to the uniforms at
    counters (2i + c*2**40, 2i + 1 + c*2**40).
    """
    return gaussian_source(seed, d).get(i)


def _gaussian_block(seed: int, start: int, count: int, d: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.uint64)
    base = idx * np.uint64(2)
    out = np.empty((count, d), dtype=np.float64)
    for c in range(d):
        off = base + np.uint64((c * _DIM_STRIDE) & _MASK64)
        u1 = _uniforms(seed, off)
        u2 = _uniforms(seed, off + np.uint64(1))
        out[:, c] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out


def _check_base(m: int) -> None:
    if not (isinstance(m, (int, np.integer)) and 2 <= m <= 10):
        raise UsageError("base m must be an integer in [2, 10], got %r" % (m,))


@dataclass
class MarkovSpec:
    """Finite-state Markov chain with a per-state observable.

    Fields
    ------
    P : (s, s) row-stochastic transition matrix (rows sum to 1 within 1e-12).
    phi : observable, shape (s,) for scalar or (s, d) for vector values.
    pi : optional initial distribution; defaults to the stationary
        distribution computed by power iteration to 1e-13 residual.
    """

    P: np.ndarray
    phi: np.ndarray
    pi: np.ndarray | None = None
    _stationary: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.pi is not None:
            self.pi = np.asarray(self.pi, dtype=np.float64)

    @property
    def s(self) -> int:
        return self.P.shape[0]

    @property
    def d(self) -> int:
        return 1 if self.phi.ndim == 1 else self.phi.shape[1]

    def validate(self) -> "MarkovSpec":
        """Check every invariant; raise UsageError naming the violated one."""
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
        if self.pi is not None:
            pi = self.pi
            if pi.shape != (s,):
                raise UsageError("initial distribution must have shape (s,)")
            if np.any(pi < 0.0) or abs(pi.sum() - 1.0) > 1e-12:
                raise UsageError("initial distribution must be nonnegative and sum to 1")
        reach = P > 0.0
        step = reach.copy()
        for _ in range(s * s):
            if step.all():
                break
            step = (step.astype(np.int64) @ reach.astype(np.int64)) > 0
        else:
            if not step.all():
                raise UsageError(
                    "transition matrix is not primitive "
                    "(no power up to s**2 is entrywise positive)"
                )
        return self

    def stationary(self) -> np.ndarray:
        """Initial distribution: the supplied pi, else the stationary one."""
        if self.pi is not None:
            return self.pi
        if self._stationary is None:
            v = np.full(self.s, 1.0 / self.s)
            for _ in range(100000):
                w = v @ self.P
                w = w / w.sum()
                if np.abs(w - v).sum() <= 1e-13:
                    self._stationary = w
                    break
                v = w
            else:
                raise NumericalError("stationary-distribution power iteration did not converge")
        return self._stationary


def markov_path(spec: MarkovSpec, seed: int, length: int) -> np.ndarray:
    """Observable sequence phi(X_0), ..., phi(X_{length-1}).

    The state path starts from spec's initial distribution (stationary by
    default) and is driven by the counter-based uniforms at indices
    0..length-1, so the whole path is reproducible and randomly accessible
    by regeneration.  A prefix scan of per-step state maps over segments of
    at most 2**16/s steps reproduces a step-by-step walk bit for bit.
    """
    spec.validate()
    if length < 1:
        raise UsageError("length must be >= 1")
    cum_rows = np.cumsum(spec.P, axis=1)
    u = _uniforms(seed, np.arange(length, dtype=np.uint64))
    states = np.empty(length, dtype=np.int64)
    top = spec.s - 1
    cum_pi = np.cumsum(spec.stationary())
    states[0] = min(int(np.searchsorted(cum_pi, u[0], side="right")), top)
    seg = max(1, _SCAN_VALUES // spec.s)
    for t0 in range(1, length, seg):
        uc = u[t0 : t0 + seg]
        # maps[t, x] is the state after step t0 + t from state x; the doubling
        # scan composes them into maps from the state before step t0.
        maps = np.minimum(np.stack([np.searchsorted(row, uc, side="right")
                                    for row in cum_rows], axis=1), top)
        d = 1
        while d < uc.size:
            maps[d:] = np.take_along_axis(maps[d:], maps[:-d], axis=1)
            d *= 2
        states[t0 : t0 + uc.size] = maps[:, states[t0 - 1]]
    return spec.phi[states]


def read_digit_file(path, m: int, offset: int, count: int | None = None) -> np.ndarray:
    """Decode base-m symbols from an ASCII digit file.

    Characters '0'..chr(ord('0')+m-1) are symbols; space, tab, CR, LF and at
    most one '.' are skipped.  Any other byte raises DataError with its byte
    offset.  Returns `count` symbols starting after `offset` accepted symbols,
    or every symbol after them up to EOF when count is None; reaching EOF
    before `count` symbols raises DataError reporting how many were delivered.
    Reads are chunked, so the decoded stream is independent of chunk size and
    files far above memory size are supported.
    """
    _check_base(m)
    if offset < 0 or (count is not None and count < 0):
        raise UsageError("offset and count must be >= 0")
    parts = [np.zeros(0, dtype=np.uint8)]
    filled = 0
    skipped = 0
    seen_dot = False
    byte_pos = 0
    with open(path, "rb") as fh:
        while count is None or filled < count:
            chunk = fh.read(_FILE_CHUNK)
            if not chunk:
                if count is None:
                    break
                err = DataError(
                    "digit file ended after %d symbols, delivered %d of the %d "
                    "requested (offset %d)" % (skipped + filled, filled, count, offset)
                )
                err.symbols_available = skipped + filled
                raise err
            arr = np.frombuffer(chunk, dtype=np.uint8)
            is_digit = (arr >= ord("0")) & (arr < ord("0") + m)
            # Bytes past the one that completes the request are never
            # examined, so decoding and error reporting are independent of
            # the chunk size.
            scan_end = len(arr)
            if count is not None:
                need_here = (offset + count) - (skipped + filled)
                cum = np.cumsum(is_digit)
                if cum[-1] >= need_here:
                    scan_end = int(np.searchsorted(cum, need_here)) + 1
            arr = arr[:scan_end]
            is_digit = is_digit[:scan_end]
            is_skip = (arr == 32) | (arr == 9) | (arr == 13) | (arr == 10)
            is_dot = arr == ord(".")
            bad = ~(is_digit | is_skip | is_dot)
            dots = np.nonzero(is_dot)[0]
            first_bad = int(np.argmax(bad)) if bad.any() else scan_end
            if seen_dot and len(dots) > 0:
                first_bad = min(first_bad, int(dots[0]))
            elif len(dots) > 1:
                first_bad = min(first_bad, int(dots[1]))
            if first_bad < scan_end:
                raise DataError(
                    "unexpected byte %r at offset %d in digit file"
                    % (chr(arr[first_bad]), byte_pos + first_bad)
                )
            seen_dot = seen_dot or len(dots) > 0
            symbols = arr[is_digit] - ord("0")
            if skipped < offset:
                drop = min(offset - skipped, len(symbols))
                skipped += drop
                symbols = symbols[drop:]
            if symbols.size:  # an empty view would keep its chunk alive
                parts.append(symbols)
            filled += len(symbols)
            byte_pos += len(chunk)
    return np.concatenate(parts).astype(np.int64)


def pi_fixture_path() -> str:
    """Path of the bundled 1e5-digit Pi fixture (test data, base 10)."""
    from importlib import resources

    return str(resources.files(__package__).joinpath("data/pi_100k.txt"))


_KINDS = ("iid-digit", "iid-bernoulli", "gaussian", "markov-chain", "digit-file")


@dataclass(frozen=True)
class SeriesSource:
    """Seed-indexed producer of real-vector observations with random access.

    Two sources with equal (kind, seed, parameters) are observationally
    identical, and get/batch are pure, so streamed and random-access reads
    agree bit-exactly.  Use the module constructors (digit_source,
    bernoulli_source, gaussian_source, markov_source, file_source) rather
    than instantiating directly.
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
        if self.d < 1:
            raise UsageError("dimension must be >= 1")
        if self.kind in ("iid-digit", "digit-file"):
            _check_base(self.m)
            if self.indicator_a is not None and not 0 <= self.indicator_a < self.m:
                raise UsageError("indicator symbol must lie in {0, ..., m-1}")

    def with_seed(self, seed: int) -> "SeriesSource":
        return replace(self, seed=seed)

    def symbols(self, start: int, count: int) -> np.ndarray:
        """Raw base-m symbols (digit kinds only)."""
        if self.kind == "iid-digit":
            return digit_block(self.seed, start, count, self.m)
        if self.kind == "digit-file":
            return read_digit_file(self.path, self.m, start, count)
        raise UsageError("source kind %r has no symbol stream" % (self.kind,))

    def batch(self, start: int, count: int) -> np.ndarray:
        """Observations at indices start..start+count-1, shape (count, d)."""
        if count < 0 or start < 0:
            raise UsageError("start and count must be >= 0")
        if count == 0:
            return np.empty((0, self.d))
        if self.kind in ("iid-digit", "digit-file"):
            sym = self.symbols(start, count)
            if self.indicator_a is None:
                vals = sym.astype(np.float64)
            else:
                vals = (sym == self.indicator_a).astype(np.float64)
            return vals.reshape(count, 1)
        if self.kind == "iid-bernoulli":
            return _bernoulli_block(self.seed, start, count, self.p).reshape(count, 1)
        if self.kind == "gaussian":
            return _gaussian_block(self.seed, start, count, self.d)
        obs = markov_path(self.markov, self.seed, start + count)[start:]
        return obs.reshape(count, self.d)

    def get(self, i: int) -> np.ndarray:
        """Single observation at index i, shape (d,)."""
        return self.batch(i, 1)[0]


def digit_source(seed: int, m: int, indicator_a: int | None = None) -> SeriesSource:
    """Uniform iid base-m digits; observations are the symbol values, or the
    0/1 indicator of symbol == indicator_a when it is given."""
    return SeriesSource(kind="iid-digit", d=1, seed=seed, m=m, indicator_a=indicator_a)


def bernoulli_source(seed: int, p: float) -> SeriesSource:
    """Iid Bernoulli(p) observations in {0.0, 1.0}."""
    if not 0.0 < p < 1.0:
        raise UsageError("p must lie strictly inside (0, 1), got %r" % (p,))
    return SeriesSource(kind="iid-bernoulli", d=1, seed=seed, p=p)


def gaussian_source(seed: int, d: int) -> SeriesSource:
    """Iid standard-normal vectors in R^d."""
    return SeriesSource(kind="gaussian", d=d, seed=seed)


def markov_source(spec: MarkovSpec, seed: int) -> SeriesSource:
    """Stationary Markov-chain observable sequence."""
    spec.validate()
    return SeriesSource(kind="markov-chain", d=spec.d, seed=seed, markov=spec)


def file_source(path, m: int, indicator_a: int | None = None) -> SeriesSource:
    """Digit-file ingestion; observations as in digit_source.  The seed field
    is carried for manifests only, the stream is fixed by the file."""
    return SeriesSource(kind="digit-file", d=1, seed=0, m=m, path=str(path),
                        indicator_a=indicator_a)
