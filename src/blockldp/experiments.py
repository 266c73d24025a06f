"""End-to-end experiment pipelines with CSV outputs and run manifests.

Pipelines never bypass the library layers: sources feed block_means, the
empirical SCGF and its conjugate come from blockstats/convex, and regime
predictions from regimes.  Every run writes a manifest sufficient to re-run
it bit-exactly; CSV bytes are identical across re-runs with equal manifests.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from ._errors import DataError, NumericalError, UsageError, fmt_int
from ._serialize import (_sha256, fmt_cell, grid_spec, json_safe, make_grid,
                         read_json_object, write_csv)
from .blockstats import _ball_rate, ball_mass, block_means, scgf_values
from .convex import ConjugateResult, SampledFunction, grad_estimate, legendre
from .models import ScgfModel, digit_indicator_model
from .regimes import RegimeReport, Schedule, classify, rate_along
from .sources import SeriesSource, digit_source, file_source, gaussian_source


@dataclass
class ExperimentConfig:
    """Declarative description of an experiment run.

    Grids are (lo, hi, step) triples realized as lo + step*arange(count);
    manifests echo them as (lo, step, count) so they regenerate exactly.
    The observation budget enforces n * k(n) <= budget for every n before
    any computation starts.
    """

    kind: str = "iid-digit"
    m: int = 10
    a: int = 0
    d: int = 1
    path: str | None = None
    lambda0: float | None = None
    c: float | None = None
    gamma: float | None = None
    n_list: tuple = (150,)
    seeds: tuple = (1, 2, 3)
    lambda_grid: tuple = (-6.0, 6.0, 0.01)
    x_grid: tuple = (0.001, 0.999, 0.001)
    budget: float = 1e6
    out_dir: str = "."
    R: float | None = None
    x_list: tuple = ()
    eps: float | None = None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """The config in the JSON file at path; a file that is not a UTF-8 JSON
        object, an unknown key or a value of the wrong type raises UsageError."""
        cfg = cls(**read_json_object(path, {f.name for f in fields(cls)}, "config"))

        def number(v):
            return isinstance(v, (int, float)) and not isinstance(v, bool)

        def list_of(ok):
            return lambda v: isinstance(v, (list, tuple)) and all(map(ok, v))

        for what, ok, keys in (
                ("a number", number,
                 ("m", "a", "d", "lambda0", "c", "gamma", "budget", "R", "eps")),
                ("a string", lambda v: isinstance(v, str), ("kind", "out_dir", "path")),
                ("three numbers lo, hi, step", lambda v: list_of(number)(v) and len(v) == 3,
                 ("lambda_grid", "x_grid")),
                ("a nonempty list of integers",
                 lambda v: list_of(lambda u: number(u) and isinstance(u, int))(v) and len(v) > 0,
                 ("n_list", "seeds")),
                ("a list of numbers or number lists",
                 list_of(lambda u: number(u) or list_of(number)(u)), ("x_list",))):
            for key in keys:
                val = getattr(cfg, key)
                # null is accepted exactly where the default is None.
                if not (ok(val) or val is None and getattr(cls, key) is None):
                    raise UsageError("config %s: %s must be %s, got %r"
                                     % (path, key, what, val))
        cfg.lambda_grid, cfg.x_grid = (tuple(map(float, g))
                                       for g in (cfg.lambda_grid, cfg.x_grid))
        cfg.n_list, cfg.seeds = tuple(cfg.n_list), tuple(cfg.seeds)
        cfg.x_list = tuple(tuple(map(float, v)) if isinstance(v, (list, tuple))
                           else float(v) for v in cfg.x_list)
        return cfg

    def check_reads(self, pipeline: str, kinds, unread) -> dict:
        """The config echo of a run of pipeline: every key but those in unread.

        Raises UsageError unless kind is one of kinds and every key in unread
        keeps its default, so a key the pipeline ignores is neither set nor
        recorded."""
        if self.kind not in kinds:
            raise UsageError("config kind %r: %s needs %s"
                             % (self.kind, pipeline, " or ".join(kinds)))
        keys = ", ".join(k for k in unread if getattr(self, k) != getattr(type(self), k))
        if keys:
            raise UsageError("config sets %s, which %s does not read; leave %s unset"
                             % (keys, pipeline, keys))
        return {k: v for k, v in asdict(self).items() if k not in unread}

    def block_counts(self, schedule: Schedule) -> dict:
        """{n: k(n)} for every n in n_list, after checking n * k(n) <= budget."""
        ks = {}
        for n in self.n_list:
            ks[n] = schedule.k(n)
            if not n * ks[n] <= self.budget:  # a NaN budget fails too
                raise UsageError(
                    "budget violation: n=%s needs n*k=%s > %g observations"
                    % (fmt_int(n), fmt_int(n * ks[n]), self.budget))
        return ks


@dataclass
class RunManifest:
    """Everything needed to re-run an experiment bit-exactly."""

    command: str
    config: dict
    seeds: list
    files: list
    library_version: str = field(init=False, default=__version__)
    wallclock_s: float = 0.0
    input_checksums: dict = field(default_factory=dict)

    def write(self, path) -> str:
        doc = dict(asdict(self), files=sorted(os.path.basename(f) for f in self.files))
        with open(path, "w", newline="") as fh:
            json.dump(json_safe(doc), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return str(path)


@dataclass
class RunRecord:
    """A run, opened before it reads or writes anything: the one start of its
    clock.  It is given the manifest and outputs the run writes and the files
    it reads (inputs, specs such as a chain's, and a pipeline's config file;
    None is no file), and raises UsageError when the manifest or an output
    is, after symlinks, a file the run reads.  write() writes the manifest,
    listing the outputs: a run fed by files records seeds [] and the sha256
    of each input keyed by basename, a generated run its seeds and the sha256
    of each spec it read; the config file is not hashed.

    The inputs and specs are hashed on one daemon thread started here, while
    the run computes; write() joins it and re-raises its first error (an
    OSError exits 4)."""

    command: str
    manifest: str
    outputs: tuple = ()
    inputs: tuple = ()
    specs: tuple = ()
    config_file: str | None = None
    started: float = field(init=False, default_factory=time.monotonic)

    def __post_init__(self):
        self._digests = dict.fromkeys(p for p in (*self.inputs, *self.specs) if p)
        self._helper = None
        if reads := set(map(os.path.realpath, filter(None, (*self._digests, self.config_file)))):
            for path in (*self.outputs, self.manifest):
                if os.path.realpath(path) in reads:
                    raise UsageError("output %s is an input of this run" % path)
        if self._digests:
            self._helper = threading.Thread(target=self._hash, daemon=True)
            self._helper.start()

    def _hash(self):
        # Only private functions run on this thread, so a tracer that wraps
        # the public ones sees the run's own thread alone.
        for path in self._digests:
            try:
                self._digests[path] = _sha256(path)
            except Exception as exc:
                self._digests[path] = exc

    def write(self, config: dict, seeds=()) -> str:
        if self._helper is not None:
            self._helper.join()
        for digest in self._digests.values():
            if isinstance(digest, Exception):
                raise digest
        return RunManifest(
            command=self.command, config=config,
            seeds=[] if any(self.inputs) else list(seeds),
            files=list(self.outputs), wallclock_s=round(time.monotonic() - self.started, 3),
            input_checksums={os.path.basename(p): d for p, d in self._digests.items()},
        ).write(self.manifest)


@dataclass
class Fig1Run:
    """In-memory results of one (n, seed) digit-experiment run."""

    n: int
    k: int
    seed: int
    scgf: SampledFunction
    abs_err: np.ndarray
    conj: ConjugateResult
    grad: SampledFunction
    mean_min: float
    mean_max: float


@dataclass
class Fig1Result:
    c: float
    runs: list
    files: list
    manifest_path: str


def _block_runs(source: SeriesSource, schedule: Schedule, n_list, seeds):
    """(seed, n, k, block_means) for each seed, then each n in n_list as given,
    computed as the returned iterator is read.  Every k(n) and every seeded
    source is built, and so checked, by this call, before the first run."""
    ks = [schedule.k(n) for n in n_list]
    srcs = [replace(source, seed=seed) for seed in seeds]
    return ((src.seed, n, k, block_means(src, n, k)) for src in srcs
            for n, k in zip(n_list, ks))


def fig1_pipeline(config: ExperimentConfig, *, config_file=None) -> Fig1Result:
    """Digit-experiment pipeline: empirical SCGF, error, conjugate, slope range.

    The source yields base-m symbols (counter-based generator or digit file);
    the observable is the 0/1 indicator of symbol a.  The schedule is
    critical at lambda0: c = Lambda*(Lambda'(lambda0)), so a config that
    sets c (or d, gamma, R, x_list or eps), seeds for a digit file (its one
    run is seed 0) or path for generated digits raises UsageError, and the
    manifest's config echo leaves those keys out.  For each
    n and seed it emits CSVs of the empirical SCGF on the lambda grid, its absolute
    error against the model, the numerical conjugate on the x grid and the
    derivative estimate, plus a summary of the attained-mean intervals
    [min_j mean_j, max_j mean_j] and a manifest.  The model's level set
    {I <= c} = [x1, x2] is the n -> infinity limit of that interval; at desk
    sizes the attained interval sits O(log n / n) inside it, because the
    polynomial prefactor of the binomial tail keeps the extreme block sums
    short of n*x1 and n*x2 (base-10 digits at lambda0 = 0.8, n = 150,
    k = 633: E[max sum] = 27.5 against 150*x2 = 29.7).  config_file is the
    file config was read from (None for one built in code); no output may be it.
    """
    echo = config.check_reads("fig1", ("iid-digit", "digit-file"),
                              ("d", "c", "gamma", "R", "x_list", "eps",
                               "seeds" if config.kind == "digit-file" else "path"))
    model = digit_indicator_model(config.m, config.a)
    lambda0 = 0.8 if config.lambda0 is None else float(config.lambda0)
    c = rate_along(model, lambda0)
    schedule = Schedule(c)
    ks = config.block_counts(schedule)
    lam_grid = make_grid(*config.lambda_grid)
    x_grid = make_grid(*config.x_grid)
    if config.kind == "digit-file":
        base, seeds = file_source(config.path, config.m, indicator_a=config.a), (0,)
    else:
        base, seeds = digit_source(0, config.m, indicator_a=config.a), config.seeds
    block_runs = _block_runs(base, schedule, config.n_list, seeds)

    def csv_path(stem, n, seed):
        return os.path.join(config.out_dir, "%s_n%d_s%d.csv" % (stem, n, seed))

    record = RunRecord("fig1", os.path.join(config.out_dir, "manifest.json"),
                       (*(csv_path(stem, n, seed) for seed in seeds for n in config.n_list
                          for stem in ("scgf", "abserr", "conj", "grad")),
                        os.path.join(config.out_dir, "summary.csv")), (config.path,),
                       config_file=config_file)
    os.makedirs(config.out_dir, exist_ok=True)
    # The grid columns and the model row repeat in every run: compute them once.
    lam_cells, x_cells = (list(map(fmt_cell, grid)) for grid in (lam_grid, x_grid))
    truth = model.lam(lam_grid)
    runs = []
    summary_rows = []
    for seed, n, k, stats in block_runs:
        scgf = SampledFunction(grid=lam_grid, values=scgf_values(stats, lam_grid))
        abs_err = np.abs(scgf.values - truth)
        conj = legendre(scgf, x_grid)
        grad = grad_estimate(scgf)
        mean_min = float(stats.means.min())
        mean_max = float(stats.means.max())
        for stem, header, cols in (
                ("scgf", ["lambda", "value"], (lam_cells, scgf.values)),
                ("abserr", ["lambda", "abs_error"], (lam_cells, abs_err)),
                ("conj", ["x", "value", "argmax_lambda", "boundary"],
                 (x_cells, conj.values, conj.argmax, conj.boundary)),
                ("grad", ["lambda", "derivative"], (lam_cells, grad.values))):
            write_csv(csv_path(stem, n, seed), header, zip(*cols))
        summary_rows.append((n, seed, k, mean_min, mean_max))
        runs.append(Fig1Run(n=n, k=k, seed=seed, scgf=scgf, abs_err=abs_err,
                            conj=conj, grad=grad, mean_min=mean_min,
                            mean_max=mean_max))
    write_csv(record.outputs[-1], ["n", "seed", "k", "mean_min", "mean_max"], summary_rows)
    echo.update(c=c, k_by_n={str(n): ks[n] for n in config.n_list},
                lambda_grid=grid_spec(lam_grid[0], config.lambda_grid[2], len(lam_grid)),
                x_grid=grid_spec(x_grid[0], config.x_grid[2], len(x_grid)),
                grid_note="lambda/x grids and n spacing are reconstructions")
    return Fig1Result(c=c, runs=runs, files=list(record.outputs),
                      manifest_path=record.write(echo, seeds))


@dataclass
class RegimeEvidence:
    """Per-regime evidence table produced by regime_experiment."""

    report: RegimeReport
    columns: list
    rows: list


def regime_experiment(model: ScgfModel, source: SeriesSource, lambda0: float,
                      c: float, n_list, seeds, eps: float | None = None) -> RegimeEvidence:
    """Collect the evidence matching the regime of (lambda0, c).

    supercritical: rows (n, seed, k, sup_error) with the sup of
        |empirical - model| over the window [lambda0 - 0.2, lambda0 + 0.2]
        sampled at step 0.01;
    subcritical: rows (n, seed, k, count, mass) for the ball
        B(x0, eps) at x0 = Lambda'(lambda0) (eps is required);
    critical: rows (n, seed, k, t, empirical, predicted, abs_error) for the
        tilts t*lambda0, t in {1, 1.5, 2}, against the affine continuation.
        `predicted` is the n -> infinity limit; at desk sizes the empirical
        values sit O(log n / n) below it, since the largest block mean falls
        about log(n)/n short of x2 = Lambda'(lambda0).

    The source is re-derived with each seed; k(n) = ceil(e^{c n}).
    """
    report = classify(model, lambda0, c)
    if report.regime == "supercritical":
        window = make_grid(lambda0 - 0.2, lambda0 + 0.2, 0.01)
        truth = model.lam(window)
        columns = ["n", "seed", "k", "sup_error"]

        def tails(stats):
            return [(float(np.max(np.abs(scgf_values(stats, window) - truth))),)]
    elif report.regime == "subcritical":
        if eps is None:
            raise UsageError("subcritical evidence needs the ball radius eps")
        columns = ["n", "seed", "k", "count", "mass"]

        def tails(stats):
            return [ball_mass(stats, report.x0, eps)]
    else:
        if lambda0 == 0.0:
            raise UsageError("tilted evidence needs lambda0 != 0")
        ts = (1.0, 1.5, 2.0)
        preds = [report.tilted(t) for t in ts]
        tilts = np.array([t * lambda0 for t in ts])
        columns = ["n", "seed", "k", "t", "empirical", "predicted", "abs_error"]

        def tails(stats):
            return [(t, emp, pred, abs(emp - pred))
                    for t, emp, pred in zip(ts, scgf_values(stats, tilts).tolist(), preds)]
    rows = [(n, seed, k) + tuple(tail)
            for seed, n, k, stats in _block_runs(source, Schedule(c), n_list, seeds)
            for tail in tails(stats)]
    return RegimeEvidence(report=report, columns=columns, rows=rows)


@dataclass
class BrownianResult:
    """Ball-mass and local-rate table for Gaussian block increments; from
    brownian_pipeline, also the files it wrote and its manifest's path."""

    columns: list
    rows: list
    files: list = field(default_factory=list)
    manifest_path: str | None = None


def brownian_experiment(d: int, R: float, schedule: Schedule, n_list, x_list,
                        eps: float, seeds) -> BrownianResult:
    """Empirical ball masses of Gaussian block means against the exact law.

    Block means of iid standard normals are N(0, 1/n) per coordinate, so in
    d=1 the mass of B(x, eps), even in x, has the exact oracle
    Q((|x|-eps) sqrt(n)) - Q((|x|+eps) sqrt(n)) with the upper tail
    Q(z) = erfc(z/sqrt(2))/2: a difference of tails keeps its relative
    accuracy far out, and a mass that underflows to 0 raises NumericalError.
    Rows carry the empirical mass, the local rate, the oracle and the
    relative error (oracle columns are NaN for d > 1).  margin_ok reports
    the schedule margin condition c > (1 + sqrt(eps_n)) R^2 / 2, with
    eps_n = 0 when the schedule carries no gamma.  Every center must satisfy
    |x| + eps <= R.
    """
    source = gaussian_source(0, d)
    if not eps > 0:
        raise UsageError("ball radius must be > 0")
    xs = [np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in x_list]
    for x in xs:
        if x.shape != (d,):
            raise UsageError("ball centers must have dimension %d" % d)
        if not float(np.linalg.norm(x)) + eps <= R:  # NaN in x or R fails too
            raise UsageError("center %s violates |x| + eps <= R = %r" % (fmt_cell(x), R))
    columns = ["n", "seed", "x", "k", "count", "mass", "local_rate",
               "oracle_mass", "oracle_rate", "rel_err", "margin_ok"]
    rows = []
    for seed, n, k, stats in _block_runs(source, schedule, n_list, seeds):
        eps_n = schedule.eps_n(n) if schedule.gamma is not None else 0.0
        margin_ok = schedule.c > (1.0 + math.sqrt(eps_n)) * R * R / 2.0
        for x in xs:
            count, mass = ball_mass(stats, x, eps)
            rate = _ball_rate(count, mass, stats.n)
            if d == 1:
                x0 = float(x[0])
                s, a = math.sqrt(n / 2.0), abs(x0)
                oracle = 0.5 * (math.erfc((a - eps) * s) - math.erfc((a + eps) * s))
                if oracle == 0.0:
                    raise NumericalError("the oracle mass of B(%r, %r) underflows at "
                                         "n=%d" % (x0, eps, n))
                oracle_rate = -math.log(oracle) / n
                rel = abs(mass - oracle) / oracle
                xcell = x0
            else:
                oracle = oracle_rate = rel = float("nan")
                xcell = fmt_cell(x)
            rows.append((n, seed, xcell, k, count, mass, rate, oracle,
                         oracle_rate, rel, margin_ok))
    return BrownianResult(columns=columns, rows=rows)


def brownian_pipeline(config: ExperimentConfig, *, config_file=None) -> BrownianResult:
    """brownian_experiment on a gaussian config, written to out_dir as brownian.csv
    with a manifest.  The config needs c, eps, R and a nonempty x_list and keeps
    its n * k(n) within budget; config_file is as in fig1_pipeline."""
    echo = config.check_reads("brownian", ("gaussian",),
                              ("m", "a", "path", "lambda0", "lambda_grid", "x_grid"))
    for name in ("c", "eps", "R"):
        if getattr(config, name) is None:
            raise UsageError("brownian config needs %r" % name)
    if not config.x_list:
        raise UsageError("brownian config needs a nonempty x_list")
    schedule = Schedule(config.c, config.gamma)
    config.block_counts(schedule)
    out = os.path.join(config.out_dir, "brownian.csv")
    record = RunRecord("brownian", os.path.join(config.out_dir, "manifest.json"), (out,),
                       config_file=config_file)
    res = brownian_experiment(config.d, config.R, schedule, config.n_list, config.x_list,
                              config.eps, config.seeds)
    os.makedirs(config.out_dir, exist_ok=True)
    write_csv(out, res.columns, res.rows)
    return replace(res, files=[out], manifest_path=record.write(echo, config.seeds))


@dataclass
class FrequencyResult:
    """Sliding-window word frequencies of a base-m symbol stream."""

    m: int
    n0: int
    N: int
    windows: int
    counts: np.ndarray
    freqs: np.ndarray
    max_dev: float

    @property
    def words(self) -> list[str]:
        """The words in code order: words[c] spells c in base m with n0 digits."""
        return list(map("".join, itertools.product("0123456789"[:self.m], repeat=self.n0)))


def frequency_test(source: SeriesSource, n0: int, N: int | None = None) -> FrequencyResult:
    """Frequencies of all length-n0 words over sliding windows vs m^-n0.

    The base m is the source's, and its raw symbols are read even when it
    carries an indicator.  Counts every window i = 0..N-n0 of the
    first N symbols and reports the per-word frequency table and the maximum
    deviation from the uniform m^-n0, the normality diagnostic.  N=None uses
    every symbol of a digit-file source; other sources need N.  The symbols
    stream through one reader's pieces, so memory stays flat in N.
    """
    if not 1 <= n0 <= 4:
        raise UsageError("word length n0 must lie in [1, 4]")
    if source.kind not in ("iid-digit", "digit-file"):
        raise UsageError("frequency test needs a base-m symbol source")
    m = source.m
    if m ** n0 > 10000:
        raise UsageError("word alphabet m^n0 must not exceed 1e4")
    if N is None and source.kind != "digit-file":
        raise UsageError("N may be omitted only for a digit-file source")
    if N is not None and N < n0:
        raise UsageError("N=%d symbols hold no window of length n0=%d" % (N, n0))
    reader = replace(source, indicator_a=None).reader()
    counts = np.zeros(m ** n0, dtype=np.int64)
    # syms keeps the n0 - 1 symbols before the fresh ones: no window is lost at a split.
    # Symbols and codes are uint16, which holds every code below m^n0 <= 1e4,
    # so each Horner step adds like types.
    syms = np.zeros(0, dtype=np.uint16)
    for fresh in reader.pieces(N):
        syms = np.concatenate([syms[max(0, syms.size - n0 + 1):], fresh[:, 0]],
                              dtype=np.uint16)
        windows = max(syms.size - n0 + 1, 0)
        codes = syms[:windows].copy()
        for t in range(1, n0):
            codes *= np.uint16(m)
            codes += syms[t : windows + t]
        counts += np.bincount(codes, minlength=m ** n0)
    if reader.pos < (N or n0):
        raise DataError("need at least %d symbols (n0=%d, N=%s), got %d"
                        % (N or n0, n0, N, reader.pos))
    N = reader.pos
    windows = N - n0 + 1
    freqs = counts / windows
    max_dev = float(np.max(np.abs(freqs - m ** (-float(n0)))))
    return FrequencyResult(m=m, n0=n0, N=N, windows=windows, counts=counts,
                           freqs=freqs, max_dev=max_dev)
