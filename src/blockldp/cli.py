"""Command-line surface over sources, analysis, conjugation and experiments.

Exit codes: 0 success, 2 usage errors, 3 domain/data/numerical errors and
out of memory, 4 I/O errors.  A stdout closed by its reader (`blockldp
regime ... | head -1`) is no error: the run exits 0 with nothing on stderr.
Every file-writing run places a JSON manifest next to its outputs recording
the flag values it read and its seeds; outputs are byte-identical across runs
with equal manifests.  Relative --out paths resolve against the BLOCKLDP_OUT
environment variable when it is set; an output that names one of the run's
input files is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._errors import DataError, NumericalError, UsageError
from ._serialize import (fmt_cell, json_safe, make_grid, read_csv_columns,
                         read_json_object, write_csv, write_rows)
from .blockstats import BlockStats, ball_mass, block_means, scgf_values
from .convex import SampledFunction, legendre
from .experiments import (ExperimentConfig, RunRecord, brownian_pipeline, fig1_pipeline,
                          frequency_test)
from .models import (bernoulli_model, digit_indicator_model, gaussian_model,
                     markov_model)
from .regimes import Schedule, classify, find_level_points
from .sources import (MarkovSpec, bernoulli_source, digit_source, file_source,
                      gaussian_source, markov_source, pi_fixture_path)


def _resolve_out(path):
    """Resolve a relative output path against BLOCKLDP_OUT when set."""
    if not os.path.isabs(path):
        base = os.environ.get("BLOCKLDP_OUT")
        if base:
            return os.path.join(base, path)
    return path


def _load_markov_file(path) -> MarkovSpec:
    """Parse a Markov spec file {"P": ..., "phi": ..., "pi"?} into a checked spec."""
    if path is None:
        raise UsageError("a Markov model needs --markov-file")
    doc = read_json_object(path, ("P", "phi", "pi"), "Markov spec")
    if "P" not in doc or "phi" not in doc:
        raise UsageError("Markov spec %s needs both P and phi" % path)
    return MarkovSpec(P=doc["P"], phi=doc["phi"], pi=doc.get("pi"))


def _parse_model(text):
    """Model specifier: digit:m:a, bernoulli:p, gaussian:1 or markov:path."""
    parts = str(text).split(":")
    try:
        if parts[0] == "digit" and len(parts) == 3:
            return digit_indicator_model(int(parts[1]), int(parts[2]))
        if parts[0] == "bernoulli" and len(parts) == 2:
            return bernoulli_model(float(parts[1]))
        if parts == ["gaussian", "1"]:
            return gaussian_model()
        if parts[0] == "markov" and len(parts) >= 2:
            # Paths may contain ':'; only the first separator is structural.
            return markov_model(_load_markov_file(":".join(parts[1:])))
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError("bad model specifier %r: %s" % (text, exc))
    raise UsageError(
        "bad model specifier %r (expected digit:m:a, bernoulli:p, "
        "gaussian:1 or markov:path)" % (text,))


def _parse_grid(text) -> np.ndarray:
    """Grid flag: either lo:hi:step or a comma-separated value list."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("grid %r must be lo:hi:step or v1,v2,..." % text)
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError("grid %r has non-numeric bounds" % text)
        return make_grid(lo, hi, step)
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError("grid %r has non-numeric values" % text)
    if not vals or not all(map(math.isfinite, vals)):
        raise UsageError("grid %r must list one or more finite values" % text)
    return np.asarray(vals, dtype=np.float64)


def _parse_ball(text):
    """--ball flag: the center and the radius, X,EPS."""
    try:
        vals = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise UsageError("--ball %r must be numeric X,EPS" % text)
    if len(vals) != 2 or not all(map(math.isfinite, vals)):
        raise UsageError("--ball %r must be two finite values X,EPS" % text)
    if not vals[1] > 0:
        raise UsageError("ball radius must be > 0")
    return vals


def _build_source(args):
    """Source from --in or --kind flags."""
    infile = getattr(args, "infile", None)
    if infile:
        return file_source(infile, args.m, indicator_a=getattr(args, "a", None))
    kind, seed = args.kind, int(args.seed)
    if kind == "iid-digit":
        return digit_source(seed, args.m, indicator_a=getattr(args, "a", None))
    if kind == "iid-bernoulli":
        return bernoulli_source(seed, args.p)
    if kind == "gaussian":
        return gaussian_source(seed, getattr(args, "d", 1))
    return markov_source(_load_markov_file(args.markov_file), seed)


def _open_run(args, out, *more) -> RunRecord:
    """Open the run of a file-writing command, which writes out, its manifest
    and the paths in more (None is no file) and reads its --in file and a
    chain's --markov-file; RunRecord refuses an output that is a file read."""
    specs = (args.markov_file,) if getattr(args, "kind", None) == "markov" else ()
    return RunRecord(args.command, out + ".manifest.json", tuple(filter(None, (out, *more))),
                     (getattr(args, "infile", None),), specs)


# The source flags that a run from each --kind leaves unread (None: --in, or
# a command without source flags).
_UNREAD = {None: ("kind", "seed", "p", "d", "markov_file"),
           "iid-digit": ("infile", "p", "d", "markov_file"),
           "iid-bernoulli": ("infile", "m", "a", "d", "markov_file"),
           "gaussian": ("infile", "m", "a", "p", "markov_file"),
           "markov": ("infile", "m", "a", "p", "d")}


def _flags(args) -> dict:
    """The flag values a run read: the config its manifest records."""
    unread = ("func", "command") + _UNREAD[getattr(args, "kind", None)]
    return {key: val for key, val in vars(args).items() if key not in unread}


def cmd_gen(args) -> int:
    out = _resolve_out(args.out)
    record = _open_run(args, out)
    count = int(args.count)
    if count < 1:
        raise UsageError("count must be >= 1")
    src = _build_source(args)
    reader = src.reader()
    with open(out, "w", newline="") as fh:
        for values in reader.pieces(count):
            # Digit and Bernoulli values are uint8 and print as integers.
            write_rows(fh, values.tolist(), " ")
    record.write(_flags(args), [src.seed])
    print("wrote %d lines to %s" % (count, out))
    return 0


def cmd_analyze(args) -> int:
    out = _resolve_out(args.out)
    root, ext = os.path.splitext(out)
    ball_out = None if args.ball is None else root + "_ball" + (ext or ".csv")
    record = _open_run(args, out, ball_out)
    if (args.k is None) == (args.c is None):
        raise UsageError("exactly one of --k and --c is required")
    n = int(args.n)
    if n < 1:
        raise UsageError("n must be >= 1")
    k = int(args.k) if args.k is not None else Schedule(float(args.c)).k(n)
    src = _build_source(args)
    if src.d != 1:
        raise UsageError("analyze needs a scalar source; this one has d=%d" % src.d)
    lam = _parse_grid(args.lambda_grid)
    ball = None if args.ball is None else _parse_ball(args.ball)
    stats = block_means(src, n, k)
    values = scgf_values(stats, lam)
    write_csv(out, ["lambda", "value"], zip(lam, values))
    if ball is not None:
        center, eps = ball
        _, mass = ball_mass(stats, center, eps)
        write_csv(ball_out, ["x", "mass"], [(center, mass)])
    record.write(_flags(args), [src.seed])
    print("wrote %s (n=%d, k=%d, %d tilt points)" % (out, n, k, lam.size))
    return 0


def cmd_legendre(args) -> int:
    out = _resolve_out(args.out)
    record = _open_run(args, out)
    cols = read_csv_columns(args.infile, ["lambda", "value"])
    grid = cols["lambda"]
    if grid.size >= 2 and not np.all(np.diff(grid) > 0):
        raise DataError("input lambda column must be strictly increasing")
    res = legendre(SampledFunction(grid=grid, values=cols["value"]),
                   _parse_grid(args.x_grid))
    write_csv(out, ["x", "value", "argmax_lambda", "boundary"],
              zip(res.xs, res.values, res.argmax, res.boundary))
    record.write(_flags(args))
    print("wrote %s (%d conjugate points)" % (out, res.xs.size))
    return 0


def cmd_regime(args) -> int:
    model = _parse_model(args.model)
    lambda0 = float(args.lambda0)
    report = classify(model, lambda0, args.c)
    # The level points lambda1 <= 0 <= lambda2 solve lambda L'(lambda) - L(lambda)
    # = threshold, or 0 where rounding leaves it just below; they bracket the
    # tilts, their slopes x1 <= x2 the means.  A side not attained within the
    # bracket stays open, as in classify: its lambda is -inf or +inf, its x null.
    lam1, lam2 = find_level_points(model, max(report.threshold, 0.0))
    x1, x2 = (float(model.grad(lam)) if math.isfinite(lam) else None for lam in (lam1, lam2))
    doc = {"model": model.name, "regime": report.regime,
           "lambda0": report.lambda0, "x0": report.x0,
           "threshold": report.threshold, "c": report.c,
           "lambda1": lam1, "lambda2": lam2, "x1": x1, "x2": x2,
           "prediction": report.prediction}
    print(json.dumps(json_safe(doc), indent=2, sort_keys=True))
    return 0


def cmd_fig1(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    cfg.out_dir = _resolve_out(cfg.out_dir)
    res = fig1_pipeline(cfg, config_file=args.config)
    print("fig1: c=%.9f, %d runs, %d files, manifest %s"
          % (res.c, len(res.runs), len(res.files), res.manifest_path))
    return 0


def cmd_brownian(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    cfg.out_dir = _resolve_out(cfg.out_dir)
    res = brownian_pipeline(cfg, config_file=args.config)
    print("wrote %s (%d rows)" % (res.files[0], len(res.rows)))
    return 0


def cmd_freq(args) -> int:
    out = None if args.out is None else _resolve_out(args.out)
    record = None if out is None else _open_run(args, out)
    res = frequency_test(file_source(args.infile, args.m), args.n0, args.count)
    if record is not None:
        write_csv(out, ["word", "count", "freq"], zip(res.words, res.counts, res.freqs))
        record.write(_flags(args))
    doc = {"m": res.m, "n0": res.n0, "N": res.N, "windows": res.windows,
           "uniform": args.m ** (-float(args.n0)), "max_dev": res.max_dev}
    print(json.dumps(json_safe(doc), indent=2, sort_keys=True))
    return 0


# Worked examples, one or two per layer; every check is one expression that
# is true when the layer works.  tests/ holds the full suite.
SELFTESTS = [
    ("digit stream of seed 7 is frozen",
     lambda: digit_source(7, 10).reader().read(8)[:, 0].tolist() == [7, 4, 6, 3, 4, 5, 8, 2]),
    ("empirical SCGF of constant blocks is 0 at 0 and linear",
     lambda: np.allclose(scgf_values(block_means(markov_source(
         MarkovSpec(P=[[1.0]], phi=[2.5]), 1), 4, 3), np.array([0.0, 0.3])),
         [0.0, 0.75], rtol=0.0, atol=1e-12)),
    ("digit-indicator blocks of length 10 reduce to at most 11 weighted means",
     lambda: (st := block_means(digit_source(3, 10, indicator_a=0), 10, 1000))
     .means.shape[0] <= 11 and st.weights.sum() == 1000),
    ("ball mass counts the closed ball",
     lambda: ball_mass(BlockStats(n=1, means=np.array([[0.1], [0.2], [0.3]])),
                       0.2, 0.05) == (1, 1.0 / 3.0)),
    ("Bernoulli(1/2) conjugate at 1 is log 2",
     lambda: abs(bernoulli_model(0.5).conj(1.0) - math.log(2.0)) <= 1e-12),
    ("Markov SCGF is exactly 0 at 0",
     lambda: markov_model(MarkovSpec(P=[[0.9, 0.1], [0.1, 0.9]], phi=[0.0, 1.0]))
     .lam(0.0) == 0.0),
    ("stay-0.9 chain has Lambda'(0) = 1/2 and Lambda''(0) = 9/4",
     lambda: np.allclose([(mdl := markov_model(MarkovSpec(P=[[0.9, 0.1], [0.1, 0.9]],
                                                          phi=[0.0, 1.0]))).grad(0.0),
                          mdl.hess(0.0)], [0.5, 2.25], rtol=0.0, atol=1e-12)),
    ("sampled conjugate of |lambda| on {-1, 0, 1} at x = 1/2 and 2",
     lambda: legendre(SampledFunction(grid=np.array([-1.0, 0.0, 1.0]),
                                      values=np.array([1.0, 0.0, 1.0])), [0.5, 2.0])
     .values.tolist() == [0.0, 1.0]),
    ("level points of the gaussian rate at 1/8 are -1/2 and 1/2 to 2^-52 relative",
     lambda: np.allclose(find_level_points(gaussian_model(), 0.125), (-0.5, 0.5),
                         rtol=2.0 ** -52, atol=0.0)),
    ("gaussian tilt 1 at c = 1/2 is critical with tilted value 3/2 at t = 2",
     lambda: classify(gaussian_model(), 1.0, 0.5).tilted(2.0) == 1.5),
    ("the first 15 digits of pi hold three 5s",
     lambda: frequency_test(file_source(pi_fixture_path(), 10), 1, 15).counts[5] == 3),
    ("CSV cells carry 17 significant digits and the inf sentinel",
     lambda: (fmt_cell(0.1), fmt_cell(np.inf)) == ("1.0000000000000001e-01", "inf")),
    ("grid flags agree in range and list form",
     lambda: _parse_grid("-1:1:0.5").tolist() == _parse_grid("-1,-0.5,0,0.5,1").tolist()),
]


def cmd_selftest(args) -> int:
    """Run the worked-example table; exit 3 on any failure."""
    failures = 0
    for desc, check in SELFTESTS:
        try:
            err = None if check() else "wrong value"
        except Exception as exc:
            err = exc
        if err is None:
            print("ok - %s" % desc)
        else:
            failures += 1
            print("FAIL - %s: %s" % (desc, err))
    if failures:
        print("%d selftest failure(s)" % failures)
        return 3
    print("all selftests passed")
    return 0


def _add_source_flags(p, file_flags: bool) -> None:
    # With file_flags (analyze) the command takes exactly one of --in and
    # --kind, and --a; without them (gen), --d.
    given = p.add_mutually_exclusive_group(required=True) if file_flags else p
    if file_flags:
        given.add_argument("--in", dest="infile", metavar="FILE",
                           help="digit file input (alternative to --kind)")
    given.add_argument("--kind", choices=("iid-digit", "iid-bernoulli",
                                          "gaussian", "markov"),
                       required=not file_flags, help="generated source kind")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--m", type=int, default=10, help="digit base (2..10)")
    if file_flags:
        p.add_argument("--a", type=int, default=None,
                       help="track the 0/1 indicator of this symbol "
                            "instead of raw symbol values")
    p.add_argument("--p", type=float, default=0.5, help="Bernoulli parameter")
    if not file_flags:
        p.add_argument("--d", type=int, default=1, help="gaussian dimension")
    p.add_argument("--markov-file", dest="markov_file", metavar="FILE",
                   help="JSON Markov spec {\"P\": ..., \"phi\": ..., \"pi\"?}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller."""
    parser = argparse.ArgumentParser(
        prog="blockldp",
        description="Block empirical measures, empirical SCGFs and "
                    "schedule-regime diagnostics.")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", help="write a generated observation file")
    _add_source_flags(p, file_flags=False)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze",
                       help="empirical SCGF (and ball mass) of a block sample")
    _add_source_flags(p, file_flags=True)
    p.add_argument("--n", type=int, required=True, help="block length")
    p.add_argument("--k", type=int, default=None, help="block count")
    p.add_argument("--c", type=float, default=None,
                   help="schedule exponent; k = ceil(e^(c n))")
    p.add_argument("--lambda-grid", dest="lambda_grid", default="-6:6:0.01",
                   help="lo:hi:step or comma-separated tilt values")
    p.add_argument("--ball", default=None, metavar="X,EPS",
                   help="also report the mass of the closed ball B(x, eps)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("legendre",
                       help="convex conjugate of a sampled lambda,value CSV")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--x-grid", dest="x_grid", default="0.001:0.999:0.001",
                   help="lo:hi:step or comma-separated slope values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_legendre)

    p = sub.add_parser("regime",
                       help="JSON regime report with level points")
    p.add_argument("--model", required=True,
                   help="digit:m:a, bernoulli:p, gaussian:1 or markov:path")
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--c", type=float, default=None,
                   help="schedule exponent; defaults to the critical threshold")
    p.set_defaults(func=cmd_regime)

    p = sub.add_parser("fig1", help="digit-experiment pipeline from a config")
    p.add_argument("--config", required=True, metavar="FILE")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("brownian",
                       help="gaussian ball-mass experiment from a config")
    p.add_argument("--config", required=True, metavar="FILE")
    p.set_defaults(func=cmd_brownian)

    p = sub.add_parser("freq", help="word-frequency table of a digit file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--n0", type=int, default=1, help="word length (1..4)")
    p.add_argument("--count", type=int, default=None,
                   help="number of symbols to use (default: whole file)")
    p.add_argument("--out", default=None,
                   help="optional word,count,freq CSV")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("selftest", help="run the built-in example suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # The reader has what it wanted; stdout now points at the null device,
        # so the interpreter's exit flush of the unwritten rest stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (DataError, NumericalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
