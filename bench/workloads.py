"""The four benchmark workloads: sizes, seeds, inputs and timed regions.

Every workload is a closed loop with one client: one fresh worker process
runs the timed region once, and the next run starts after it exits.  The
benchmark seed S picks the inputs; the program only sees those inputs.

fig1-digit
    fig1_pipeline on iid base-10 digits, indicator of 0, lambda0 = 0.8
    (critical c ~ 0.0430), n in (180, 230), seeds (S, S+1, S+2), default
    grids (1201 tilts, 999 x points): 25 CSVs and a manifest.  The paper's
    Figure-1 run; SCGF evaluation and digit generation dominate, and a lattice
    (integer block sum) reduction would show here.
brownian-gauss
    brownian_experiment with d=1, c=0.7, R=1, eps=0.1, n=19 (k=597,196),
    x in (0, 0.25, 0.5), seed S; the rows are written as one CSV and a
    manifest.  Box-Muller generation and the pairwise reduction over many short
    blocks do nearly all the work; no SCGF, no conjugate, continuous
    observable, so SCGF or lattice changes should not move it.
markov-regime
    The two-state chain P=[[.9,.1],[.1,.9]], phi=(0,1), lambda0=0.5,
    threshold Lambda*(x0) ~ 0.0662, through regime_experiment three times
    (critical: c = threshold, n (80, 90), seed S; subcritical: c = 0.6
    threshold, eps 0.05, n (80, 90), seeds S..S+2; supercritical: c =
    threshold + 0.03, n (50, 60), seed S), then the spectral model's lam on
    1201 tilts and conj on 999 points.  The only workload through the Python
    Markov path loop and the spectral model, and the only one reaching all
    three regimes of classify.
file-cli
    An 8M-digit file (80 digits a line) generated from S before any timed
    region, then cli.main three times: analyze (n=100, k=80000,
    lambda -2:2:0.01, ball 0.1,0.05), freq (n0=3, whole file) and legendre
    of the analyze CSV.  The only workload that reads from disk and goes
    through the CLI, its checksums and manifests.

The full sizes are below the paper-scale runs (fig1 at n=(200, 250), brownian
at n=20, Markov at n=(110, 125), 16M digits) so that a 25-second measurement
holds a dozen runs or more, whose median is steadier on a shared 2-core
machine whose speed varies by tens of percent from second to second.  The
"smoke" size keeps every workload's shape at a size that runs in about a
second; the benchmark's own tests use it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

import oracle

DEFAULT_GRIDS = {"lambda_grid": (-6.0, 6.0, 0.01), "x_grid": (0.001, 0.999, 0.001)}
CHAIN = {"P": [[0.9, 0.1], [0.1, 0.9]], "phi": [0.0, 1.0]}


def _three(seed):
    return (seed, seed + 1, seed + 2)


def _regime_runs(crit_n, super_n):
    # (regime, (c multiplier, c offset) on the threshold, n_list, seeds)
    return lambda s: (("critical", (1.0, 0.0), crit_n, (s,)),
                      ("subcritical", (0.6, 0.0), crit_n, _three(s)),
                      ("supercritical", (1.0, 0.03), super_n, (s,)))


PARAMS = {
    "fig1-digit": {
        "full": dict(m=10, a=0, lambda0=0.8, n_list=(180, 230), seeds=_three,
                     **DEFAULT_GRIDS),
        "smoke": dict(m=10, a=0, lambda0=0.8, n_list=(100, 120), seeds=_three,
                      **DEFAULT_GRIDS),
    },
    "brownian-gauss": {
        "full": dict(n=19, c=0.7, R=1.0, eps=0.1, x_list=(0.0, 0.25, 0.5)),
        "smoke": dict(n=12, c=0.7, R=1.0, eps=0.1, x_list=(0.0, 0.25, 0.5)),
    },
    "markov-regime": {
        "full": dict(lambda0=0.5, eps=0.05, runs=_regime_runs((80, 90), (50, 60)),
                     **CHAIN, **DEFAULT_GRIDS),
        "smoke": dict(lambda0=0.5, eps=0.05, runs=_regime_runs((40, 50), (20, 30)),
                      **CHAIN, **DEFAULT_GRIDS),
    },
    "file-cli": {
        "full": dict(symbols=8_000_000, n=100, k=80_000, a=0, n0=3,
                     lambda_grid=(-2.0, 2.0, 0.01), ball=(0.1, 0.05),
                     x_grid=DEFAULT_GRIDS["x_grid"]),
        "smoke": dict(symbols=200_000, n=100, k=2_000, a=0, n0=3,
                      lambda_grid=(-2.0, 2.0, 0.01), ball=(0.1, 0.05),
                      x_grid=DEFAULT_GRIDS["x_grid"]),
    },
}


def observations(workload: str, p: dict, ref: dict) -> int:
    """Observations reduced into block means or word counts in one run
    (sum of n*k, plus N for freq)."""
    if workload == "fig1-digit":
        return len(ref["seeds"]) * sum(n * ref["k"][str(n)] for n in p["n_list"])
    if workload == "brownian-gauss":
        return p["n"] * ref["k"]
    if workload == "markov-regime":
        return sum(len(r["seeds"]) * sum(n * r["k"][str(n)] for n in r["n_list"])
                   for r in ref["runs"])
    return p["n"] * p["k"] + p["symbols"]


# ------------------------------------------------------------------ inputs

def prepare(workload: str, p: dict, seed: int, work: str) -> dict:
    """Build the workload's input files (outside every timed region)."""
    if workload != "file-cli":
        return {}
    sym = oracle.digits(seed, p["symbols"])
    lines = (sym + ord("0")).reshape(-1, 80)
    data = np.hstack([lines, np.full((lines.shape[0], 1), ord("\n"), np.uint8)]).tobytes()
    path = os.path.join(work, "digits_%d.txt" % seed)
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def verify_inputs(inputs: dict) -> None:
    """Check an input file against the sha256 taken when it was written."""
    if not inputs:
        return
    h = hashlib.sha256()
    with open(inputs["path"], "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    if h.hexdigest() != inputs["sha256"]:
        raise RuntimeError("input %s changed: sha256 %s, want %s"
                           % (inputs["path"], h.hexdigest(), inputs["sha256"]))


# ------------------------------------------------------------ timed regions
#
# setup_<workload>(lib, p, seed, out, inputs) builds the inputs inside the
# worker and returns the timed region as a zero-argument function.  `lib`
# holds the package's entry points (traced or not).

def setup_fig1(lib, p, seed, out, inputs):
    cfg = lib.ExperimentConfig(kind="iid-digit", m=p["m"], a=p["a"],
                               lambda0=p["lambda0"], n_list=p["n_list"],
                               seeds=p["seeds"](seed), lambda_grid=p["lambda_grid"],
                               x_grid=p["x_grid"], budget=1e8, out_dir=out)
    return lambda: lib.fig1_pipeline(cfg)


def setup_brownian(lib, p, seed, out, inputs):
    schedule = lib.Schedule(p["c"])

    def run():
        res = lib.brownian_experiment(1, p["R"], schedule, (p["n"],), p["x_list"],
                                      p["eps"], (seed,))
        files = [lib.write_csv(os.path.join(out, "brownian.csv"), res.columns, res.rows)]
        lib.RunManifest(command="brownian", config=dict(p), seeds=[seed],
                        files=files).write(os.path.join(out, "manifest.json"))

    return run


def setup_markov(lib, p, seed, out, inputs):
    spec = lib.MarkovSpec(P=np.array(p["P"]), phi=np.array(p["phi"]))
    lam0 = p["lambda0"]
    lam_grid = oracle.grid(*p["lambda_grid"])
    x_grid = oracle.grid(*p["x_grid"])

    def run():
        model = lib.markov_model(spec)
        threshold = lam0 * model.grad(lam0) - model.lam(lam0)
        source = lib.markov_source(spec, seed)
        files = []
        for _, (cmul, cadd), n_list, seeds in p["runs"](seed):
            ev = lib.regime_experiment(model, source, lam0, cmul * threshold + cadd,
                                       n_list, seeds, p["eps"])
            files.append(lib.write_csv(os.path.join(out, ev.report.regime + ".csv"),
                                       ev.columns, ev.rows))
        files.append(lib.write_csv(os.path.join(out, "lam.csv"), ["lambda", "value"],
                                   zip(lam_grid, model.lam(lam_grid))))
        files.append(lib.write_csv(os.path.join(out, "conj.csv"), ["x", "value"],
                                   zip(x_grid, model.conj(x_grid))))
        lib.RunManifest(command="markov-regime",
                        config={"P": p["P"], "phi": p["phi"], "lambda0": lam0,
                                "threshold": threshold},
                        seeds=list(_three(seed)), files=files
                        ).write(os.path.join(out, "manifest.json"))

    return run


def setup_filecli(lib, p, seed, out, inputs):
    digits = inputs["path"]
    scgf = os.path.join(out, "scgf.csv")
    grid = "%r:%r:%r" % p["lambda_grid"]
    argvs = [
        ["analyze", "--in", digits, "--m", "10", "--a", str(p["a"]), "--n", str(p["n"]),
         "--k", str(p["k"]), "--lambda-grid=" + grid, "--ball", "%r,%r" % p["ball"],
         "--out", scgf],
        ["freq", "--in", digits, "--m", "10", "--n0", str(p["n0"]),
         "--out", os.path.join(out, "words.csv")],
        ["legendre", "--in", scgf, "--x-grid", "%r:%r:%r" % p["x_grid"],
         "--out", os.path.join(out, "conj.csv")],
    ]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            for argv in argvs:
                code = lib.main(argv)
                if code != 0:
                    raise RuntimeError("blockldp %s exited with %d" % (argv[0], code))
        with open(os.path.join(out, "stdout.txt"), "w") as fh:
            fh.write(buf.getvalue())

    return run


SETUP = {"fig1-digit": setup_fig1, "brownian-gauss": setup_brownian,
         "markov-regime": setup_markov, "file-cli": setup_filecli}
REFERENCE = {"fig1-digit": oracle.fig1_reference,
             "brownian-gauss": oracle.brownian_reference,
             "markov-regime": oracle.markov_reference,
             "file-cli": oracle.filecli_reference}
CHECK = {"fig1-digit": oracle.fig1_check, "brownian-gauss": oracle.brownian_check,
         "markov-regime": oracle.markov_check, "file-cli": oracle.filecli_check}
