"""Seeded end-to-end and per-layer benchmark of blockldp.

Run from the repository root:

    python3 bench/run.py --workload fig1-digit --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for what each stresses): fig1-digit,
brownian-gauss, markov-regime, file-cli; "--workload all" runs the four in
turn.  The workload seed picks every input;
seed 1 is the documented default for baselines, and seed 104729 is held out
for checking a later claim on inputs nobody tuned against.

Each run of the workload happens in a fresh worker process (closed loop, one
client: the next run starts when the previous one exits) until --seconds of
runs have passed.  Workers run with one BLAS/OpenMP thread.

--trace 0 reports the end-to-end metrics (medians over the runs):
    wall_s       timed region, first library call to last output written
    obs_per_s    observations reduced into block means or word counts / wall_s
    peak_rss_mb  peak resident memory of the worker (ru_maxrss)
    setup_s      worker spawn until interpreter, numpy, scipy and blockldp are
                 imported and the workload inputs are built
--trace 1 alternates untraced and traced runs and reports per-layer metrics
from the traced ones (self times from span wrappers around every public
function of each module; counters computed from arguments, results and file
sizes) plus the tracing overhead, traced minus untraced median wall_s.

Every run's outputs go through the correctness gate in oracle.py: the first
run is compared with a reference recomputed independently of the library,
and every later run must reproduce its CSV bytes and manifests (wallclock
removed).  A run that raises, exits non-zero or fails the gate is counted in
"failed".  The last stdout line is the result JSON; the line before it is a
report with every metric, the per-span self times and the machine facts.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from oracle import Gate  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_RUNS = 3
DEADLINE_S = 150.0      # no run starts later than this after the start
EXIT_BY_S = 170.0       # a run still going at this point is killed

END_TO_END = {"wall_s": "s", "obs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "sources.self_s": "s", "sources.ns_per_obs": "ns", "sources.calls": "count",
    "sources.obs": "count", "sources.replay_ratio": "ratio",
    "blockstats.self_s": "s", "blockstats.block_means_self_s": "s",
    "blockstats.blocks": "count", "blockstats.scgf_cells": "count",
    "blockstats.distinct_ratio": "ratio",
    "convex.legendre_cells": "count",
    "models.lam_points": "count", "models.grad_points": "count",
    "models.conj_points": "count",
    "regimes.classify_calls": "count",
    "experiments.self_s": "s",
    "serialize.self_s": "s", "serialize.files_written": "count",
    "serialize.bytes_written": "B", "serialize.checksum_bytes": "B",
    "bench.glue_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


# Per-layer counters computed from call arguments, results and file sizes
# after the timed region; they repeat exactly from run to run.
COMPUTED = [k for k, u in PER_LAYER.items() if u in ("count", "B", "ratio")]


def machine_facts(root: str, env: dict) -> dict:
    import importlib.metadata

    import numpy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": importlib.metadata.version("scipy"),
             "threads": {v: env.get(v) for v in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(idx + "/level") as a, open(idx + "/type") as b, \
                    open(idx + "/size") as c:
                level, kind, size = a.read().strip(), b.read().strip(), c.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["L%s_%s" % (level, kind.lower())] = size
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        facts["git_commit"] = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "blockldp", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    facts["source_sha256"] = h.hexdigest()
    return facts


def spawn(args, src: str, out: str, inputs: dict, traced: bool, env: dict,
          timeout: float = EXIT_BY_S):
    """Run the worker once; returns (result dict or None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--size", args.size,
           "--seed", str(args.seed), "--out", out, "--src", src,
           "--trace", "1" if traced else "0", "--inputs", json.dumps(inputs)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "worker timed out after %.0f s" % timeout
    if proc.returncode != 0:
        return None, "worker exited %d: %s" % (proc.returncode, proc.stderr[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "worker printed no result: %s" % proc.stdout[-500:]


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics of one traced run."""
    by_layer: dict = {}
    for name, s in res["self_s"].items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    c = res["counters"]
    m = {"sources.self_s": by_layer.get("sources", 0.0),
         "blockstats.self_s": by_layer.get("blockstats", 0.0),
         "experiments.self_s": by_layer.get("experiments", 0.0),
         "serialize.self_s": by_layer.get("_serialize", 0.0),
         "blockstats.block_means_self_s": res["self_s"].get("blockstats.block_means", 0.0),
         "bench.glue_s": res["wall_s"] - res["spans_s"],
         "trace.wall_s": res["wall_s"]}
    m["sources.ns_per_obs"] = 1e9 * m["sources.self_s"] / max(1, c["sources.obs"])
    m["sources.replay_ratio"] = c["sources.generated"] / max(1, c["sources.obs"])
    m["blockstats.distinct_ratio"] = c["blockstats.distinct"] / max(1, c["blockstats.blocks"])
    m.update({k: c[k] for k in COMPUTED if k in c})
    m["layers_self_s"] = dict(sorted(by_layer.items()))
    m["spans_self_s"] = dict(sorted(res["self_s"].items()))
    return m


def seed_commit_record(args):
    """Input and output sha256 of this workload and seed at the seed commit,
    if recorded (seed_commit.json)."""
    with open(os.path.join(HERE, "seed_commit.json")) as fh:
        doc = json.load(fh)
    return doc["runs"].get("%s/%s/%d" % (args.workload, args.size, args.seed))


def summarize(values):
    values = sorted(values)
    return {"median": statistics.median(values), "min": values[0],
            "max": values[-1], "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.SETUP) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    # SystemExit makes subprocess.run kill the running worker before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload != "all":
        return run_workload(args)
    codes = []
    for name in sorted(workloads.SETUP):
        args.workload = name
        codes.append(run_workload(args))
    return max(codes)


def run_workload(args) -> int:
    started = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blockldp", "__init__.py")):
        print("error: %s/blockldp not found; run from the repository root" % src,
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", "%s-%s" % (args.workload, args.size))
    out = os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env.pop("BLOCKLDP_OUT", None)
    env.update({v: "1" for v in THREAD_VARS})

    p = workloads.PARAMS[args.workload][args.size]
    t = time.monotonic()
    inputs = workloads.prepare(args.workload, p, args.seed, work)
    recorded = seed_commit_record(args)
    if recorded and recorded.get("input_sha256") != inputs.get("sha256"):
        print("error: input sha256 %s differs from the recorded %s"
              % (inputs.get("sha256"), recorded.get("input_sha256")), file=sys.stderr)
        return 1
    ref = workloads.REFERENCE[args.workload](p, args.seed, inputs)
    reference_s = time.monotonic() - t
    obs = workloads.observations(args.workload, p, ref)

    runs, traced_runs, failures, elapsed = [], [], [], []
    verified = None
    # Start another run while it is expected to end within --seconds.
    while time.monotonic() - started < DEADLINE_S and (
            len(elapsed) < MIN_RUNS
            or sum(elapsed) + statistics.median(elapsed) <= args.seconds):
        traced = bool(args.trace) and len(elapsed) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        t = time.monotonic()
        try:
            workloads.verify_inputs(inputs)
        except (OSError, RuntimeError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        res, err = spawn(args, src, out, inputs, traced, env,
                         timeout=started + EXIT_BY_S - time.monotonic())
        elapsed.append(time.monotonic() - t)
        if res is None:
            failures.append(err)
            continue
        (traced_runs if traced else runs).append(res)
        if verified is None:
            gate = Gate()
            try:
                workloads.CHECK[args.workload](p, out, ref, gate)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                gate.fail("unreadable output: %r" % (exc,))
            if gate.failures:
                failures.append("gate: " + "; ".join(gate.failures[:5]))
                continue
            verified = res["files"]
        elif res["files"] != verified:
            diff = sorted(k for k in set(verified) | set(res["files"])
                          if verified.get(k) != res["files"].get(k))
            failures.append("outputs differ from the first run: %s" % ", ".join(diff))

    if not runs or (args.trace and not traced_runs):
        print("error: no run of %s completed; %s" % (args.workload, failures[:3]),
              file=sys.stderr)
        return 1

    wall = summarize([r["wall_s"] for r in runs])
    metrics = {"wall_s": wall["median"], "obs_per_s": obs / wall["median"],
               "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
               "setup_s": statistics.median(r["setup_s"] for r in runs + traced_runs)}
    attempted = len(elapsed)
    report = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "observations": obs, "attempted": attempted,
              "failed": len(failures), "fail_ratio": len(failures) / attempted,
              "failures": failures, "wall_s": wall,
              "setup_s": summarize([r["setup_s"] for r in runs + traced_runs]),
              "reference_s": reference_s, "end_to_end": metrics,
              "input_sha256": inputs.get("sha256"), "outputs": verified,
              "seed_commit": ("not recorded" if not recorded or verified is None
                              else "identical" if recorded["outputs"] == verified
                              else sorted(k for k in set(verified) | set(recorded["outputs"])
                                          if verified.get(k) != recorded["outputs"].get(k))),
              "machine": machine_facts(root, env)}
    if args.trace:
        layers = [layer_metrics(r) for r in traced_runs]
        per_layer = {k: statistics.median_low(m[k] for m in layers) for k in PER_LAYER
                     if k != "trace.overhead_s"}
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - wall["median"]
        report["per_layer"] = per_layer
        report["computed_counters"] = COMPUTED
        if any(r["counters"] != traced_runs[0]["counters"] for r in traced_runs):
            failures.append("computed counters differ between runs")
        # The traced run with the median wall time, broken down by layer and
        # span: its layer self times plus the glue add up to its wall time.
        mid = sorted(layers, key=lambda m: m["trace.wall_s"])[(len(layers) - 1) // 2]
        report["traced_run"] = {k: mid[k] for k in ("trace.wall_s", "bench.glue_s",
                                                    "layers_self_s", "spans_self_s")}
        chosen, units = per_layer, PER_LAYER
    else:
        chosen, units = metrics, END_TO_END
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": chosen[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
