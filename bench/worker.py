"""One run of one workload in a fresh interpreter.

Invoked by run.py; prints one JSON line: setup and wall time, peak RSS, the
sha256 of every output (manifests with the wallclock entry removed) and, when
traced, per-span self times and counters.  Exits non-zero if the run raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import types


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)  # absolute path of src/
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inputs", default="{}")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, args.src)
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    import blockldp
    from blockldp import _serialize, cli

    if not os.path.abspath(blockldp.__file__).startswith(os.path.abspath(args.src)):
        raise RuntimeError("blockldp imported from %s, not %s"
                           % (blockldp.__file__, args.src))
    import workloads

    lib = types.SimpleNamespace(**{n: getattr(blockldp, n) for n in blockldp.__all__},
                                write_csv=_serialize.write_csv, main=cli.main)
    p = workloads.PARAMS[args.workload][args.size]
    inputs = json.loads(args.inputs)
    # Relative paths keep manifests and printed paths independent of where
    # the repository is checked out.
    os.chdir(args.out)
    if "path" in inputs:
        inputs["path"] = os.path.relpath(inputs["path"])
    run = workloads.SETUP[args.workload](lib, p, args.seed, ".", inputs)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(blockldp, lib)

    t0 = time.perf_counter()
    run()
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from oracle import normalized_manifest

    files = {}
    for name in sorted(os.listdir(".")):
        if name.endswith("manifest.json"):
            data = normalized_manifest(name)
        else:
            with open(name, "rb") as fh:
                data = fh.read()
        files[name] = hashlib.sha256(data).hexdigest()
    result = {"setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
              "files": files}
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["spans_s"] = tracer.top_level_s()
        result["counters"] = tracer.counters()
        tracer.dump(os.path.join("..", "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
