"""Span tracing of blockldp from outside the package.

install() wraps the public functions and public methods of every layer
module and rebinds each wrapped function wherever another module imported it
(for example experiments.block_means and cli.block_means) and in the package
namespace.  Calls inside the defining module stay unwrapped, so a layer's
internal helpers count as its own self time.  Models returned by the models
factories get their lam/grad/hess/conj callables wrapped.

Each call records one span (name, layer, start, end, parent).  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans plus the untraced glue add up to the traced wall time.
Counters are computed after the timed region from the arguments and results
the spans kept, never inside a span.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

LAYERS = ("sources", "blockstats", "convex", "models", "regimes",
          "experiments", "_serialize", "cli")

# Spans whose arguments/results feed a counter.
_KEEP_ARGS = {"sources.SeriesSource.batch", "sources.SeriesSource.symbols",
              "blockstats.block_means", "blockstats.scgf_values",
              "blockstats.empirical_scgf", "convex.legendre",
              "models.lam", "models.grad", "models.conj",
              "_serialize.write_csv", "_serialize.file_checksum"}


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, layer, t0, t1, parent, args, result]
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        keep = name in _KEEP_ARGS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   args if keep else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if keep:
                rec[6] = out
            return out

        return traced

    # ---------------------------------------------------------------- install

    def install(self, package, lib) -> None:
        """Wrap every layer of `package` and the functions held by `lib`."""
        mods = {name: sys.modules[package.__name__ + "." + name] for name in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    fn = self.wrap(layer, "%s.%s" % (layer, attr), obj)
                    if layer == "models":
                        fn = self._model_factory(fn)
                    replaced[id(obj)] = (mod, fn)
        targets = [package] + list(mods.values())
        for target in targets:
            for attr, obj in list(vars(target).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is not target:
                    setattr(target, attr, hit[1])
        for attr, obj in list(vars(lib).items()):
            hit = replaced.get(id(obj))
            if hit is not None:
                setattr(lib, attr, hit[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, name, obj.__func__)))
            elif callable(obj) and not isinstance(obj, (staticmethod, type)):
                setattr(cls, attr, self.wrap(layer, name, obj))

    def _model_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            model = factory(*args, **kwargs)
            if not dataclasses.is_dataclass(model) or not hasattr(model, "conj"):
                return model
            fields = {f: self.wrap("models", "models." + f, getattr(model, f))
                      for f in ("lam", "grad", "hess", "conj")}
            return dataclasses.replace(model, **fields)

        return make

    # ---------------------------------------------------------------- reports

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict = {}
        for i, s in enumerate(self.spans):
            out[s[0]] = out.get(s[0], 0.0) + (s[3] - s[2]) - child[i]
        return out

    def top_level_s(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def _entries(self, names):
        """Spans of `names` entered from outside their own layer."""
        for s in self.spans:
            if s[0] in names and (s[4] < 0 or self.spans[s[4]][1] != s[1]):
                yield s

    def counters(self) -> dict:
        """Exact work counts computed from kept arguments, results and files."""
        c = dict.fromkeys(("sources.calls", "sources.obs", "sources.generated",
                           "blockstats.blocks", "blockstats.distinct",
                           "blockstats.scgf_cells", "convex.legendre_cells",
                           "models.lam_points", "models.grad_points",
                           "models.conj_points", "regimes.classify_calls",
                           "serialize.files_written", "serialize.bytes_written",
                           "serialize.checksum_bytes"), 0)
        c["sources.calls"] = sum(1 for s in self.spans if s[1] == "sources"
                                 and (s[4] < 0 or self.spans[s[4]][1] != "sources"))
        for s in self._entries({"sources.SeriesSource.batch",
                                "sources.SeriesSource.symbols"}):
            src, start, count = s[5][0], int(s[5][1]), int(s[5][2])
            c["sources.obs"] += count
            replay = src.kind in ("markov-chain", "digit-file")
            c["sources.generated"] += start + count if replay else count
        for s in self._entries({"blockstats.block_means"}):
            stats = s[6]
            c["blockstats.blocks"] += stats.k
            means = stats.means[:, 0] if stats.d == 1 else stats.means
            c["blockstats.distinct"] += np.unique(means, axis=0).shape[0]
        for s in self._entries({"blockstats.scgf_values", "blockstats.empirical_scgf"}):
            lam = np.asarray(s[5][1])
            c["blockstats.scgf_cells"] += lam.shape[0] * s[5][0].k
        for s in self._entries({"convex.legendre"}):
            f, xs = s[5][0], np.atleast_1d(s[5][1])
            c["convex.legendre_cells"] += int(np.isfinite(f.values).sum()) * xs.size
        for field in ("lam", "grad", "conj"):
            for s in self._entries({"models." + field}):
                c["models.%s_points" % field] += int(np.size(s[5][0]))
        c["regimes.classify_calls"] = sum(1 for s in self.spans
                                          if s[0] == "regimes.classify")
        for s in self._entries({"_serialize.write_csv"}):
            c["serialize.files_written"] += 1
            c["serialize.bytes_written"] += os.path.getsize(s[6])
        for s in self._entries({"_serialize.file_checksum"}):
            c["serialize.checksum_bytes"] += os.path.getsize(s[5][0])
        return c

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[0], "layer": s[1],
                                     "start_s": s[2] - t0, "end_s": s[3] - t0,
                                     "parent": s[4]}) + "\n")
