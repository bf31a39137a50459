"""Per-layer tracing of the protoplace package from outside it.

`Tracer.install` wraps each function in TARGETS at every place callers look
it up: the defining module and every protoplace module that imported the name
directly (`prototypes` does `from .data import sample_episode`), or the class
for a method.  Each call becomes a span (id, parent id, name, start, end)
kept in memory; `Tracer.write` saves them when the run ends.  A target that no
longer exists is reported as absent, not an error.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "cli.main"
SWEEP = "metrics.cs_sweep"

# (span name, module, attribute) of every wrapped function.
TARGETS = [
    ("data.sample_episode", "protoplace.data", "sample_episode"),
    ("data.train_indices_by_class", "protoplace.data",
     "SplitDataset.train_indices_by_class"),
    ("data.load_dataset_dir", "protoplace.data", "load_dataset_dir"),
    ("hallucinate.hallucinate", "protoplace.hallucinate", "hallucinate"),
    ("hallucinate.propagation_weights", "protoplace.hallucinate",
     "propagation_weights"),
    ("hallucinate.propagate", "protoplace.hallucinate", "propagate"),
    ("hallucinate.interpolate", "protoplace.hallucinate", "interpolate"),
    ("linalg.net_forward", "protoplace.linalg", "net_forward"),
    ("linalg.net_backward", "protoplace.linalg", "net_backward"),
    ("linalg.cosine_cross_entropy", "protoplace.linalg", "cosine_cross_entropy"),
    ("linalg.optimizer_step", "protoplace.linalg", "optimizer_step"),
    ("refine.train_sof", "protoplace.refine", "train_sof"),
    ("refine.refine_features", "protoplace.refine", "refine_features"),
    ("prototypes.train_prototypes", "protoplace.prototypes", "train_prototypes"),
    ("prototypes.project_prototypes", "protoplace.prototypes",
     "project_prototypes"),
    ("prototypes.save_model", "protoplace.prototypes", "save_model"),
    ("prototypes.load_model", "protoplace.prototypes", "load_model"),
    ("metrics.cs_sweep", "protoplace.metrics", "cs_sweep"),
    ("metrics.evaluate", "protoplace.metrics", "evaluate"),
    ("metrics.gzsl_predict", "protoplace.metrics", "gzsl_predict"),
    ("metrics.zsl_predict", "protoplace.metrics", "zsl_predict"),
    ("metrics.per_class_accuracy", "protoplace.metrics", "per_class_accuracy"),
]

ALL = ("calls", "busy_s", "self_s")
# Span statistics reported per traced invocation.
LAYER_STATS = [
    ("data.sample_episode", ALL),
    ("data.train_indices_by_class", ALL),
    ("data.load_dataset_dir", ("busy_s",)),
    ("hallucinate.propagation_weights", ALL),
    ("hallucinate.propagate", ALL),
    ("hallucinate.interpolate", ALL),
    ("hallucinate.hallucinate", ("calls",)),
    ("linalg.net_forward", ALL),
    ("linalg.net_backward", ALL),
    ("linalg.cosine_cross_entropy", ALL),
    ("linalg.optimizer_step", ALL),
    ("refine.train_sof", ("busy_s",)),
    ("refine.refine_features", ("busy_s",)),
    ("prototypes.train_prototypes", ("self_s",)),
    ("prototypes.project_prototypes", ("calls",)),
    ("prototypes.save_model", ("busy_s",)),
    ("prototypes.load_model", ("busy_s",)),
    ("metrics.cs_sweep", ALL),
    ("metrics.evaluate", ("calls",)),
    ("metrics.gzsl_predict", ALL),
    ("metrics.zsl_predict", ALL),
    ("metrics.per_class_accuracy", ("busy_s",)),
]
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# Waste ratios: exact counts of repeated work.
RATIOS = [
    ("data.pool_builds_per_episode", "count/episode"),
    ("metrics.projections_per_sweep", "count/sweep"),
    ("metrics.score_passes_per_delta", "count/delta"),
]

PER_LAYER_METRICS = (
    [(f"{name}.{stat}", STAT_UNITS[stat]) for name, stats in LAYER_STATS
     for stat in stats]
    + RATIOS
    + [("cli.self_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, parent id, name, start, end]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[4] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.absent = []
        package = [m for n, m in list(sys.modules.items())
                   if n == "protoplace" or n.startswith("protoplace.")]
        for name, module, attr in TARGETS:
            owner_path, _, fn_name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            patched = len(self._patches)
            for holder in ([owner] if owner_path else package):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patches.append((holder, key, original))
            if len(self._patches) == patched:
                self.absent.append(name)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")

    def _has_ancestor(self, rec: list, name: str) -> bool:
        parent = rec[1]
        while parent is not None:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def invocation_stats(self, first: int, deltas_per_sweep: int) -> dict[str, float]:
        """Per-layer metrics of one invocation: the spans from index `first`
        on, the first of which is its ROOT_SPAN."""
        block = self.spans[first:]
        child_s: dict[int, float] = defaultdict(float)
        for rec in block:
            if rec[1] is not None:
                child_s[rec[1]] += rec[4] - rec[3]
        calls: Counter = Counter()
        in_sweep: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for rec in block:
            name, dur = rec[2], rec[4] - rec[3]
            calls[name] += 1
            self_s[name] += dur - child_s[rec[0]]
            if not self._has_ancestor(rec, name):  # count nested calls once
                busy[name] += dur
            if self._has_ancestor(rec, SWEEP):
                in_sweep[name] += 1
        values = {"calls": calls, "busy_s": busy, "self_s": self_s}
        out = {f"{name}.{stat}": float(values[stat][name])
               for name, stats in LAYER_STATS for stat in stats}
        out["data.pool_builds_per_episode"] = _ratio(
            calls["data.train_indices_by_class"], calls["data.sample_episode"])
        out["metrics.projections_per_sweep"] = _ratio(
            in_sweep["prototypes.project_prototypes"], calls[SWEEP])
        out["metrics.score_passes_per_delta"] = _ratio(
            in_sweep["metrics.zsl_predict"] + in_sweep["metrics.gzsl_predict"],
            calls[SWEEP] * deltas_per_sweep)
        out["cli.self_s"] = self_s[ROOT_SPAN]
        return out


def _ratio(count: int, base: int) -> float:
    """count / base, or 0 where the base is 0 (the layer did not run)."""
    return count / base if base else 0.0


def median_stats(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in per_invocation)
            for key in per_invocation[0]}
