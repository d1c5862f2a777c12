"""Spans around the calls into each eotmaps module, recorded from outside.

A ``Tracer`` replaces public functions by wrappers under the name through
which their callers look them up (``eotmaps.embedding.truncated_svd`` is the
name ``eot_eigenmaps`` resolves, ``eotmaps.transport.sinkhorn`` the one
``transport_plan`` resolves, ...).  Each call becomes a span: label, start,
end, parent span and run id.  Spans stay in memory until the run ends.
Nothing is installed until ``install()`` and ``uninstall()`` restores the
original functions, so untraced iterations run the library untouched.

While ``tracemalloc`` is tracing, every span also records its own peak of
traced memory above the level at which it started.
"""

from __future__ import annotations

import importlib
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (module whose global is replaced, attribute, span label).  The label names
# the layer that owns the function; the module is where the caller finds it.
WRAPPED = (
    ("eotmaps.simulate", "preset", "simulate.preset"),
    ("eotmaps.embedding", "eot_eigenmaps", "embedding.eot_eigenmaps"),
    ("eotmaps.embedding", "spectral_model", "embedding.spectral_model"),
    ("eotmaps.embedding", "embed_from_model", "embedding.embed_from_model"),
    ("eotmaps.embedding", "transport_plan", "transport.transport_plan"),
    ("eotmaps.transport", "transport_plan", "transport.transport_plan"),
    ("eotmaps.transport", "squared_distance_matrix", "transport.squared_distance_matrix"),
    ("eotmaps.transport", "median_bandwidth", "transport.median_bandwidth"),
    ("eotmaps.transport", "sinkhorn", "transport.sinkhorn"),
    ("eotmaps.transport", "as_matrix", "linalg.as_matrix"),
    ("eotmaps.embedding", "truncated_svd", "linalg.truncated_svd"),
    ("eotmaps.linalg", "as_matrix", "linalg.as_matrix"),
    ("eotmaps.diffusion", "DiffusionContext", "diffusion.DiffusionContext"),
    ("eotmaps.diffusion", "diffusion_distance", "diffusion.diffusion_distance"),
    ("eotmaps.metrics", "jaccard_concordance", "metrics.jaccard_concordance"),
    ("eotmaps.metrics", "knn", "metrics.knn"),
    ("eotmaps.metrics", "kmeans", "metrics.kmeans"),
    ("eotmaps.metrics", "rand_index", "metrics.rand_index"),
    ("eotmaps.cli", "cmd_embed", "cli.cmd_embed"),
    ("eotmaps.cli", "cmd_distances", "cli.cmd_distances"),
)


@dataclass
class Span:
    label: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run: str
    mib: float = 0.0  # traced-memory peak above the start level
    count: int = 0  # work done by the call: sweeps, k, elements (see _count)


@dataclass
class _Frame:
    index: int
    base: int
    peak: int


def _count(label, args, kwargs, result) -> int:
    """Exact work count of one call, where the layer has one."""
    if label == "transport.sinkhorn":
        return int(result.iterations)
    if label == "linalg.truncated_svd":
        return int(kwargs["k"] if "k" in kwargs else args[1])
    if label == "linalg.as_matrix":
        return int(np.size(result))
    if label == "transport.squared_distance_matrix":
        # Computed, not measured: the X @ Y.T product dominates, 2*m*n*p flops.
        a, b = (np.shape(x) for x in args[:2])
        return 2 * a[0] * b[0] * a[1]
    return 1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    run: str = "setup"
    plans: list = field(default_factory=list)  # TransportPlans returned, for the marginal check
    _stack: list[_Frame] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def install(self):
        if self._saved:
            return
        for module_name, attr, label in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, label):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1].index if self._stack else -1
            self.spans.append(Span(label, 0.0, 0.0, parent, self.run))
            self._enter(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frame = self._leave()
                span = self.spans[index]
                span.start, span.end = start, end
                span.mib = (frame.peak - frame.base) / 2**20
            span.count = _count(label, args, kwargs, result)
            if label == "transport.transport_plan":
                self.plans.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter(self, index):
        base = peak = 0
        if tracemalloc.is_tracing():
            # Fold the parent's peak so far in before resetting the counter.
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, peak)
            tracemalloc.reset_peak()
            base = peak = current
        self._stack.append(_Frame(index, base, peak))

    def _leave(self) -> _Frame:
        frame = self._stack.pop()
        if tracemalloc.is_tracing():
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, frame.peak)
        return frame

    def dump(self, path):
        """Write every span, one tab-separated line each, parents by line number."""
        with open(path, "w") as fh:
            fh.write("index\tlabel\tstart\tend\tparent\trun\tmib\tcount\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.label}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.run}\t"
                         f"{s.mib:.3f}\t{s.count}\n")

    # ---- derived quantities -------------------------------------------------

    def of_run(self, run: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.run == run]

    def self_times(self, indices) -> dict[int, float]:
        """Span duration minus the durations of its direct children."""
        out = {i: self.spans[i].end - self.spans[i].start for i in indices}
        for i in indices:
            parent = self.spans[i].parent
            if parent in out:
                out[parent] -= self.spans[i].end - self.spans[i].start
        return out

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent >= 0:
            yield parent
            parent = self.spans[parent].parent


def layer_metrics(tracer: Tracer, run: str) -> dict[str, float]:
    """Per-layer numbers of one traced iteration.

    Every ``*_s`` value is a self time: the span's duration minus its traced
    children, so the values of one call tree add up to its root's duration.
    Transport and linalg spans reached from inside a metrics call (``knn``
    computes distances too) are left out of the transport and linalg numbers.
    """
    idx = tracer.of_run(run)
    selfs = tracer.self_times(idx)
    by_label: dict[str, list[int]] = {}
    for i in idx:
        label = tracer.spans[i].label
        if label.startswith(("transport.", "linalg.")) and any(
                tracer.spans[a].label.startswith("metrics.") for a in tracer.ancestors(i)):
            continue
        by_label.setdefault(label, []).append(i)

    def self_s(label):
        return sum(selfs[i] for i in by_label.get(label, ()))

    def count(label):
        return sum(tracer.spans[i].count for i in by_label.get(label, ()))

    def calls(label):
        return len(by_label.get(label, ()))

    sweeps = count("transport.sinkhorn")
    pairs = calls("diffusion.diffusion_distance")
    out = {
        "transport.sqdist_s": self_s("transport.squared_distance_matrix"),
        "transport.sqdist_flops": count("transport.squared_distance_matrix"),
        "transport.median_s": self_s("transport.median_bandwidth"),
        "transport.plan_self_s": self_s("transport.transport_plan"),
        "transport.sinkhorn_s": self_s("transport.sinkhorn"),
        "transport.sweeps": sweeps,
        "transport.sweep_ms": 1e3 * self_s("transport.sinkhorn") / sweeps if sweeps else 0.0,
        "linalg.svd_s": self_s("linalg.truncated_svd"),
        "linalg.svd_k": count("linalg.truncated_svd"),
        "linalg.as_matrix_s": self_s("linalg.as_matrix"),
        "linalg.as_matrix_calls": calls("linalg.as_matrix"),
        "linalg.as_matrix_elems": count("linalg.as_matrix"),
        "embedding.self_s": self_s("embedding.eot_eigenmaps"),
        "embedding.spectral_model_self_s": self_s("embedding.spectral_model"),
        "embedding.embed_from_model_s": self_s("embedding.embed_from_model"),
        "diffusion.context_s": self_s("diffusion.DiffusionContext"),
        "diffusion.distance_s": self_s("diffusion.diffusion_distance"),
        "diffusion.pairs": pairs,
        "diffusion.us_per_pair": 1e6 * self_s("diffusion.diffusion_distance") / pairs if pairs else 0.0,
        "metrics.knn_s": self_s("metrics.knn"),
        "metrics.knn_calls": calls("metrics.knn"),
        "metrics.jaccard_self_s": self_s("metrics.jaccard_concordance"),
        "metrics.kmeans_s": self_s("metrics.kmeans"),
        "metrics.rand_s": self_s("metrics.rand_index"),
        "cli.embed_self_s": self_s("cli.cmd_embed"),
        "cli.distances_self_s": self_s("cli.cmd_distances"),
    }
    # The embedding stage's call tree: eot_eigenmaps for the library
    # workloads, the embed command for the CLI.  Its self times sum to the
    # traced embed_s, which the untraced embed_s is compared against.
    roots = by_label.get("embedding.eot_eigenmaps") or by_label.get("cli.cmd_embed") or []
    tree = [i for i in idx if i in roots or any(a in roots for a in tracer.ancestors(i))]
    out["trace.path_self_s"] = sum(selfs[i] for i in tree)
    return out


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(np.median([d[key] for d in per_run])) for key in per_run[0]} if per_run else {}
