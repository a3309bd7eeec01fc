"""In-memory spans for the traced benchmark run.

The traced run replaces, for the duration of one timed step, the names that
each ergodiag module imports from another (``harness.sample_path``,
``harness.covariance_sum``, ``cli.run_experiment``, ``processes.lfilter``,
...) with wrappers that record a span: name, start, end and the span that
was open when it started.  Nothing under ``src/`` changes.  Spans live in
flat arrays until the run ends; a layer's self time is the duration of its
spans minus the part covered by their child spans.

The span name's prefix before the first dot is its layer: ``processes``,
``estimators``, ``model``, ``harness`` or ``cli``.  ``op`` is the root span
of one benchmark step, so its self time is time no layer accounts for.
``bounds`` is not wrapped: its functions are too small to move any metric,
and their time counts toward the caller's self time.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

from ergodiag import cli, harness, model, processes

# Self-time metrics made of named spans; each layer's total self time is
# reported as well, as ``<layer>.self_s``.
SPAN_METRICS = {
    "processes.seed_s": ("processes.derive_stream", "processes.RngSeed.generator"),
    "processes.draw_s": ("processes.sample_path",),
    "processes.ar1_filter_s": ("processes.lfilter",),
    "estimators.reduce_s": ("estimators.time_average",),
    "estimators.path_check_s": ("estimators.SamplePath",),
    "estimators.acov_s": ("estimators.sample_autocovariance",),
    "estimators.tau_window_s": ("estimators.estimate_tau",),
    "model.vn_s": ("model.covariance_sum", "model.time_average_variance"),
    "model.mean_s": ("model.mean_average",),
    "model.tau_s": ("model.correlation_time", "model.effective_sample_size"),
    "model.growth_s": ("model.classify_growth",),
}
LAYERS = ("processes", "estimators", "model", "harness", "cli")
COUNTERS = (
    "processes.paths",
    "processes.values_drawn",
    "estimators.acov_madds",
    "model.cov_evals",
    "model.gamma_calls",
)


def _count_path(counts: dict, args: tuple, kwargs: dict, path):
    counts["processes.paths"] += 1
    counts["processes.values_drawn"] += path.values.size
    return path


def _count_madds(counts: dict, args: tuple, kwargs: dict, acov):
    n, lags = acov.n, acov.max_lag
    counts["estimators.acov_madds"] += (lags + 1) * n - lags * (lags + 1) // 2
    return acov


def _counting_spec(counts: dict, args: tuple, kwargs: dict, spec):
    """Same spec, with covariance evaluations and gamma calls counted."""
    cov_fn = spec.cov_fn

    def counted_cov(t, s):
        out = cov_fn(t, s)
        counts["model.cov_evals"] += np.size(out)
        return out

    stationary = spec.stationary
    if stationary is not None:
        gamma = stationary.gamma

        def counted_gamma(h):
            out = gamma(h)
            counts["model.gamma_calls"] += 1
            counts["model.cov_evals"] += np.size(out)
            return out

        stationary = dataclasses.replace(stationary, gamma=counted_gamma)
    return dataclasses.replace(spec, cov_fn=counted_cov, stationary=stationary)


# (owner, attribute, span name, post-call hook).  Every entry is a name one
# module takes from another, or a public function the benchmark itself calls.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (cli, "sample_path", "processes.sample_path", _count_path),
    (cli, "SamplePath", "estimators.SamplePath", None),
    (cli, "sample_autocovariance", "estimators.sample_autocovariance", _count_madds),
    (cli, "estimate_tau", "estimators.estimate_tau", None),
    (cli, "effective_sample_size", "model.effective_sample_size", None),
    (harness, "sample_path", "processes.sample_path", _count_path),
    (harness, "derive_stream", "processes.derive_stream", None),
    (harness, "build_spec", "processes.build_spec", _counting_spec),
    (harness, "sparse_spike_squared_average_variance",
     "processes.sparse_spike_squared_average_variance", None),
    (harness, "enumerate_squared_average_variance",
     "processes.enumerate_squared_average_variance", None),
    (harness, "time_average", "estimators.time_average", None),
    (harness, "mean_average", "model.mean_average", None),
    (harness, "time_average_variance", "model.time_average_variance", None),
    (harness, "covariance_sum", "model.covariance_sum", None),
    (harness, "classify_growth", "model.classify_growth", None),
    (processes, "lfilter", "processes.lfilter", None),
    (processes, "derive_stream", "processes.derive_stream", None),
    (processes, "SamplePath", "estimators.SamplePath", None),
    (processes.RngSeed, "generator", "processes.RngSeed.generator", None),
    (processes, "build_spec", "processes.build_spec", _counting_spec),
    (model, "covariance_sum", "model.covariance_sum", None),
    (model, "mean_average", "model.mean_average", None),
    (model, "time_average_variance", "model.time_average_variance", None),
    (model, "classify_growth", "model.classify_growth", None),
    (model, "correlation_time", "model.correlation_time", None),
    (model, "effective_sample_size", "model.effective_sample_size", None),
)


def _copy(buf: array, dtype) -> np.ndarray:
    return np.frombuffer(buf, dtype=dtype).copy()


class Tracer:
    """Records spans and counters while benchmark steps run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # (step name, first span id, one past the last span id)
        self.ops: list[tuple[str, int, int]] = []

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock, counts = self._stack, time.perf_counter, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            return result if after is None else after(counts, args, kwargs, result)

        return traced

    def run_op(self, label: str, fn: Callable):
        """Call ``fn`` under a root span with every target wrapped."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        first = len(self.start)
        try:
            for (owner, attr, name, after), (_, _, original) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, original, after))
            return self._wrap("op." + label, fn, None)()
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.ops.append((label, first, len(self.start)))

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self seconds) per span."""
        start = _copy(self.start, np.float64)
        dur = _copy(self.end, np.float64) - start
        parent = _copy(self.parent, np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return _copy(self.name_id, np.int32), dur - child

    def totals_by_name(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        ids, self_s = self.self_times()
        sums = np.bincount(ids[lo:hi], weights=self_s[lo:hi], minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=_copy(self.name_id, np.int32),
            parent=_copy(self.parent, np.int64),
            start=_copy(self.start, np.float64),
            end=_copy(self.end, np.float64),
        )


def by_layer(totals: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer, and ``unattributed``: the ``op`` roots' self time."""
    out = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
    for name, seconds in totals.items():
        layer = name.split(".", 1)[0]
        out["unattributed" if layer == "op" else layer] += seconds
    return out


def metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Span-derived per-layer metrics, per traced cycle."""
    totals = tracer.totals_by_name()
    layers = by_layer(totals)
    out = {f"{layer}.self_s": layers[layer] / cycles for layer in LAYERS}
    for metric, names in SPAN_METRICS.items():
        out[metric] = sum(totals.get(name, 0.0) for name in names) / cycles
    for counter in COUNTERS:
        out[counter] = tracer.counts.get(counter, 0) / cycles
    out["processes.bytes_drawn"] = 8 * out["processes.values_drawn"]
    out["trace.unattributed_s"] = layers["unattributed"] / cycles
    out["trace.spans"] = len(tracer.start) / cycles
    return out


def breakdown(tracer: Tracer) -> list[dict]:
    """Per traced step: its wall time and the self time of each layer."""
    return [
        {"step": label, "wall_s": tracer.end[lo] - tracer.start[lo],
         **by_layer(tracer.totals_by_name(lo, hi))}
        for label, lo, hi in tracer.ops
    ]
