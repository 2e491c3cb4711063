"""Traced in-process replay: spans around the calls into each kph module.

The replay runs a workload's command sequence through ``kph.cli.main(argv)``
in this process, with the public functions at the boundaries that the CLI
calls wrapped by a recorder. A span holds a name, start, end and the span
that caused it; spans stay in memory and are written out when the run
ends. Work that only the benchmark needs (hierarchy objectives, canonical
forms) is computed after the replay, outside every span.

A wrapper whose target no longer exists is skipped, and the metrics that
depend on it are reported absent.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

MS = 1e-6  # per nanosecond

IO_WRITERS = ("write_scores", "write_hierarchy", "write_report", "write_metrics_csv",
              "write_pr_curves", "write_weak_labels", "write_correlations", "write_text",
              "write_manifest")


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None


@dataclass
class Tracer:
    """Spans and counters of one replay."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    builds: list[tuple] = field(default_factory=list)  # (span index, scores, config, hierarchy)
    _stack: list[int] = field(default_factory=list)

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        """fn recorded as a span; name is a string or a function of the call's arguments."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name if isinstance(name, str) else name(*args, **kwargs),
                        perf_counter_ns(), 0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str) -> list[int]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, name: str, child_prefix: str = "") -> list[int]:
        """Each span's duration minus its direct children whose names match the prefix."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans) if s.name == name}
        for s in self.spans:
            if s.parent in own and s.name.startswith(child_prefix):
                own[s.parent] -= s.end - s.start
        return list(own.values())


def _path_arg(args, kwargs):
    return args[0] if args else kwargs.get("path")


def _bytes_read(t: Tracer, idx, args, kwargs, result) -> None:
    t.add("io.bytes_read", os.path.getsize(_path_arg(args, kwargs)))


def _bytes_written(t: Tracer, idx, args, kwargs, result) -> None:
    t.add("io.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


def _scored_pairs(t: Tracer, idx, args, kwargs, result) -> None:
    n = len(result.kp_ids)
    t.add("scoring.pairs", n * (n - 1))


def _built(t: Tracer, idx, args, kwargs, result) -> None:
    t.builds.append((idx, args[0] if args else kwargs["s"],
                     args[1] if len(args) > 1 else kwargs["config"], result))


def _scorer_name(m, scorer, *args, **kwargs):
    return f"scoring.{scorer}_ms"


def _builder_name(s, config, *args, **kwargs):
    return f"construction.{config.algorithm}_ms"


# (module, attribute, span name, after-hook)
TARGETS = [
    ("kph.io", "load_match_matrix", "io.load_match_matrix_ms", _bytes_read),
    ("kph.io", "load_external_scores", "io.load_scores_ms", _bytes_read),
    ("kph.io", "load_hierarchy", "io.load_hierarchy_ms", _bytes_read),
    ("kph.io", "load_key_points", "io.load_key_points_ms", _bytes_read),
    *[("kph.io", w, "io.write_ms", _bytes_written) for w in IO_WRITERS],
    ("kph.io", "file_digest", "io.digest_ms", _bytes_read),
    ("kph.cli", "compute_score_matrix", _scorer_name, _scored_pairs),
    ("kph.cli", "combine_average", "scoring.combine_ms", None),
    ("kph.cli", "export_weak_labels", "scoring.weaklabel_ms", None),
    ("kph.cli", "build_hierarchy", _builder_name, _built),
    ("kph.cli", "loo_threshold_tuning", "evaluation.loo_ms", None),
    ("kph.cli", "evaluate_hierarchies", "evaluation.evaluate_ms", None),
    ("kph.cli", "pr_curve", "evaluation.pr_curve_ms", None),
    ("kph.cli", "spearman_correlation", "evaluation.spearman_ms", None),
    ("kph.evaluation", "relation_f1", "evaluation.relation_f1_ms", None),
    ("kph.evaluation", "derive_relations", "core.derive_relations_ms", None),
]

# Timed metrics (total ms per replay, plus .calls, .p50 and .tail) and the
# attribute each one needs.
TIMED = {
    "cli.main_self_ms": "kph.cli.main",
    "io.load_match_matrix_ms": "kph.io.load_match_matrix",
    "io.load_scores_ms": "kph.io.load_external_scores",
    "io.load_hierarchy_ms": "kph.io.load_hierarchy",
    "io.load_key_points_ms": "kph.io.load_key_points",
    "io.write_ms": "kph.io.write_scores",
    "io.digest_ms": "kph.io.file_digest",
    "scoring.bininc_ms": "kph.cli.compute_score_matrix",
    "scoring.weedsprec_ms": "kph.cli.compute_score_matrix",
    "scoring.clarkede_ms": "kph.cli.compute_score_matrix",
    "scoring.apinc_ms": "kph.cli.compute_score_matrix",
    "scoring.combine_ms": "kph.cli.combine_average",
    "scoring.weaklabel_ms": "kph.cli.export_weak_labels",
    "construction.tncf_ms": "kph.cli.build_hierarchy",
    "construction.greedy_gs_ms": "kph.cli.build_hierarchy",
    "construction.reduced_forest_ms": "kph.cli.build_hierarchy",
    "evaluation.loo_ms": "kph.cli.loo_threshold_tuning",
    "evaluation.loo_self_ms": "kph.cli.loo_threshold_tuning",
    "evaluation.evaluate_ms": "kph.cli.evaluate_hierarchies",
    "evaluation.relation_f1_ms": "kph.evaluation.relation_f1",
    "evaluation.pr_curve_ms": "kph.cli.pr_curve",
    "evaluation.spearman_ms": "kph.cli.spearman_correlation",
    "core.derive_relations_ms": "kph.evaluation.derive_relations",
}

COUNTERS = {
    "cli.commands": "kph.cli.main",
    "io.bytes_read": "kph.io.file_digest",
    "io.bytes_written": "kph.io.write_scores",
    "scoring.pairs": "kph.cli.compute_score_matrix",
    "construction.builds": "kph.cli.build_hierarchy",
    "construction.objective_sum": "kph.construction.objective_value",
    "evaluation.loo_distinct_ratio": "kph.cli.loo_threshold_tuning",
}

COUNTER_UNITS = {"cli.commands": "count", "io.bytes_read": "bytes", "io.bytes_written": "bytes",
                 "scoring.pairs": "count", "construction.builds": "count",
                 "construction.objective_sum": "score", "evaluation.loo_distinct_ratio": "ratio"}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _resolve(dotted: str):
    module, _, attr = dotted.rpartition(".")
    return getattr(_module(module), attr, None)


def absent_targets() -> set[str]:
    """Dotted names of the wrapped or needed attributes that no longer exist."""
    needed = {f"{m}.{a}" for m, a, _, _ in TARGETS} | set(TIMED.values()) | set(COUNTERS.values())
    return {d for d in needed if _resolve(d) is None}


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target that exists; restore the originals afterwards."""
    saved = []
    try:
        for module_name, attr, name, after in TARGETS:
            module = _module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, after))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _canonical(h) -> tuple:
    clusters = [tuple(sorted(c)) for c in h.clusters]
    edges = sorted((clusters[c], clusters[p]) for c, p in h.parent.items())
    return h.summary_id, tuple(sorted(clusters)), tuple(edges)


def replay_counters(t: Tracer) -> dict[str, float]:
    """The counters of one traced replay, derived after it finished."""
    out = dict(t.counters)
    out["cli.commands"] = len(t.durations("cli.main"))
    out["construction.builds"] = len(t.builds)
    objective = _resolve("kph.construction.objective_value")
    if objective is not None:
        out["construction.objective_sum"] = math.fsum(
            objective(h, s, config.tau) for _, s, config, h in t.builds)
    in_loo = [h for idx, _, _, h in t.builds
              if t.spans[idx].parent is not None
              and t.spans[t.spans[idx].parent].name == "evaluation.loo_ms"]
    out["evaluation.loo_distinct_ratio"] = (
        len({_canonical(h) for h in in_loo}) / len(in_loo) if in_loo else 0.0)
    return out


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)] if xs else 0.0


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p99.9, p99, p90, p75 and p50 with at least 10 samples beyond it.

    Fewer than 20 samples leave no such percentile; the maximum stands in.
    """
    xs = sorted(samples)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            return percentile(xs, p), f"p{p:g}"
    return (xs[-1], "max") if xs else (0.0, "none")


def _timed_samples(t: Tracer, metric: str) -> list[int]:
    if metric == "cli.main_self_ms":
        return t.self_times("cli.main")
    if metric == "evaluation.loo_self_ms":
        return t.self_times("evaluation.loo_ms", "construction.")
    return t.durations(metric)


def layer_metrics(tracers: list[Tracer], import_ms: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics over the traced replays, and the tail levels used."""
    absent = absent_targets()
    metrics: dict[str, tuple[float, str]] = {}
    levels = {}

    def timed(name: str, totals: list[float], pooled: list[float], calls: int) -> None:
        metrics[name] = (statistics.median(totals), "ms")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.p50"] = (percentile(sorted(pooled), 50.0), "ms")
        value, levels[name] = tail(pooled)
        metrics[f"{name}.tail"] = (value, "ms")

    timed("cli.import_ms", [statistics.median(import_ms)], import_ms, len(import_ms))
    for name, target in TIMED.items():
        if target in absent:
            continue
        per_replay = [[d * MS for d in _timed_samples(t, name)] for t in tracers]
        timed(name, [sum(x) for x in per_replay], [d for x in per_replay for d in x],
              len(per_replay[0]))
    counters = replay_counters(tracers[0])
    for name, target in COUNTERS.items():
        if target not in absent:
            metrics[name] = (counters.get(name, 0), COUNTER_UNITS[name])
    return metrics, levels


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, t in enumerate(tracers):
            for i, s in enumerate(t.spans):
                fh.write(json.dumps({"replay": k, "id": i, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent}) + "\n")
