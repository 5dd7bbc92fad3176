"""Metric names and units, and the reduction of a traced run to layer metrics."""

from __future__ import annotations

from typing import Dict, List

from perfbench.common import median
from perfbench.spans import SpanRecorder, self_time_by_name

#: Every end-to-end metric with its unit; every workload reports all of them
#: (README.md says what each means on each workload).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "wall_s_tail": "s",
    "peak_rss_mb": "MB",
    "p_at_1": "ratio",
    "jobs_per_s": "1/s",
    "serve_p50_ms": "ms",
    "serve_p95_ms": "ms",
    "serve_qps_at_slo": "nodes/s",
    "ok_share": "ratio",
}

#: Span name -> per-layer metric (self seconds per unit).
SPAN_METRICS = {
    "orbits.count": "orbits.count_s",
    "graph.views": "graph.views_s",
    "core.training": "core.training_s",
    "core.refinement": "core.refinement_s",
    "core.integration": "core.integration_s",
    "runner.suite": "runner.self_s",
    "api.dispatch": "api.dispatch_s",
    "serve.query": "serve.query_s",
    "serve.index": "serve.index_s",
}

#: Counter name -> per-layer metric (count per unit).
COUNTER_METRICS = {
    "orbits.edges_counted": "orbits.edges_counted",
    "core.training_epochs": "core.training_epochs",
    "core.refinement_iterations": "core.refinement_iterations",
    "similarity.mnn_calls": "similarity.mnn_calls",
}

#: Every per-layer metric with its unit, in report order.  Workloads that
#: never reach a layer report 0 for it.
PER_LAYER_UNITS = {
    "orbits.count_s": "s",
    "orbits.edges_counted": "count",
    "graph.views_s": "s",
    "core.training_s": "s",
    "core.training_peak_mb": "MB",
    "core.training_epochs": "count",
    "core.refinement_s": "s",
    "core.refinement_trusted_pairs": "count",
    "core.refinement_iterations": "count",
    "similarity.mnn_calls": "count",
    "core.integration_s": "s",
    "runner.self_s": "s",
    "runner.jobs_done": "count",
    "runner.jobs_failed": "count",
    "runner.job_s_p50": "s",
    "runner.pool_idle_share": "ratio",
    "api.dispatch_s": "s",
    "api.transport_s": "s",
    "serve.query_s": "s",
    "serve.index_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "loadgen.late_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_metrics(recorder: SpanRecorder, n_units: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-unit layer metrics from ``recorder``; ``extra`` fills the rest."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    per_name = self_time_by_name(recorder.spans)
    for span_name, metric in SPAN_METRICS.items():
        values[metric] = per_name.get(span_name, 0.0) / n_units
    for counter, metric in COUNTER_METRICS.items():
        values[metric] = recorder.counters.get(counter, 0.0) / n_units
    peaks = recorder.samples.get("core.training_peak_mb")
    if peaks:
        values["core.training_peak_mb"] = median(peaks)
    trusted = recorder.samples.get("core.refinement_trusted_pairs")
    if trusted:
        values["core.refinement_trusted_pairs"] = sum(trusted) / len(trusted)
    values.update(extra)
    return values


def share_lines(recorder: SpanRecorder) -> List[str]:
    """Each span name's share of all recorded self time.

    Self times add up to the busy time of every process that recorded
    spans, so the shares stay below 100% when pool workers run in parallel.
    """
    per_name = self_time_by_name(recorder.spans)
    total = sum(per_name.values())
    lines = [f"layer self-time shares of {total:.3f} busy seconds:"]
    for name, seconds in sorted(per_name.items(), key=lambda item: -item[1]):
        share = seconds / total if total > 0 else 0.0
        lines.append(f"  {name:<20} {seconds:10.4f} s  {share:7.1%}")
    return lines
