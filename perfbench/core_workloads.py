"""The three workloads that run the aligner: align_1k, suite_paper, topology_4k.

Each ``run_*`` function builds its inputs from ``seed``, sets up (median of
SETUP_REPEATS), measures for ``seconds``, checks the outputs and returns an
:class:`~perfbench.common.Outcome`.  With ``trace`` the first half of the
time runs untraced and the second half under span patches, so the traced
run reports both the layer split and the tracing overhead.

One run cycles through several input instances, all derived from ``seed``
(unit ``i`` uses instance ``i % count``).  The cost and quality of one
generated graph pair vary with its seed (hub degrees, refinement stopping
points), so a single instance per run would make runs on different seeds
disagree by more than the regression bounds.
"""

from __future__ import annotations

import copy
import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro.core.aligner as aligner_module
import repro.core.encoder as encoder_module
import repro.core.refinement as refinement_module
import repro.runner.executor as runner_executor
from repro.core import HTCAligner, HTCConfig
from repro.core.refinement import TrustedPairRefiner
from repro.core.training import MultiOrbitTrainer
from repro.datasets import load_dataset
from repro.datasets.synthetic import tiny_pair
from repro.eval.metrics import precision_at_q
from repro.orbits.engine import count_edge_orbits
from repro.runner import SuiteSpec, run_suite

from perfbench.common import (
    Outcome,
    children_peak_rss_mb,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    run_timed,
    tail_percentile,
    timed_setup,
)
from perfbench.metrics import layer_metrics, share_lines
from perfbench.spans import Patcher, SpanRecorder

#: align_1k / topology_4k settings: 4 orbits, 5 epochs, dim 16, 2
#: refinement iterations, and no orbit cache, so every unit pays for its own
#: counting.  Kept here, not imported, so the ruler cannot drift with the
#: repository's other benchmarks.
ALIGN_NODES = 1000
TOPOLOGY_NODES = 4000
#: p@1 measured 0.86-0.88 on tiny_pair(1000); a drop below this fails the run.
P_AT_1_FLOOR = 0.80

#: suite_paper: the paper-reproduction grid, HTC at the Table II settings
#: (all 13 orbits, 40 epochs, dim 32) beside three baselines.
SUITE_DATASETS = ("allmovie_imdb", "douban", "flickr_myspace")
SUITE_METHODS = ("HTC", "IsoRank", "REGAL", "FINAL")
SUITE_SCALE = 0.3
SUITE_WORKERS = 2
SUITE_HTC_CONFIG = {
    "embedding_dim": 32,
    "n_layers": 2,
    "epochs": 40,
    "learning_rate": 0.01,
    "n_neighbors": 10,
    "reinforcement_rate": 1.1,
    "orbit_backend": "auto",
    "orbit_cache": "memory",
}

#: Input instances one run cycles through.
ALIGN_INSTANCES = 8
SUITE_INSTANCES = 8
TOPOLOGY_INSTANCES = 4

#: Oracle check of topology_4k, per graph: edges with the largest endpoint
#: degree sum, and edges drawn at random.
ORACLE_HUB_EDGES = 4
ORACLE_RANDOM_EDGES = 40
TRACE_KEY = "_perfbench_trace"
_EXECUTE_JOB = runner_executor.execute_job


def align_config() -> HTCConfig:
    return HTCConfig(
        embedding_dim=16,
        n_layers=2,
        epochs=5,
        orbits=range(4),
        n_neighbors=10,
        max_refinement_iterations=2,
        orbit_backend="auto",
        orbit_cache="off",
        score_chunk_size=256,
        random_state=0,
    )


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install_core_patches(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Span the core layers at the names the aligner looks them up by."""
    def edges(args, counts):
        if counts is not None:
            recorder.count("orbits.edges_counted", counts.n_edges)

    def refined(args, output):
        recorder.count("core.refinement_iterations", output.iterations)
        recorder.sample(
            "core.refinement_trusted_pairs",
            output.trusted_pairs / max(1, output.iterations),
        )

    def trained(original):
        def train(*args, **kwargs):
            reset_peak_rss()
            with recorder.span("core.training"):
                losses = original(*args, **kwargs)
            recorder.sample("core.training_peak_mb", peak_rss_mb())
            recorder.count("core.training_epochs", len(losses))
            return losses
        return train

    for module in (aligner_module, encoder_module):
        patcher.span(recorder, module, "count_orbits_if_needed", "orbits.count", edges)
        patcher.span(recorder, module, "build_topology_views", "graph.views")
    patcher.wrap(MultiOrbitTrainer, "train", trained)
    patcher.span(recorder, TrustedPairRefiner, "refine_view", "core.refinement", refined)
    patcher.counter(recorder, refinement_module, "mutual_nearest_neighbors",
                    "similarity.mnn_calls")
    patcher.span(recorder, aligner_module, "integrate_alignment_matrices",
                 "core.integration")


def traced_execute_job(*args, **kwargs):
    """``execute_job`` under core spans, run inside a pool worker.

    The spans ride home in the artifact payload, the only channel from a
    worker back to the suite coordinator.
    """
    recorder = SpanRecorder()
    with Patcher() as patcher:
        install_core_patches(patcher, recorder)
        with recorder.span("runner.job"):
            artifact = _EXECUTE_JOB(*args, **kwargs)
    artifact[TRACE_KEY] = recorder.export()
    return artifact


def instance_seeds(seed: int, count: int) -> List[int]:
    return [seed * 1000 + k for k in range(count)]


def _split(seconds: float, trace: bool) -> float:
    return seconds / 2.0 if trace else seconds


def _overhead(untraced: List[float], traced: List[float]) -> Dict[str, float]:
    base = median(untraced)
    overhead = median(traced) - base
    return {"trace.overhead_s": overhead, "trace.overhead_share": overhead / base}


def _traced_units(seconds: float, unit, untraced_walls: List[float]) -> tuple:
    """Run ``unit`` under core spans for ``seconds``; (layer metrics, notes,
    unit outputs)."""
    recorder = SpanRecorder()

    def traced_unit(index):
        recorder.unit = index
        with recorder.span("unit"):
            return unit(index)

    with Patcher() as patcher:
        install_core_patches(patcher, recorder)
        traced_walls, outputs, _ = run_timed(seconds, traced_unit)
    metrics = layer_metrics(recorder, len(traced_walls),
                            _overhead(untraced_walls, traced_walls))
    return metrics, share_lines(recorder), outputs


def _unit_metrics(walls: List[float], ops: List[float], elapsed: float,
                  n_ops: int, nodes: int) -> Dict[str, float]:
    """Metrics every core workload reports the same way."""
    return {
        "wall_s_p50": median(walls),
        "wall_s_tail": percentile(walls, tail_percentile(len(walls))),
        "jobs_per_s": n_ops / elapsed,
        "serve_p50_ms": 1000.0 * median(ops),
        "serve_p95_ms": 1000.0 * percentile(ops, tail_percentile(len(ops), cap=95.0)),
        "serve_qps_at_slo": nodes / elapsed,
    }


def _sample_note(walls: List[float], ops: List[float], op: str) -> str:
    return (
        f"samples: {len(walls)} units (tail = p{tail_percentile(len(walls)):g}), "
        f"{len(ops)} {op} (tail = p{tail_percentile(len(ops)):g})"
    )


# ----------------------------------------------------------------------
# align_1k
# ----------------------------------------------------------------------
def run_align_1k(seed: int, seconds: float, trace: bool) -> Outcome:
    config = align_config()
    seeds = instance_seeds(seed, ALIGN_INSTANCES)

    def setup():
        pairs = [tiny_pair(n_nodes=ALIGN_NODES, random_state=s) for s in seeds]
        HTCAligner(config).align(pairs[0])
        return pairs

    setup_s, pairs = timed_setup(setup)

    def unit(index):
        return HTCAligner(config).align(pairs[index % len(pairs)])

    reset_peak_rss()
    walls, results, elapsed = run_timed(_split(seconds, trace), unit)
    peak = peak_rss_mb()
    traced: list = []
    if trace:
        layers, shares, traced = _traced_units(_split(seconds, trace), unit, walls)
    # Quality covers every instance, also those a slow run never reached;
    # the traced run reports no quality metric.  Every align that ran, traced
    # or not, is checked.
    if not trace:
        results += [unit(i) for i in range(len(results), len(pairs))]
    checked = [(result, pairs[i % len(pairs)])
               for run in (results, traced) for i, result in enumerate(run)]
    p_at_1 = [
        precision_at_q(result.alignment_matrix, pair.ground_truth, q=1)
        for result, pair in checked
    ]
    finite = all(math.isfinite(loss) for r, _ in checked for loss in r.training_losses)
    correct = finite and min(p_at_1) >= P_AT_1_FLOOR
    # One value per pair, so the metric does not weigh pairs by how often a
    # run reached them.
    per_pair = p_at_1[: len(pairs)]
    notes = [
        _sample_note(walls, walls, "aligns") + f" over {len(pairs)} pairs",
        f"p@1 over {len(checked)} aligns {min(p_at_1):.4f}..{max(p_at_1):.4f} "
        f"(floor {P_AT_1_FLOOR}), losses finite: {finite}",
    ]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "p_at_1": sum(per_pair) / len(per_pair),
        "ok_share": 1.0,
        **_unit_metrics(walls, walls, elapsed, len(walls), ALIGN_NODES * len(walls)),
    }
    if trace:
        metrics = layers
        notes += shares
    return Outcome(correct, len(walls), 0, metrics, notes)


# ----------------------------------------------------------------------
# suite_paper
# ----------------------------------------------------------------------
def suite_spec(dataset_seed: int, name: str) -> SuiteSpec:
    return SuiteSpec(
        name=name,
        datasets=[
            {"name": dataset, "params": {"scale": SUITE_SCALE, "random_state": dataset_seed}}
            for dataset in SUITE_DATASETS
        ],
        methods=list(SUITE_METHODS),
        config=dict(SUITE_HTC_CONFIG),
        executor_backend="process-pool",
    )


def run_suite_paper(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    seeds = instance_seeds(seed, SUITE_INSTANCES)

    def suite_once(index):
        output = Path(tempfile.mkdtemp(prefix="suite-", dir=workdir))
        try:
            return run_suite(
                suite_spec(seeds[index % len(seeds)], "paper"),
                output,
                jobs=SUITE_WORKERS,
                emit_artifacts=True,
                executor="process-pool",
            )
        finally:
            shutil.rmtree(output, ignore_errors=True)

    setup_s, _ = timed_setup(lambda: suite_once(0))
    reset_peak_rss()
    walls, reports, elapsed = run_timed(_split(seconds, trace), suite_once)
    peak = max(peak_rss_mb(), children_peak_rss_mb())
    artifacts = [a for report in reports for a in report.artifacts]
    failed = sum(1 for a in artifacts if a["status"] != "done")
    expected = len(SUITE_DATASETS) * len(SUITE_METHODS) * len(reports)
    job_seconds = [float(a["wall_seconds"]) for a in artifacts]
    nodes = sum(
        load_dataset(d, scale=SUITE_SCALE, random_state=seeds[i % len(seeds)]).source.n_nodes
        for i in range(len(reports))
        for d in SUITE_DATASETS
    ) * len(SUITE_METHODS)
    # Quality covers every instance, also those a slow run never reached;
    # the traced run reports no quality metric and checks what it ran.
    quality = reports[: len(seeds)]
    if not trace:
        quality += [suite_once(i) for i in range(len(reports), len(seeds))]
    htc = [
        a for report in quality for a in report.artifacts if a["spec"]["method"] == "HTC"
    ]
    htc_p_at_1 = [a["result"]["metrics"]["p@1"] for a in htc if a["status"] == "done"]
    correct = (
        failed == 0 and len(artifacts) == expected
        and len(htc_p_at_1) == len(htc) == len(quality) * len(SUITE_DATASETS)
    )
    notes = [
        _sample_note(walls, job_seconds, "jobs") + f" over {len(seeds)} dataset seeds",
        f"jobs: {len(artifacts)} run, {failed} not done; HTC p@1 over "
        f"{len(htc_p_at_1)} jobs: mean {sum(htc_p_at_1) / max(1, len(htc_p_at_1)):.4f}",
    ]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "p_at_1": sum(htc_p_at_1) / max(1, len(htc_p_at_1)),
        "ok_share": 1.0 - failed / max(1, len(artifacts)),
        **_unit_metrics(walls, job_seconds, elapsed, len(artifacts), nodes),
    }
    if trace:
        recorder = SpanRecorder()
        runner_rows = []

        def traced_unit(index):
            recorder.unit = index
            with recorder.span("runner.suite") as parent:
                report = suite_once(index)
            for artifact in report.artifacts:
                recorder.graft(artifact.pop(TRACE_KEY), parent, index)
            seconds_per_job = [float(a["wall_seconds"]) for a in report.artifacts]
            done = report.counts.get("done", 0)
            runner_rows.append((
                done,
                len(report.artifacts) - done,
                median(seconds_per_job),
                1.0 - sum(seconds_per_job) / (SUITE_WORKERS * report.wall_clock_seconds),
            ))
            return report

        with Patcher() as patcher:
            patcher.replace(runner_executor, "execute_job", traced_execute_job)
            traced_walls, traced_reports, _ = run_timed(_split(seconds, trace), traced_unit)
        # Every traced job is checked too.
        correct &= all(a["status"] == "done" for r in traced_reports for a in r.artifacts)
        extra = _overhead(walls, traced_walls)
        for column, name in enumerate(("runner.jobs_done", "runner.jobs_failed",
                                       "runner.job_s_p50", "runner.pool_idle_share")):
            extra[name] = median([row[column] for row in runner_rows])
        metrics = layer_metrics(recorder, len(traced_walls), extra)
        notes += share_lines(recorder)
    return Outcome(correct, len(artifacts), failed, metrics, notes)


# ----------------------------------------------------------------------
# topology_4k
# ----------------------------------------------------------------------
def _oracle_share(graph, counts, seed: int) -> float:
    """Share of sampled edges of the full ``graph`` whose 13 edge-orbit
    counts in ``counts`` (the timed output) equal the ``python`` oracle's.

    The sample holds the ORACLE_HUB_EDGES edges with the largest endpoint
    degree sum, where counts are largest and a counter is most likely to go
    wrong, plus ORACLE_RANDOM_EDGES edges drawn from ``seed``.  The oracle
    runs on the whole graph with only the sampled edges enumerated: an
    edge's counts depend on its endpoints' two-hop neighbourhood, which a
    subgraph would cut.
    """
    degrees = np.asarray(graph.degrees)
    ends = np.asarray(counts.edges)
    by_degree = np.argsort(-(degrees[ends[:, 0]] + degrees[ends[:, 1]]), kind="stable")
    rng = np.random.default_rng(seed)
    rows = set(by_degree[:ORACLE_HUB_EDGES].tolist())
    rows |= set(rng.choice(len(ends), size=ORACLE_RANDOM_EDGES, replace=False).tolist())
    rows = sorted(rows)
    view = copy.copy(graph)
    # Were the oracle to enumerate edges some other way, it would count
    # every edge: slower, and still exact.
    view.edge_list = lambda: [counts.edges[row] for row in rows]
    oracle = count_edge_orbits(view, backend="python")
    oracle_row = {edge: i for i, edge in enumerate(oracle.edges)}
    agree = [
        counts.edges[row] in oracle_row
        and np.array_equal(counts.counts[row], oracle.counts[oracle_row[counts.edges[row]]])
        for row in rows
    ]
    return float(np.mean(agree))


def run_topology_4k(seed: int, seconds: float, trace: bool) -> Outcome:
    config = align_config()
    seeds = instance_seeds(seed, TOPOLOGY_INSTANCES)
    op_seconds: List[float] = []

    def one_graph(graph):
        started = time.perf_counter()
        counts = encoder_module.count_orbits_if_needed(graph, config)
        views = encoder_module.build_topology_views(graph, config, counts)
        op_seconds.append(time.perf_counter() - started)
        return counts, views

    def setup():
        pairs = [tiny_pair(n_nodes=TOPOLOGY_NODES, random_state=s) for s in seeds]
        one_graph(pairs[0].source)
        one_graph(pairs[0].target)
        return pairs

    setup_s, pairs = timed_setup(setup)
    op_seconds.clear()

    def unit(index):
        pair = pairs[index % len(pairs)]
        return [one_graph(pair.source), one_graph(pair.target)]

    reset_peak_rss()
    walls, outputs, elapsed = run_timed(_split(seconds, trace), unit)
    peak = peak_rss_mb()
    graph_seconds = list(op_seconds)
    runs = [outputs]
    if trace:
        layers, shares, traced_outputs = _traced_units(_split(seconds, trace), unit, walls)
        runs.append(traced_outputs)
    # Every unit's output is checked.  The first output of each pair is
    # compared with the python oracle on sampled edges of the full graphs;
    # each repeat of a pair must give the same counts as its first output;
    # every unit must give one view per configured orbit.
    first: Dict[int, list] = {}
    stable = True
    for run in runs:
        for index, output in enumerate(run):
            counts = [graph_counts for graph_counts, _ in output]
            before = first.setdefault(index % len(pairs), counts)
            stable &= all(np.array_equal(a.counts, b.counts) for a, b in zip(counts, before))
    views_ok = all(
        len(views) == len(config.resolved_orbits)
        for run in runs for output in run for _, views in output
    )
    oracle = min(
        _oracle_share(graph, counts, seeds[k])
        for k, pair_counts in first.items()
        for graph, counts in zip((pairs[k].source, pairs[k].target), pair_counts)
    )
    correct = stable and views_ok and oracle == 1.0
    checked = 2 * len(first) * (ORACLE_HUB_EDGES + ORACLE_RANDOM_EDGES)
    notes = [
        _sample_note(walls, graph_seconds, "graphs") + f" over {len(pairs)} pairs",
        f"repeated pairs give identical counts: {stable}; oracle agreement on "
        f"{checked} sampled edges of the {2 * len(first)} graphs run "
        f"({ORACLE_HUB_EDGES} highest-degree edges each): {oracle:.4f}",
    ]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "p_at_1": oracle,
        "ok_share": 1.0,
        **_unit_metrics(walls, graph_seconds, elapsed, len(walls),
                        2 * TOPOLOGY_NODES * len(walls)),
    }
    if trace:
        metrics = layers
        notes += shares
    return Outcome(correct, len(walls), 0, metrics, notes)
