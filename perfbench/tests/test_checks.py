"""Tests of the benchmark's correctness checks and the serve SLO estimate.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import numpy as np
import pytest

from perfbench.core_workloads import _oracle_share
from perfbench.serve_workload import P99_LIMIT_S, Step, rate_at_slo
from repro.datasets.synthetic import tiny_pair
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.engine import count_edge_orbits


def step(rate, p99_s, late_s=0.0):
    """A rate with two segments of 100 requests whose p99 is ``p99_s``."""
    segment = [0.001] * 98 + [p99_s] * 2
    return Step(rate, latencies=segment * 2, late=[late_s] * 200,
                segment_latencies=[segment, list(segment)],
                segment_late=[[late_s] * 100, [late_s] * 100])


def test_rate_at_slo_interpolates_to_the_first_broken_rate():
    steps = [step(200, 0.010), step(300, 0.030), step(400, 0.090), step(500, 0.020)]
    # p99 reaches the limit a third of the way from 300 to 400 req/s; the
    # passing rate after the first broken one does not count.
    expected = 300 + 100 * (P99_LIMIT_S - 0.030) / (0.090 - 0.030)
    assert rate_at_slo(steps) == pytest.approx(expected)


def test_rate_at_slo_is_the_step_when_the_next_rate_breaks_by_backlog():
    steps = [step(200, 0.010), step(300, 0.020, late_s=2 * P99_LIMIT_S)]
    assert rate_at_slo(steps) == 200


def test_rate_at_slo_is_the_top_rate_when_every_rate_passes():
    assert rate_at_slo([step(200, 0.010), step(300, 0.020)]) == 300


@pytest.fixture(scope="module")
def graph_and_counts():
    graph = tiny_pair(n_nodes=300, random_state=5).source
    return graph, count_edge_orbits(graph, backend="numpy")


def test_oracle_accepts_correct_counts(graph_and_counts):
    graph, counts = graph_and_counts
    assert _oracle_share(graph, counts, seed=1) == 1.0


def test_oracle_catches_a_wrong_count_on_the_busiest_edge(graph_and_counts):
    graph, counts = graph_and_counts
    degrees = np.asarray(graph.degrees)
    ends = np.asarray(counts.edges)
    busiest = int(np.argmax(degrees[ends[:, 0]] + degrees[ends[:, 1]]))
    wrong = counts.counts.copy()
    wrong[busiest, 4] += 1
    assert _oracle_share(graph, EdgeOrbitCounts(counts.edges, wrong), seed=1) < 1.0
