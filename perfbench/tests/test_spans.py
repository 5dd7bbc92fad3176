"""Tests of the benchmark's span recorder, self-time reducer and metric names.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
from pathlib import Path

import pytest

from perfbench.common import tail_percentile
from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from perfbench.spans import Patcher, Span, SpanRecorder, self_time_by_name, self_times


def test_overlapping_children_are_subtracted_once():
    spans = [
        Span("suite", 0.0, 10.0, -1, 0),
        Span("job", 1.0, 5.0, 0, 0),
        Span("job", 3.0, 7.0, 0, 0),  # overlaps the first job on 3..5
    ]
    # The children cover 1..7 = 6 s, not 4 + 4 = 8 s.
    assert self_times(spans) == pytest.approx([4.0, 4.0, 4.0])


def test_children_are_clipped_to_their_parent():
    spans = [Span("parent", 2.0, 4.0, -1, 0), Span("child", 1.0, 3.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_nested_spans_record_parents_and_units():
    recorder = SpanRecorder()
    recorder.unit = 7
    with recorder.span("outer") as outer:
        with recorder.span("inner"):
            pass
    assert [(s.name, s.parent, s.unit) for s in recorder.spans] == [
        ("outer", -1, 7), ("inner", outer, 7)
    ]
    totals = self_time_by_name(recorder.spans)
    assert totals["outer"] + totals["inner"] == pytest.approx(recorder.spans[0].seconds)


def test_graft_keeps_links_and_folds_counters():
    worker = SpanRecorder()
    with worker.span("job"):
        with worker.span("core.training"):
            worker.count("core.training_epochs", 5)
    home = SpanRecorder()
    with home.span("suite") as parent:
        pass
    home.graft(json.loads(json.dumps(worker.export())), parent, 3)
    assert [(s.name, s.parent, s.unit) for s in home.spans] == [
        ("suite", -1, -1), ("job", 0, 3), ("core.training", 1, 3)
    ]
    assert home.counters["core.training_epochs"] == 5


def test_patcher_restores_and_records():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.__dict__["work"]
    recorder = SpanRecorder()
    with Patcher() as patcher:
        patcher.span(recorder, Target, "work", "layer",
                     after=lambda args, result: recorder.count("calls"))
        assert Target().work(1) == 2
    assert Target.__dict__["work"] is original
    assert [s.name for s in recorder.spans] == ["layer"]
    assert recorder.counters["calls"] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99
    assert tail_percentile(100) == 90
    for n in (20, 37, 250):
        assert n * (1 - tail_percentile(n) / 100) >= 10
    assert tail_percentile(12) == 90


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
