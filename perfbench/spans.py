"""In-memory span recorder, call patching and the self-time reducer.

Spans are recorded from the benchmark's own code around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A span
is ``(name, start, end, parent, unit)``: ``parent`` is the index of the
enclosing span of the same thread (``-1`` for a root) and ``unit`` the id of
the workload unit that caused it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    unit: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and named counters; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.unit = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.unit)
            )
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    def export(self) -> dict:
        """A JSON-safe copy of everything recorded."""
        with self._lock:
            return {
                "spans": [asdict(span) for span in self.spans],
                "counters": dict(self.counters),
                "samples": {name: list(v) for name, v in self.samples.items()},
            }

    def graft(self, exported: dict, parent: int, unit: int) -> None:
        """Fold in what another recorder exported, its roots under ``parent``.

        Worker processes and the server record on their own recorders;
        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        their span times line up with this process's.
        """
        with self._lock:
            offset = len(self.spans)
            for record in exported["spans"]:
                local_parent = int(record["parent"])
                self.spans.append(Span(
                    record["name"], record["start"], record["end"],
                    parent if local_parent < 0 else local_parent + offset, unit,
                ))
            for name, amount in exported["counters"].items():
                self.counters[name] += amount
            for name, values in exported["samples"].items():
                self.samples[name].extend(values)


def _union_length(intervals: List[tuple]) -> float:
    """Total length covered by ``intervals``; overlaps are counted once."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the part of it its children cover.

    Children that overlap each other (jobs on parallel workers) are
    subtracted once, through the union of their intervals clipped to the
    parent's own interval.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [
        max(0.0, span.seconds - _union_length(children.get(index, [])))
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Self seconds summed per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        totals[span.name] += seconds
    return dict(totals)


class Patcher:
    """Replaces attributes where the program looks them up; undoes on exit."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def wrap(self, owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute)
        self.replace(owner, attribute, functools.wraps(original)(make(original)))

    def span(self, recorder: SpanRecorder, owner, attribute: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Record a span ``name`` around every call of ``owner.attribute``.

        ``after(args, result)`` runs after the call, inside the span, to
        read counts off the arguments or the result.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                with recorder.span(name):
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(args, result)
                return result
            return wrapper
        self.wrap(owner, attribute, make)

    def counter(self, recorder: SpanRecorder, owner, attribute: str, name: str) -> None:
        """Count the calls of ``owner.attribute`` without recording a span."""
        def make(original):
            def wrapper(*args, **kwargs):
                recorder.count(name)
                return original(*args, **kwargs)
            return wrapper
        self.wrap(owner, attribute, make)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
