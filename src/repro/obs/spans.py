"""Nestable wall-time spans building a per-request / per-epoch trace tree.

Usage::

    from repro.obs import span

    with span("service.recommend"):
        with span("service.slate"):
            ...

When the layer is disabled (:mod:`repro.obs.state`), :func:`span`
returns a shared no-op context manager — the call costs one global
check and no allocation, which is what keeps instrumented hot paths
within the <2% disabled-overhead budget enforced by
``benchmarks/bench_latency.py``.

When enabled, every span:

- appends a :class:`SpanRecord` to the current trace tree (completed
  top-level spans are kept in a bounded ring, newest last);
- feeds its duration into the ``repro_span_seconds`` histogram of the
  global :data:`~repro.obs.metrics.REGISTRY`, labelled by span name,
  so per-stage latency distributions ride along in every metrics
  export;
- pings the op-level profiler (if one is installed) so forward
  self-time attribution restarts at stage boundaries instead of
  absorbing inter-stage glue.

The finished-trace ring is process-global; the *open-span stack* is
thread-local so the serving tier's worker threads can each time their
own request pipeline without corrupting one another's trees.  Completed
top-level spans from every thread land in the same bounded ring
(``deque.append`` is atomic under the GIL), which is what ``trace()``
snapshots.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from . import opprof as _opprof
from . import state as _state
from .metrics import REGISTRY
from .state import perf_counter

__all__ = [
    "SpanRecord",
    "span",
    "trace",
    "clear_trace",
    "walk_spans",
    "validate_trace",
    "SpanAggregate",
    "aggregate_trace",
    "render_trace",
]

#: Upper bounds (seconds) for the per-span latency histogram.
SPAN_HISTOGRAM = "repro_span_seconds"

#: Completed *top-level* spans retained for inspection (newest last).
TRACE_LIMIT = 512


@dataclass
class SpanRecord:
    """One timed interval in the trace tree."""

    name: str
    start_s: float
    end_s: float = 0.0
    children: List["SpanRecord"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "children": [child.to_dict() for child in self.children],
        }


_finished: "deque[SpanRecord]" = deque(maxlen=TRACE_LIMIT)
_local = threading.local()


def _stack_of_thread() -> List[SpanRecord]:
    """The calling thread's open-span stack (created on first use)."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class _NullSpan:
    """The shared disabled-mode span: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "record", "_is_root")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> SpanRecord:
        record = SpanRecord(self.name, 0.0)
        _stack = _stack_of_thread()
        self._is_root = not _stack
        if _stack:
            _stack[-1].children.append(record)
        _stack.append(record)
        self.record = record
        profiler = _opprof._active
        if profiler is not None:
            profiler.mark()
        record.start_s = perf_counter()
        return record

    def __exit__(self, *exc) -> bool:
        record = self.record
        record.end_s = perf_counter()
        _stack = _stack_of_thread()
        if _stack and _stack[-1] is record:
            _stack.pop()
        else:
            # The trace was cleared (or unbalanced) underneath us; drop
            # the record rather than corrupting the tree.
            if record in _stack:
                _stack.remove(record)
            return False
        if self._is_root:
            _finished.append(record)  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
        if _state._enabled:
            REGISTRY.histogram(SPAN_HISTOGRAM, {"span": record.name}).observe(
                record.duration_s
            )
        return False


def span(name: str):
    """A context manager timing one named stage (no-op when disabled).

    Either way, an active op profiler marks a boundary on entry."""
    if not _state._enabled:
        profiler = _opprof._active
        if profiler is not None:
            profiler.mark()
        return _NULL_SPAN
    return _Span(name)


def trace() -> List[SpanRecord]:
    """Completed top-level spans, oldest first (bounded ring snapshot)."""
    return list(_finished)


def clear_trace() -> None:
    """Drop all completed spans and abandon the calling thread's open
    ones (other threads' open stacks are left to unwind on their own —
    their in-flight records were never shared)."""
    _finished.clear()  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
    _stack_of_thread().clear()


# ----------------------------------------------------------------------
# Inspection helpers
# ----------------------------------------------------------------------
def walk_spans(roots: Sequence[SpanRecord]) -> Iterator[SpanRecord]:
    """Depth-first iteration over a span forest."""
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def validate_trace(roots: Sequence[SpanRecord]) -> List[str]:
    """Structural violations of a span forest (empty list == well-formed).

    Checks, for every span: a non-negative duration, and every child
    interval nested inside its parent's interval.
    """
    problems: List[str] = []
    for node in walk_spans(roots):
        if node.duration_s < 0:
            problems.append(f"span {node.name!r} has negative duration {node.duration_s}")
        for child in node.children:
            if child.start_s < node.start_s or child.end_s > node.end_s:
                problems.append(
                    f"child {child.name!r} [{child.start_s}, {child.end_s}] escapes "
                    f"parent {node.name!r} [{node.start_s}, {node.end_s}]"
                )
    return problems


@dataclass
class SpanAggregate:
    """Call count and total wall time of one span *path* in the tree."""

    name: str
    count: int = 0
    total_s: float = 0.0
    children: "Dict[str, SpanAggregate]" = field(default_factory=dict)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def aggregate_trace(roots: Optional[Sequence[SpanRecord]] = None) -> Dict[str, SpanAggregate]:
    """Fold a span forest into per-path (count, total time) aggregates.

    Sibling spans with the same name merge — so an epoch with 50
    ``train.batch`` spans aggregates into one node with count 50.
    """
    if roots is None:
        roots = trace()

    def fold(records: Sequence[SpanRecord], into: Dict[str, SpanAggregate]) -> None:
        for record in records:
            agg = into.get(record.name)
            if agg is None:
                agg = into[record.name] = SpanAggregate(record.name)
            agg.count += 1
            agg.total_s += record.duration_s
            fold(record.children, agg.children)

    top: Dict[str, SpanAggregate] = {}
    fold(list(roots), top)
    return top


def render_trace(roots: Optional[Sequence[SpanRecord]] = None) -> str:
    """Render an aggregated span forest as an indented ascii tree."""
    aggregates = aggregate_trace(roots)
    lines: List[str] = []

    def emit(nodes: Dict[str, SpanAggregate], depth: int) -> None:
        width = 46 - 2 * depth
        for agg in nodes.values():
            label = f"{'  ' * depth}{agg.name}"
            lines.append(
                f"{label:<{max(width + 2 * depth, len(label) + 1)}s}"
                f"x{agg.count:<6d} total={agg.total_s * 1e3:9.2f}ms"
                f"  mean={agg.mean_s * 1e3:8.3f}ms"
            )
            emit(agg.children, depth + 1)

    emit(aggregates, 0)
    return "\n".join(lines)
