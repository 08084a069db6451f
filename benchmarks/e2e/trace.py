"""The benchmark's own span recorder (nothing under ``src/`` is touched).

Spans are kept in memory — name, start, end, parent, operation id, thread —
and written out when the traced run ends.  They are recorded around calls
into the program's public functions, two ways:

* ``with tracer.span("lifecycle.foldin.fold_in"): fold_in(...)`` where the
  benchmark makes the call itself;
* ``tracer.wrap_method(service, "flush", "serving.service.flush")`` where
  the program makes the call (the gateway's flusher thread calling
  ``service.flush``): the public method is wrapped *on that instance*, so
  the span lands at the layer boundary without editing the layer.

A span's parent is the span open on the same thread; a span opened on a
thread with none open (the flusher thread) hangs under the current
operation root.  A span's **self time** is its duration minus the part of
it that its children cover (the union of their intervals, so overlapping
children on two threads are not counted twice).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread")

    def __init__(self, id, name, start, parent, op, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one span (slotted: the serve loops open many)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanRecorder", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(self._span)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: span id and operation id that parentless spans attach to
        self._root: Optional[int] = None
        self._op: Optional[int] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Open:
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        span = Span(
            next(self._ids), name, 0.0, parent, self._op, threading.get_ident()
        )
        return _Open(self, span)

    def operation(self, name: str, op: int) -> "_Operation":
        """A root span; spans from other threads attach to it while it is open."""
        return _Operation(self, name, op)

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_method(self, obj, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr`` (this instance only)."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))


class _Operation:
    def __init__(self, tracer: SpanRecorder, name: str, op: int) -> None:
        self._tracer = tracer
        self._name = name
        self._op = op
        self._open: Optional[_Open] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer._op = self._op
        self._open = tracer.span(self._name)
        span = self._open.__enter__()
        span.parent = None
        tracer._root = span.id
        return span

    def __exit__(self, *exc_info) -> None:
        self._tracer._root = None
        self._open.__exit__(*exc_info)
        self._tracer._op = None


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def orphans(spans: List[Span]) -> List[Span]:
    """Spans naming a parent that was never recorded."""
    ids = {span.id for span in spans}
    return [span for span in spans if span.parent is not None and span.parent not in ids]


def _cover(start: float, end: float, children: List[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of the children."""
    covered = 0.0
    reach = start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.id: span.duration - _cover(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return table


def attributed_share(spans: List[Span]) -> float:
    """Share of the operations' wall time spent inside some layer span.

    One minus the roots' self time over the roots' duration: what is left
    is time in which no thread was inside a traced call — the benchmark's
    own loop, or idle waiting nobody accounts for.
    """
    own = self_times(spans)
    roots = [span for span in spans if span.parent is None and span.op is not None]
    total = sum(span.duration for span in roots)
    if total <= 0:
        return 0.0
    return 1.0 - sum(own[span.id] for span in roots) / total


def write(path: str, spans: List[Span], extra: Optional[Dict] = None) -> None:
    payload = dict(extra or {})
    payload["layers"] = layer_table(spans)
    payload["spans"] = [
        {
            "id": s.id, "name": s.name, "start": s.start, "end": s.end,
            "parent": s.parent, "op": s.op, "thread": s.thread,
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
