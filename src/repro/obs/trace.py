"""Request tracing: context-manager spans with parent/child linkage.

A :class:`Tracer` records :class:`Span` intervals — service admission,
cache lookup, batcher flush, retrieval stages, trainer epochs, evaluation
chunks — and exports them as Chrome-trace-event JSON (loadable in
Perfetto / ``chrome://tracing``) or JSONL.

Linkage: ``tracer.span(...)`` nests via a per-thread stack, so a span
opened inside another becomes its child automatically.  Spans that cross
call boundaries (a serving request that is admitted in ``submit`` and
resolved in a later ``flush``) use the manual :meth:`Tracer.begin` /
:meth:`Span.finish` pair, which does *not* touch the nesting stack.

Spans opened on other threads (the batch runtime's chunk workers) name
their parent explicitly and land in the same tracer.  A span opened
without a ``trace_id`` takes its parent's, whether the parent is the
enclosing ``span()`` or named by ``parent_id``, as long as the parent is
still open.  Records carry
``pid`` / ``tid``, so a timeline separates naturally per thread track.

The clock is injectable for deterministic tests.  Code that may run
untraced holds ``tracer=None`` and opens spans through :func:`maybe_span`,
a shared no-op context on that path.

The trainer and the evaluator time their phases with spans only:
:func:`span_profile` sums a tracer's spans into the phase / share summary
that ``TrainResult.profile`` and ``metrics.json``'s ``eval_profile`` carry.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

#: record keys every span dict carries (the JSONL / wire schema)
SPAN_FIELDS = (
    "name", "cat", "trace_id", "span_id", "parent_id",
    "start", "end", "pid", "tid", "attrs",
)


class Span:
    """One timed interval; ``attrs`` may be extended until :meth:`finish`."""

    __slots__ = (
        "name", "cat", "trace_id", "span_id", "parent_id",
        "start", "end", "pid", "tid", "attrs", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        trace_id: Optional[str],
        span_id: str,
        parent_id: Optional[str],
        start: float,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.pid = tracer._pid
        self.tid = threading.get_ident()
        self.attrs: Dict = {}

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def finish(self, **attrs) -> None:
        """Close the span (idempotent) and record it with its tracer.

        This is the serving hot path (two spans per request): the record
        dict is built inline and appended without a lock — ``list.append``
        is atomic under the GIL — and ``attrs`` is recorded by reference,
        which is safe because attrs mutate only *until* finish.
        """
        if self.end is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        tracer = self._tracer
        self.end = end = tracer.clock()
        if self.trace_id is not None:
            tracer._open_trace_ids.pop(self.span_id, None)
        tracer._records.append(
            {
                "name": self.name,
                "cat": self.cat,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "end": end,
                "pid": self.pid,
                "tid": self.tid,
                "attrs": self.attrs,
            }
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """What :func:`maybe_span` hands out without a tracer: writes vanish."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass

    def finish(self, **attrs) -> None:
        pass

    span_id = None
    trace_id = None


_NULL_SPAN = _NullSpan()


class _ScopedSpan:
    """Context manager for :meth:`Tracer.span`: stack entry + auto-finish."""

    __slots__ = ("span", "_stack")

    def __init__(self, span: Span, stack: List[str]) -> None:
        self.span = span
        self._stack = stack

    def __enter__(self) -> Span:
        self._stack.append(self.span.span_id)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._stack.pop()
        self.span.finish()


class _NullContext:
    """The untraced context: hands out the null span, records nothing."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects spans; thread-safe; exports Chrome trace JSON and JSONL."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        process_name: Optional[str] = None,
    ) -> None:
        self.clock = clock or time.perf_counter
        self.process_name = process_name
        self._lock = threading.Lock()
        self._records: List[Dict] = []
        self._ids = itertools.count(1)
        self._stack = threading.local()
        #: trace id of every open span that carries one, for its children
        self._open_trace_ids: Dict[str, str] = {}
        self._pid = os.getpid()
        self._id_prefix = f"{self._pid}-"

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return self._id_prefix + str(next(self._ids))

    def _stack_list(self) -> List[str]:
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        return stack

    @property
    def current_span_id(self) -> Optional[str]:
        """Innermost open ``span()`` on this thread (None at top level)."""
        stack = self._stack_list()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        cat: str = "",
        attrs: Optional[Dict] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ):
        """Open a span that will be closed later with ``span.finish()``.

        Does not join the per-thread nesting stack — this is for intervals
        whose start and end live in different calls (an in-flight request).
        ``parent_id`` defaults to the thread's current ``span()`` context,
        and ``trace_id`` to the parent's while the parent is open.
        """
        if parent_id is None:
            stack = getattr(self._stack, "items", None)
            if stack:
                parent_id = stack[-1]
        if trace_id is None and parent_id is not None:
            trace_id = self._open_trace_ids.get(parent_id)
        span = Span(self, name, cat, trace_id, self._next_id(), parent_id, self.clock())
        if trace_id is not None:
            self._open_trace_ids[span.span_id] = trace_id
        if attrs:
            span.attrs.update(attrs)
        return span

    def span(
        self,
        name: str,
        cat: str = "",
        attrs: Optional[Dict] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> "_ScopedSpan":
        """Scoped span; children opened inside nest under it automatically.

        Returns a slim context manager rather than a generator — the
        ``@contextmanager`` machinery costs about as much as the span
        bookkeeping itself on hot paths.
        """
        span = self.begin(name, cat=cat, attrs=attrs, trace_id=trace_id, parent_id=parent_id)
        return _ScopedSpan(span, self._stack_list())

    # ------------------------------------------------------------------
    def records(self) -> List[Dict]:
        """Finished spans as plain dicts (the JSONL record format)."""
        with self._lock:
            return [dict(record) for record in self._records]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict:
        """The Chrome trace-event JSON object (Perfetto-loadable).

        Spans become complete (``"ph": "X"``) events with microsecond
        ``ts`` / ``dur``; ``span_id`` / ``parent_id`` / ``trace_id`` ride
        in ``args`` so the tree is recoverable from the file alone.
        """
        events: List[Dict] = []
        for record in self.records():
            if record["end"] is None:
                continue
            events.append(
                {
                    "name": record["name"],
                    "cat": record["cat"] or "repro",
                    "ph": "X",
                    "ts": record["start"] * 1e6,
                    "dur": (record["end"] - record["start"]) * 1e6,
                    "pid": record["pid"],
                    "tid": record["tid"],
                    "args": {
                        **record["attrs"],
                        "span_id": record["span_id"],
                        "parent_id": record["parent_id"],
                        "trace_id": record["trace_id"],
                    },
                }
            )
        if events:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": self._pid,
                    "tid": 0,
                    "args": {"name": self.process_name or "repro"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")
        return path

    def write_jsonl(self, path: str) -> str:
        """One span record per line (grep-able; streams without parsing)."""
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")
        return path

    def write(self, path: str) -> str:
        """Chrome trace JSON, or JSONL when ``path`` ends in ``.jsonl``."""
        if path.endswith(".jsonl"):
            return self.write_jsonl(path)
        return self.write_chrome_trace(path)


def maybe_span(tracer: Optional[Tracer], name: str, **kwargs):
    """``tracer.span(...)`` or a no-op context when ``tracer`` is None.

    Lets call sites keep observability optional with zero overhead on the
    ``None`` path — the pattern every instrumented hot loop here uses.
    """
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **kwargs)


def span_profile(
    tracer: Tracer, phases: Dict[str, str], since: int = 0, base: Optional[Dict] = None
) -> Dict:
    """Phase profile of the spans ``tracer`` recorded after record ``since``.

    ``phases`` maps span names to phase keys; a phase's ``seconds`` is the
    summed duration of its spans and ``calls`` their count, and spans with
    other names are skipped.  ``base`` is an earlier profile to add onto,
    so a caller can fold records in as they come and drop them.  The result
    is ``{"total_seconds", "phases": {key: {"seconds", "calls", "share"}},
    "counters"}``, with ``counters`` carried over from ``base``.
    """
    sums = {}
    if base:
        sums = {key: [entry["seconds"], entry["calls"]] for key, entry in base["phases"].items()}
    with tracer._lock:
        records = tracer._records[since:]
    for record in records:
        key = phases.get(record["name"])
        if key is not None:
            entry = sums.setdefault(key, [0.0, 0])
            entry[0] += record["end"] - record["start"]
            entry[1] += 1
    total = sum(seconds for seconds, _ in sums.values())
    return {
        "total_seconds": total,
        "phases": {
            key: {
                "seconds": sums[key][0],
                "calls": sums[key][1],
                "share": sums[key][0] / total if total > 0 else 0.0,
            }
            for key in sorted(sums)
        },
        "counters": dict(base["counters"]) if base else {},
    }
