"""Thread-safe metrics primitives: Counter / Gauge / Histogram with labels.

The registry is the one place the serving stack (service, gateway,
resilience layer) reports counts into, and the one place exporters read
from; offline timing is spans (:mod:`repro.obs.trace`).  Three design
rules make that work:

* **Thread safety.**  Every mutation happens under the registry lock, so a
  metric can be shared by the batch runtime's chunk threads, the serving
  queue, and a scrape thread without torn read-modify-writes.

* **Mergeability.**  :class:`Histogram` uses *fixed log-spaced buckets*
  (the same layout in every registry by construction), so two histograms —
  two replicas' registries, say — merge by adding bucket counts, and the merged percentiles are exactly what one
  registry observing all the samples would report.  This is the property the sliding-window
  :class:`~repro.serving.stats.LatencyRecorder` cannot offer, and what
  :meth:`MetricsRegistry.merge` relies on to fold one registry's snapshot
  (:meth:`MetricsRegistry.to_json`) into another.

* **Plain-data export.**  :meth:`MetricsRegistry.to_json` is a JSON-safe
  dict that round-trips through ``merge``; :meth:`to_prometheus` renders
  the text exposition format (version 0.0.4) that ``/metrics`` serves and
  :func:`parse_prometheus` reads back (used by the CI scrape gate).

No clock is consulted unless a timer context manager is used, and that
clock is injectable (``MetricsRegistry(clock=...)``) for deterministic
tests.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(
    start: float = 1e-6, stop: float = 1e2, per_decade: int = 4
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds covering ``[start, stop]``.

    The default spans 1 µs .. 100 s at four buckets per decade (33 bounds
    plus the implicit +Inf overflow) — wide enough for every latency this
    codebase measures, and *identical in every process*, which is what
    makes histograms built on it mergeable by bucket-count addition.
    """
    if start <= 0 or stop <= start:
        raise ValueError(f"need 0 < start < stop, got ({start}, {stop})")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    decades = math.log10(stop / start)
    n = int(round(decades * per_decade))
    # Powers are computed from integer exponents so every process derives
    # bit-identical bounds (a cumulative multiply would drift).
    return tuple(start * 10.0 ** (i / per_decade) for i in range(n + 1))


DEFAULT_BUCKETS = log_buckets()


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(label_names)
    for name in names:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names}")
    return names


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Series:
    """One (metric, label-values) time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class _HistogramSeries:
    """Bucket counts + sum/count/min/max for one labelled histogram series."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf


class Metric:
    """Base class: a named family of series, one per label-value tuple.

    ``labels(**values)`` returns a bound handle (:class:`BoundCounter` and
    friends) whose mutators take the registry lock.  Unlabelled metrics
    expose the mutators directly on the metric for convenience.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        lock: threading.RLock,
        clock: Callable[[], float],
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(label_names)
        self._lock = lock
        self._clock = clock
        self._series: Dict[Tuple[str, ...], object] = {}

    # ------------------------------------------------------------------
    def _key(self, label_values: Dict[str, str]) -> Tuple[str, ...]:
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got "
                f"{tuple(sorted(label_values))}"
            )
        return tuple(str(label_values[name]) for name in self.label_names)

    def _new_series(self):
        return _Series()

    def _get_series(self, key: Tuple[str, ...]):
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._new_series()
        return series

    def _require_unlabelled(self) -> Tuple[str, ...]:
        if self.label_names:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; use "
                f".labels(...) to pick a series"
            )
        return ()

    # ------------------------------------------------------------------
    def items(self) -> List[Tuple[Dict[str, str], object]]:
        """``(label-dict, series)`` pairs, insertion-ordered (snapshot)."""
        with self._lock:
            return [
                (dict(zip(self.label_names, key)), series)
                for key, series in self._series.items()
            ]

    def clear(self) -> None:
        """Drop every series (counts restart from zero)."""
        with self._lock:
            self._series.clear()


class Counter(Metric):
    """Monotonically increasing sum (requests served, seconds accumulated)."""

    kind = "counter"

    def labels(self, **label_values: str) -> "BoundCounter":
        return BoundCounter(self, self._key(label_values))

    def inc(self, amount: float = 1.0) -> None:
        self.labels_key(self._require_unlabelled(), amount)

    def labels_key(self, key: Tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        with self._lock:
            self._get_series(key).value += amount

    def value(self, **label_values: str) -> float:
        key = self._key(label_values) if label_values else self._require_unlabelled()
        with self._lock:
            series = self._series.get(key)
            return series.value if series is not None else 0.0

    def value_for(self, key: Tuple[str, ...]) -> float:
        with self._lock:
            series = self._series.get(key)
            return series.value if series is not None else 0.0


class BoundCounter:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Counter, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric.labels_key(self._key, amount)

    @property
    def value(self) -> float:
        return self._metric.value_for(self._key)


class Gauge(Metric):
    """A value that can go up and down (queue depth, cache entries)."""

    kind = "gauge"

    def labels(self, **label_values: str) -> "BoundGauge":
        return BoundGauge(self, self._key(label_values))

    def set(self, value: float) -> None:
        self.set_key(self._require_unlabelled(), value)

    def inc(self, amount: float = 1.0) -> None:
        self.add_key(self._require_unlabelled(), amount)

    def dec(self, amount: float = 1.0) -> None:
        self.add_key(self._require_unlabelled(), -amount)

    def set_key(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._get_series(key).value = float(value)

    def add_key(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._get_series(key).value += amount

    def value(self, **label_values: str) -> float:
        key = self._key(label_values) if label_values else self._require_unlabelled()
        with self._lock:
            series = self._series.get(key)
            return series.value if series is not None else 0.0


class BoundGauge:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Gauge, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def set(self, value: float) -> None:
        self._metric.set_key(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._metric.add_key(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._metric.add_key(self._key, -amount)


class Histogram(Metric):
    """Distribution over fixed log-spaced buckets; percentiles are mergeable.

    ``observe(v)`` adds ``v`` to the bucket whose upper bound is the first
    ``>= v`` (values past the last bound land in the +Inf overflow bucket).
    Because the bucket layout is fixed at construction and shared by every
    process (:data:`DEFAULT_BUCKETS`), histograms merge by adding counts —
    the estimated percentiles of a merge are identical to those of one
    histogram that observed every sample.  ``percentile`` interpolates
    linearly inside the winning bucket and clamps to the observed
    ``[min, max]``, so its error is bounded by the bucket width (~78% at
    four buckets per decade), never by the sample count.
    """

    kind = "histogram"

    def __init__(self, *args, buckets: Optional[Sequence[float]] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing and non-empty")
        self.bounds = bounds

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.bounds) + 1)

    def labels(self, **label_values: str) -> "BoundHistogram":
        return BoundHistogram(self, self._key(label_values))

    def observe(self, value: float) -> None:
        self.observe_key(self._require_unlabelled(), value)

    def observe_key(self, key: Tuple[str, ...], value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            series = self._get_series(key)
            series.counts[index] += 1
            series.sum += value
            series.count += 1
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    @contextmanager
    def time(self) -> Iterator[None]:
        """Scoped timer into the unlabelled series (registry clock)."""
        key = self._require_unlabelled()
        start = self._clock()
        try:
            yield
        finally:
            self.observe_key(key, self._clock() - start)

    # ------------------------------------------------------------------
    def _series_or_none(self, label_values: Dict[str, str]) -> Optional[_HistogramSeries]:
        key = self._key(label_values) if label_values else self._require_unlabelled()
        with self._lock:
            return self._series.get(key)

    def count(self, **label_values: str) -> int:
        series = self._series_or_none(label_values)
        return series.count if series is not None else 0

    def sum(self, **label_values: str) -> float:
        series = self._series_or_none(label_values)
        return series.sum if series is not None else 0.0

    def mean(self, **label_values: str) -> float:
        series = self._series_or_none(label_values)
        if series is None or series.count == 0:
            return 0.0
        return series.sum / series.count

    def percentile(self, q: float, **label_values: str) -> float:
        """Estimated q-th percentile from bucket counts (O(buckets)).

        Finds the bucket holding the target rank, interpolates linearly
        between its edges, and clamps to the observed min/max — so a
        single-sample histogram reports that sample exactly, and estimates
        never fall outside the observed range.
        """
        series = self._series_or_none(label_values)
        if series is None or series.count == 0:
            return 0.0
        with self._lock:
            counts = list(series.counts)
            total, lo_obs, hi_obs = series.count, series.min, series.max
        target = (q / 100.0) * total
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            if cumulative >= target and count > 0:
                lower = self.bounds[index - 1] if index >= 1 else 0.0
                upper = self.bounds[index] if index < len(self.bounds) else hi_obs
                fraction = (target - (cumulative - count)) / count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, lo_obs), hi_obs)
        return hi_obs


class BoundHistogram:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        self._metric.observe_key(self._key, value)


class MetricsRegistry:
    """A named, ordered collection of metrics with exporters and merge.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for an
    existing name returns the same object (so independent subsystems can
    share a series), while re-registering under a different type, label
    set, or bucket layout is an error — silent divergence would corrupt
    merged data.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.RLock()
        self._metrics: "Dict[str, Metric]" = {}
        self.clock = clock or time.perf_counter

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name!r} is already registered as a {existing.kind}"
                    )
                if existing.label_names != tuple(labels):
                    raise ValueError(
                        f"{name!r} is registered with labels {existing.label_names}, "
                        f"not {tuple(labels)}"
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None and tuple(float(b) for b in buckets) != existing.bounds:
                    raise ValueError(f"{name!r} is registered with different buckets")
                return existing
            metric = cls(name, help, tuple(labels), self._lock, self.clock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._metrics)

    def clear(self) -> None:
        """Drop every metric (a fresh registry; exporters see nothing)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """JSON-safe snapshot; the wire format :meth:`merge` accepts.

        Histogram series carry their raw (non-cumulative) bucket counts and
        bounds, so a snapshot is self-describing and two snapshots merge
        without reference to the registry that produced them.
        """
        out: Dict = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            series_out = []
            for labels, series in metric.items():
                if metric.kind == "histogram":
                    series_out.append(
                        {
                            "labels": labels,
                            "counts": list(series.counts),
                            "sum": series.sum,
                            "count": series.count,
                            "min": None if series.count == 0 else series.min,
                            "max": None if series.count == 0 else series.max,
                        }
                    )
                else:
                    series_out.append({"labels": labels, "value": series.value})
            entry: Dict = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "series": series_out,
            }
            if metric.kind == "histogram":
                entry["bounds"] = list(metric.bounds)
            out[metric.name] = entry
        return out

    def merge(self, snapshot: Dict) -> None:
        """Fold a :meth:`to_json` snapshot (e.g. an evaluation pass's) in.

        Counters and histogram counts/sums add; gauges take the incoming
        value (last write wins — a point-in-time reading has no meaningful
        sum).  Merging is associative and commutative for counters and
        histograms, which is what makes sharded aggregation order-free.
        """
        for name, entry in snapshot.items():
            kind = entry["type"]
            labels = tuple(entry.get("labels") or ())
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""), labels)
                for series in entry["series"]:
                    key = metric._key(series["labels"]) if labels else ()
                    metric.labels_key(key, float(series["value"]))
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""), labels)
                for series in entry["series"]:
                    key = metric._key(series["labels"]) if labels else ()
                    metric.set_key(key, float(series["value"]))
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""), labels, buckets=entry.get("bounds")
                )
                if entry.get("bounds") is not None and tuple(entry["bounds"]) != metric.bounds:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket layouts differ"
                    )
                for series in entry["series"]:
                    key = metric._key(series["labels"]) if labels else ()
                    with self._lock:
                        target = metric._get_series(key)
                        counts = series["counts"]
                        if len(counts) != len(target.counts):
                            raise ValueError(
                                f"cannot merge histogram {name!r}: bucket layouts differ"
                            )
                        for index, count in enumerate(counts):
                            target.counts[index] += count
                        target.sum += float(series["sum"])
                        target.count += int(series["count"])
                        if series.get("min") is not None:
                            target.min = min(target.min, float(series["min"]))
                        if series.get("max") is not None:
                            target.max = max(target.max, float(series["max"]))
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, series in metric.items():
                values = tuple(labels[name] for name in metric.label_names)
                if metric.kind == "histogram":
                    cumulative = 0
                    for index, bound in enumerate(metric.bounds):
                        cumulative += series.counts[index]
                        bucket_labels = _label_str(
                            metric.label_names + ("le",),
                            values + (_format_value(bound),),
                        )
                        lines.append(f"{metric.name}_bucket{bucket_labels} {cumulative}")
                    cumulative += series.counts[-1]
                    inf_labels = _label_str(
                        metric.label_names + ("le",), values + ("+Inf",)
                    )
                    lines.append(f"{metric.name}_bucket{inf_labels} {cumulative}")
                    plain = _label_str(metric.label_names, values)
                    lines.append(f"{metric.name}_sum{plain} {_format_value(series.sum)}")
                    lines.append(f"{metric.name}_count{plain} {series.count}")
                else:
                    plain = _label_str(metric.label_names, values)
                    lines.append(f"{metric.name}{plain} {_format_value(series.value)}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Exposition-format parsing (tests + the CI scrape gate)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(text: str) -> str:
    return text.replace(r"\"", '"').replace(r"\n", "\n").replace(r"\\", "\\")


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse text exposition into ``{(name, sorted-label-pairs): value}``.

    Strict enough to be a CI gate: a malformed sample line (not a comment,
    not blank, not ``name{labels} value``) raises ``ValueError`` instead of
    being skipped.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line {line_number}: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
            leftover = _LABEL_PAIR_RE.sub("", raw).replace(",", "").strip()
            if leftover:
                raise ValueError(f"unparseable labels on line {line_number}: {raw!r}")
        raw_value = match.group("value")
        value = {"+Inf": math.inf, "-Inf": -math.inf, "NaN": math.nan}.get(raw_value)
        if value is None:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"unparseable sample value on line {line_number}: {raw_value!r}"
                )
        samples[(match.group("name"), tuple(sorted(labels.items())))] = value
    return samples
