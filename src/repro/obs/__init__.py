"""repro.obs — the unified observability layer.

Three pieces, one spine:

* :mod:`repro.obs.metrics` — thread-safe Counter / Gauge / Histogram with
  labels in a :class:`MetricsRegistry`; histograms use fixed log-spaced
  buckets so percentiles *merge* across processes; exporters for the
  Prometheus text exposition and JSON.
* :mod:`repro.obs.trace` — :class:`Tracer` context-manager spans with
  parent/child linkage, exported as Chrome-trace-event JSON (Perfetto)
  or JSONL; spans opened on any thread land in one tracer.
* :mod:`repro.obs.server` — a stdlib HTTP :class:`MetricsServer` with
  ``/metrics``, ``/stats``, and ``/healthz`` (``repro serve
  --metrics-port``).

Everything downstream — :class:`~repro.serving.stats.ServingStats`, the
:class:`~repro.profiling.Profiler`, the batch runtime's per-chunk
spans and timings, the CLI's ``--trace-out`` — is built on these primitives.
See ``docs/observability.md`` for the metric catalog and trace workflow.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    parse_prometheus,
)
from .server import MetricsServer
from .trace import Span, Tracer, maybe_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "Span",
    "Tracer",
    "DEFAULT_BUCKETS",
    "log_buckets",
    "maybe_span",
    "parse_prometheus",
]
