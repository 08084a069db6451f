"""CI gate for the live observability surface.

Launches ``repro serve --ann --gateway --metrics-port 0 --hold
--trace-out ...`` against an artifact directory, then validates
everything the endpoint promises:

* ``/healthz`` answers,
* ``/metrics`` is strictly Prometheus-parseable
  (:func:`repro.obs.parse_prometheus`) and contains every core serving
  series plus every gateway family (the gateway pre-seeds its label
  series, so shed/flush-trigger families are scrapeable from request one),
  including a live ``ann_index_bytes{tier,kind}`` hot-tier series for the
  attached ANN index,
* ``/stats`` is JSON with the stable :meth:`ServingStats.snapshot` keys
  (now including the ``ann_index_bytes_*`` tier totals),
* the written Chrome trace is valid trace-event JSON holding one complete
  span tree per served request, including the ``gateway.admit`` /
  ``gateway.batch`` spans the gateway wraps around admission and flushes
  and the ``ann.coarse`` / ``ann.merge`` spans of the two-stage search,
* the train trace ``repro train --trace-out <artifacts_dir>/train_trace.json``
  wrote holds ``train.sampling`` / ``train.forward`` / ``train.backward`` /
  ``train.step`` spans parented to ``train.epoch``, and each phase's
  ``seconds`` in ``metrics.json``'s ``train.profile`` is that phase's summed
  span durations (to 1 µs per call: the trace stores microseconds).

Any violation exits non-zero, which is the CI failure.

Usage::

    PYTHONPATH=src python benchmarks/obs_smoke_scrape.py <artifacts_dir>
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.request

from repro.obs import parse_prometheus

#: metric families the serving path must expose (histograms appear in the
#: exposition as _bucket/_sum/_count samples of these family names)
REQUIRED_FAMILIES = (
    "serving_requests_total",
    "serving_cache_lookups_total",
    "serving_batches_total",
    "serving_items_scored_total",
    "serving_request_latency_seconds",
    "serving_queue_wait_seconds",
    "serving_batch_duration_seconds",
    "serving_queue_depth",
    "serving_cache_entries",
    "ann_index_bytes",
)

#: gateway families (``repro serve --gateway``); the gateway pre-seeds the
#: shed-reason and flush-trigger series with zeros so every family appears
#: even on a run where nothing was shed
GATEWAY_FAMILIES = (
    "gateway_requests_total",
    "gateway_shed_total",
    "gateway_flushes_total",
    "gateway_batch_size",
    "gateway_queue_depth",
)

#: snapshot keys /stats must carry (the stable ServingStats surface)
REQUIRED_STATS_KEYS = (
    "requests", "warm_requests", "cold_requests", "batches",
    "latency_p50_ms", "latency_p99_ms", "qps",
    "queue_wait_p99_ms", "batch_duration_p50_ms",
    "ann_index_bytes_hot", "ann_index_bytes_cold", "ann_index_bytes_total",
)


def fetch(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def validate_exposition(text: str) -> None:
    samples = parse_prometheus(text)  # raises on any malformed line
    names = {name for name, _ in samples}
    for family in REQUIRED_FAMILIES + GATEWAY_FAMILIES:
        present = any(
            name == family or name.startswith(family + "_") for name in names
        )
        check(present, f"/metrics is missing core series {family!r}")
    for reason in ("queue_full", "rate_limited", "closed"):
        check(
            ("gateway_shed_total", (("reason", reason),)) in samples,
            f"gateway_shed_total is missing the pre-seeded {reason!r} series",
        )
    admitted = sum(
        value for (name, _), value in samples.items()
        if name == "gateway_requests_total"
    )
    check(admitted >= 4, f"expected >=4 admitted requests in /metrics, saw {admitted}")
    served = sum(
        value for (name, _), value in samples.items()
        if name == "serving_requests_total"
    )
    check(served >= 4, f"expected >=4 served requests in /metrics, saw {served}")
    latency_count = samples.get(("serving_request_latency_seconds_count", ()), 0)
    check(latency_count >= 1, "request latency histogram recorded no observations")
    # --ann attaches a real index, so the memory gauge must report a live
    # hot tier under a non-"none" kind (the family is pre-seeded, but the
    # pre-seed is kind="none" with zero bytes).
    ann_hot = {
        dict(labels).get("kind"): value
        for (name, labels), value in samples.items()
        if name == "ann_index_bytes" and dict(labels).get("tier") == "hot"
    }
    live_kinds = {k: v for k, v in ann_hot.items() if k != "none" and v > 0}
    check(
        bool(live_kinds),
        f"ann_index_bytes has no live hot-tier series (saw {ann_hot})",
    )


def validate_stats(payload: bytes) -> None:
    stats = json.loads(payload)
    missing = [key for key in REQUIRED_STATS_KEYS if key not in stats]
    check(not missing, f"/stats is missing keys {missing}")
    check(stats["requests"] >= 4, f"/stats reports {stats['requests']} requests")


def validate_trace(path: str) -> None:
    check(os.path.exists(path), f"trace file {path} was not written")
    with open(path) as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    check(
        any(e.get("ph") == "M" and e.get("name") == "process_name" for e in events),
        "trace has no process_name metadata event",
    )
    for event in complete:
        for field in ("name", "ts", "dur", "pid", "tid", "args"):
            check(field in event, f"span event missing {field!r}: {event}")
        check(event["dur"] >= 0, f"negative span duration: {event}")

    by_id = {e["args"]["span_id"]: e for e in complete}
    requests = [e for e in complete if e["name"] == "request"]
    check(len(requests) >= 4, f"expected >=4 request spans, found {len(requests)}")
    names = {e["name"] for e in complete}
    # serving runs with --ann, so the batch path traces the two-stage ANN
    # search (coarse probe + fine scoring + merge) instead of engine.topk
    for required in (
        "request", "cache.lookup", "flush",
        "ann.coarse", "ann.merge",
        "gateway.admit", "gateway.batch",
    ):
        check(required in names, f"trace is missing {required!r} spans")
    request_ids = {e["args"]["span_id"] for e in requests}
    lookups = [e for e in complete if e["name"] == "cache.lookup"]
    for lookup in lookups:
        check(
            lookup["args"]["parent_id"] in request_ids,
            "cache.lookup span is not parented to a request span",
        )
    # every non-root span must resolve to a recorded parent: no orphans
    for event in complete:
        parent = event["args"].get("parent_id")
        check(
            parent is None or parent in by_id,
            f"span {event['name']} references unknown parent {parent}",
        )


def validate_train_trace(artifacts: str) -> None:
    path = os.path.join(artifacts, "train_trace.json")
    check(os.path.exists(path), f"train trace {path} was not written")
    with open(path) as handle:
        events = [e for e in json.load(handle)["traceEvents"] if e.get("ph") == "X"]
    with open(os.path.join(artifacts, "metrics.json")) as handle:
        phases = json.load(handle)["train"]["profile"]["phases"]
    epochs = {e["args"]["span_id"] for e in events if e["name"] == "train.epoch"}
    check(bool(epochs), "train trace has no train.epoch span")
    for phase in ("sampling", "forward", "backward", "step"):
        spans = [e for e in events if e["name"] == f"train.{phase}"]
        check(bool(spans), f"train trace is missing train.{phase} spans")
        check(
            all(e["args"]["parent_id"] in epochs for e in spans),
            f"a train.{phase} span is not parented to a train.epoch span",
        )
        recorded = phases[phase]
        check(
            recorded["calls"] == len(spans),
            f"train.profile {phase} calls {recorded['calls']} != {len(spans)} spans",
        )
        traced_us = sum(e["dur"] for e in spans)
        check(
            abs(recorded["seconds"] * 1e6 - traced_us) <= len(spans),
            f"train.profile {phase} seconds {recorded['seconds']} != "
            f"summed span durations {traced_us} us",
        )


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    artifacts = sys.argv[1]
    trace_path = os.path.join(artifacts, "serve_trace.json")
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve", artifacts,
            "--ann", "--gateway", "--metrics-port", "0", "--hold",
            "--trace-out", trace_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port = None
    try:
        # The serve process prints its bound port, answers the dry-run
        # queries, writes the trace, then holds the endpoint open.
        deadline = time.monotonic() + 120
        transcript = []
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                check(False, f"serve exited early:\n{''.join(transcript)}")
            transcript.append(line)
            if line.startswith("metrics: http://"):
                port = int(line.split("127.0.0.1:")[1].split("/")[0])
            if line.startswith("holding metrics endpoint"):
                break
        check(port is not None, f"never saw the metrics URL:\n{''.join(transcript)}")

        base = f"http://127.0.0.1:{port}"
        health = json.loads(fetch(f"{base}/healthz"))
        check(health.get("status") == "ok", f"unexpected /healthz body: {health}")
        validate_exposition(fetch(f"{base}/metrics").decode())
        validate_stats(fetch(f"{base}/stats"))
        validate_trace(trace_path)
        validate_train_trace(artifacts)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    finally:
        process.terminate()
        process.wait(timeout=15)
    print(
        f"PASS: /metrics parseable with {len(REQUIRED_FAMILIES)} core + "
        f"{len(GATEWAY_FAMILIES)} gateway families, /stats stable, "
        f"trace at {trace_path} complete, train trace matches train.profile"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
