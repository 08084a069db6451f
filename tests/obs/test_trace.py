"""Tracer: deterministic spans, linkage, Chrome-trace schema, merging."""

import json
import os
import threading

import pytest

from repro.obs.trace import SPAN_FIELDS, Tracer, maybe_span


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        self.t += 0.25
        return self.t


class TestSpans:
    def test_span_records_start_end_with_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work"):
            pass
        (record,) = tracer.records()
        assert record["name"] == "work"
        assert record["start"] == pytest.approx(100.25)
        assert record["end"] == pytest.approx(100.50)
        assert record["pid"] == os.getpid()

    def test_nesting_builds_parent_child_linkage(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                assert child.parent_id == parent.span_id
            with tracer.span("sibling") as sibling:
                pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["child"]["parent_id"] == records["parent"]["span_id"]
        assert records["sibling"]["parent_id"] == records["parent"]["span_id"]
        assert records["parent"]["parent_id"] is None

    def test_begin_finish_crosses_calls_without_touching_stack(self):
        tracer = Tracer(clock=FakeClock())
        request = tracer.begin("request", attrs={"user": 7})
        with tracer.span("flush") as flush:
            assert flush.parent_id is None  # begin() did not join the stack
        request.finish(source="warm")
        records = {r["name"]: r for r in tracer.records()}
        assert records["request"]["attrs"] == {"user": 7, "source": "warm"}
        assert records["request"]["end"] > records["request"]["start"]

    def test_finish_is_idempotent(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.begin("x")
        span.finish()
        end = tracer.records()[0]["end"]
        span.finish()
        assert len(tracer) == 1
        assert tracer.records()[0]["end"] == end

    def test_explicit_parent_and_trace_id(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("child", parent_id="foreign-1", trace_id="req-9"):
            pass
        (record,) = tracer.records()
        assert record["parent_id"] == "foreign-1"
        assert record["trace_id"] == "req-9"

    def test_children_inherit_the_parent_trace_id(self):
        tracer = Tracer(clock=FakeClock())

        def work():
            with tracer.span("worker", parent_id=outer.span_id):
                pass

        with tracer.span("outer", trace_id="req-1") as outer:
            with tracer.span("scoped"):
                with tracer.span("grandchild"):
                    pass
            tracer.begin("begun").finish()
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            with tracer.span("own", trace_id="req-2"):
                pass
        tracer.begin("late", parent_id=outer.span_id).finish()
        tracer.begin("orphan").finish()
        trace_ids = {r["name"]: r["trace_id"] for r in tracer.records()}
        assert trace_ids == {
            "outer": "req-1", "scoped": "req-1", "grandchild": "req-1",
            "begun": "req-1", "worker": "req-1", "own": "req-2",
            # a closed parent hands nothing on, and no parent means no trace
            "late": None, "orphan": None,
        }

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work") as span:
            span.set_attr("k", 1)
        assert tracer.begin("x").span_id is None
        assert len(tracer) == 0

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        seen = {}

        def work(tag):
            with tracer.span(f"root-{tag}"):
                seen[tag] = tracer.current_span_id

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen.values())) == 4
        assert all(r["parent_id"] is None for r in tracer.records())


class TestRecords:
    def test_span_fields_cover_records(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x"):
            pass
        assert set(tracer.records()[0]) == set(SPAN_FIELDS)


class TestExport:
    def _tracer_with_tree(self):
        tracer = Tracer(clock=FakeClock(), process_name="svc")
        with tracer.span("flush", attrs={"n": 2}):
            with tracer.span("batch"):
                pass
        return tracer

    def test_chrome_trace_schema(self, tmp_path):
        tracer = self._tracer_with_tree()
        path = tracer.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as handle:
            payload = json.load(handle)
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event)
            assert event["dur"] > 0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        by_name = {e["name"]: e for e in complete}
        assert by_name["batch"]["args"]["parent_id"] == by_name["flush"]["args"]["span_id"]
        # microsecond timestamps: 0.25 fake-clock ticks = 250_000 us
        assert by_name["batch"]["dur"] == pytest.approx(250_000)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "svc"

    def test_unfinished_spans_are_excluded_from_chrome_trace(self):
        tracer = Tracer(clock=FakeClock())
        tracer.begin("open-forever")
        with tracer.span("done"):
            pass
        events = [e for e in tracer.to_chrome_trace()["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["done"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._tracer_with_tree()
        path = tracer.write(str(tmp_path / "trace.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert lines == tracer.records()

    def test_write_dispatches_on_extension(self, tmp_path):
        tracer = self._tracer_with_tree()
        chrome = tracer.write(str(tmp_path / "t.json"))
        assert "traceEvents" in json.load(open(chrome))


class TestMaybeSpan:
    def test_none_tracer_yields_null_span(self):
        with maybe_span(None, "x") as span:
            span.set_attr("k", 1)  # must not raise

    def test_real_tracer_records(self):
        tracer = Tracer(clock=FakeClock())
        with maybe_span(tracer, "x", attrs={"a": 1}):
            pass
        assert tracer.records()[0]["attrs"] == {"a": 1}
