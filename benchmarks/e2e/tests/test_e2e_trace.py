"""The span recorder: parents, cross-thread attachment, self time."""

import threading

from e2e import trace


def _span(id, name, start, end, parent=None, op=0):
    span = trace.Span(id, name, start, parent, op, thread=0)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "slice", 0.0, 10.0),
        _span(2, "submit", 1.0, 4.0, parent=1),
        _span(3, "flush", 3.0, 6.0, parent=1),  # overlaps submit on another thread
        _span(4, "search", 3.5, 5.0, parent=3),
        _span(5, "late", 9.0, 12.0, parent=1),  # clipped to the parent's end
    ]
    own = trace.self_times(spans)
    assert own[1] == 10.0 - (5.0 + 1.0)  # [1,6] and [9,10]
    assert own[3] == 3.0 - 1.5
    assert own[2] == 3.0
    assert trace.attributed_share(spans) == 0.6
    table = trace.layer_table(spans)
    assert table["flush"] == {"calls": 1, "total_s": 3.0, "self_s": 1.5}


def test_orphans_are_spans_whose_parent_was_never_recorded():
    spans = [_span(1, "a", 0, 1), _span(2, "b", 0, 1, parent=1), _span(3, "c", 0, 1, parent=9)]
    assert [s.id for s in trace.orphans(spans)] == [3]


def test_nesting_and_cross_thread_spans_hang_under_the_operation():
    recorder = trace.SpanRecorder()

    class Layer:
        def work(self):
            return 7

    layer = Layer()
    recorder.wrap_method(layer, "work", "layer.work")
    with recorder.operation("slice", op=3) as root:
        with recorder.span("outer") as outer:
            assert layer.work() == 7
        worker = threading.Thread(target=layer.work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    assert by_name["slice"][0].parent is None
    assert outer.parent == root.id
    inner, threaded = by_name["layer.work"]
    assert inner.parent == outer.id
    assert threaded.parent == root.id and threaded.thread != root.thread
    assert {span.op for span in recorder.spans} == {3}
    assert not trace.orphans(recorder.spans)
    assert 0.0 < trace.attributed_share(recorder.spans) <= 1.0
    # Outside an operation a span has neither parent nor operation id.
    with recorder.span("ledger.step") as loose:
        pass
    assert loose.parent is None and loose.op is None
