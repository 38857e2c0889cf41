"""Unit tests for the ring-buffer event tracer."""

from repro.obs import Tracer


def test_emit_and_read_back():
    tracer = Tracer(capacity=8)
    tracer.emit("querier.send", 1.0, 1.5, detail="udp")
    spans = tracer.spans()
    assert len(spans) == 1
    span = spans[0]
    assert span.kind == "querier.send"
    assert span.start == 1.0
    assert span.end == 1.5
    assert span.duration == 0.5
    assert span.detail == "udp"


def test_ring_overflow_keeps_newest_and_counts_dropped():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.emit("k", float(i))
    spans = tracer.spans()
    assert len(spans) == 4
    # Oldest-first ordering of the surviving (newest) spans.
    assert [s.start for s in spans] == [6.0, 7.0, 8.0, 9.0]
    assert tracer.dropped == 6


def test_counts_are_exact_despite_overflow():
    tracer = Tracer(capacity=2)
    for _ in range(5):
        tracer.emit("a", 0.0)
    for _ in range(3):
        tracer.emit("b", 0.0)
    assert tracer.counts() == {"a": 5, "b": 3}


def test_snapshot_shape():
    tracer = Tracer(capacity=4)
    for i in range(6):
        tracer.emit("x", float(i))
    snap = tracer.snapshot()
    assert snap == {"capacity": 4, "emitted": 6, "dropped": 2,
                    "kinds": {"x": 6}}


def test_merge_interleaves_by_start_and_keeps_counts_exact():
    ours, theirs = Tracer(capacity=4), Tracer(capacity=4)
    for i in (0, 2, 4):
        ours.emit("client", float(i))
    for i in (1, 3, 5, 7, 9, 11):
        theirs.emit("server", float(i))     # two dropped
    ours.merge(theirs)
    assert [s.start for s in ours.spans()] == [5.0, 7.0, 9.0, 11.0]
    assert ours.counts() == {"client": 3, "server": 6}
    assert (ours.emitted, ours.dropped) == (9, 5)
    ours.emit("client", 12.0)               # still a ring, newest last
    assert [s.start for s in ours.spans()] == [7.0, 9.0, 11.0, 12.0]


def test_merge_below_capacity_keeps_every_span():
    ours, theirs = Tracer(capacity=8), Tracer(capacity=8)
    ours.emit("a", 2.0)
    theirs.emit("b", 1.0)
    ours.merge(theirs)
    assert [(s.kind, s.start) for s in ours.spans()] == [("b", 1.0),
                                                         ("a", 2.0)]
    assert ours.dropped == 0
