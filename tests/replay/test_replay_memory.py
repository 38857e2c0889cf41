"""What a timed replay keeps per record is small and does not grow with
the trace.

The Reader admits a record only once its ΔT instant is within
``READ_HORIZON`` of now, so the scheduler holds the querier timers of
one horizon of the trace, not all of it; and a querier keeps each
result as a row of typed columns that names its record by input index,
with no decoded copy of the record.  A B-Root analogue is replayed
through the controller at one and four times the length: the scheduler
heap peaks at about ``rate × READ_HORIZON`` events either way, and what
the run retains per record (``tracemalloc``, with the trace built
before measuring) stays under a fixed bound.  A Reader that parks the
whole trace on querier timers makes a heap as deep as the trace.
"""

import gc
import tracemalloc

import pytest

from repro.check.invariants import InvariantViolation
from repro.experiments.harness import authoritative_world, root_zone_world
from repro.netsim.clock import Scheduler
from repro.replay import controller as controller_module
from repro.replay import distributor as distributor_module
from repro.replay.timing import READ_HORIZON
from repro.trace.record import _query_tail
from repro.workloads.broot import BRootParams, generate_broot_trace

SEED = 11
RATE = 500.0            # queries per second of trace
SECONDS = 2.0           # trace length at 1x
# Bytes a replay retains per record it adds: the result columns, the
# server's query log and the input index (267 measured; 825 when every
# result kept an object and a decoded record).
BYTES_PER_RECORD = 450
PEAK_HEAP = 1_000


def broot_analogue(scale):
    internet = root_zone_world(tlds=20, slds_per_tld=20, seed=SEED)
    internet.sign_all(root_only=True)
    trace = generate_broot_trace(internet, BRootParams(
        duration=SECONDS * scale, mean_rate=RATE, clients=1000,
        do_fraction=0.723, tcp_fraction=0.0, junk_fraction=0.30,
        seed=SEED))
    return internet, trace


def deepest_heap(monkeypatch) -> list[int]:
    """Track the scheduler heap's greatest depth from now on."""
    peak = [0]
    for name in ("at", "after"):
        schedule = getattr(Scheduler, name)

        def tracked(self, *args, schedule=schedule, **kwargs):
            event = schedule(self, *args, **kwargs)
            if len(self._heap) > peak[0]:
                peak[0] = len(self._heap)
            return event
        monkeypatch.setattr(Scheduler, name, tracked)
    return peak


def replay(internet, trace, **knobs):
    world = authoritative_world([internet.root_zone], mode="distributed",
                                seed=SEED, **knobs)
    return world, world.run(trace).report


def measured_replay(monkeypatch, scale) -> tuple[int, int, int]:
    """Replay the analogue at *scale*: (records, bytes the run retains,
    deepest scheduler heap).  The trace is built before measuring, and
    the query-bytes memo, a cache bounded at ``QUERY_WIRE_MEMO``
    questions whatever the length, is emptied on both sides."""
    internet, trace = broot_analogue(scale)
    peak = deepest_heap(monkeypatch)
    _query_tail.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world, report = replay(internet, trace)
        _query_tail.cache_clear()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.answered_fraction() == 1.0
    assert len(report.results) == len(trace) >= 900 * scale
    return len(trace), retained, peak[0]


def test_retained_bytes_and_heap_do_not_grow_with_the_trace(monkeypatch):
    """Each record the longer trace adds costs at most BYTES_PER_RECORD
    (what a run keeps per source and per distinct question is paid once,
    so the growth is the per-record cost), and the heap peaks at about
    a horizon's worth of timers at either length."""
    short, long = (measured_replay(monkeypatch, scale) for scale in (1, 4))
    (records_1, retained_1, heap_1), (records_4, retained_4, heap_4) = \
        short, long
    per_record = (retained_4 - retained_1) / (records_4 - records_1)
    assert per_record <= BYTES_PER_RECORD, (short, long)
    for heap in (heap_1, heap_4):
        assert heap <= PEAK_HEAP, (heap_1, heap_4)
        assert heap < RATE * READ_HORIZON * 2


def test_rows_name_their_record_by_input_index():
    internet, trace = broot_analogue(1)
    world, report = replay(internet, trace)
    ordered = trace.sorted().records
    assert sorted(r.index for r in report.results) \
        == list(range(len(ordered)))
    assert all(r.record is ordered[r.index] for r in report.results)
    sends = [r.send_time for r in report.results]
    assert sends == sorted(sends)


def test_checked_replay_holds_the_horizon_invariant():
    """``check=True``: every record the horizon held reaches its
    querier at least half a horizon before its ΔT instant."""
    internet, trace = broot_analogue(1)
    world, report = replay(internet, trace, check=True)
    assert report.answered_fraction() == 1.0


@pytest.mark.parametrize("mode", ["distributed", "direct"])
def test_a_horizon_that_wakes_at_the_instant_is_caught(monkeypatch, mode):
    """A planted bug: the reader sleeps until a held record's instant
    instead of half a horizon before it, so the record reaches its
    querier late because of the horizon.  ``check=True`` names it."""
    module = controller_module if mode == "distributed" \
        else distributor_module
    monkeypatch.setattr(module, "horizon_wake", lambda instant: instant)
    internet, trace = broot_analogue(1)
    world = authoritative_world([internet.root_zone], mode=mode,
                                seed=SEED, check=True)
    with pytest.raises(InvariantViolation, match="read horizon"):
        world.run(trace)
