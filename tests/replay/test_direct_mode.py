"""Direct mode (Figure 4): each distributor reads the input stream
itself, so the scheduler holds what is in flight, not the trace, and
faults see exactly the arrivals a per-record feed would have shown them.
"""

import pytest

from repro.experiments.harness import wildcard_zone
from repro.netsim import LinkParams, Simulator
from repro.netsim.faults import DistributorLag, FaultPlan, QuerierCrash
from repro.replay import ReplayConfig, ReplayEngine
from repro.replay.supervisor import Pins
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace

READER_COST = 1e-3      # one record per ms: every boundary is exact


def direct_engine(**knobs):
    sim = Simulator()
    host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    AuthoritativeServer(host, zones=[wildcard_zone()])
    config = dict(client_instances=1, queriers_per_instance=2,
                  mode="direct", fast=True, seed=3)
    config.update(knobs)
    return ReplayEngine(sim, "10.0.0.2", ReplayConfig(**config))


def forward_log(engine) -> list:
    """(µs, qname) of every hand-over to a querier, in order."""
    log = []
    scheduler = engine.sim.scheduler
    for querier in engine.queriers:
        def handle(record, index, handle=querier.handle_record):
            log.append((round(scheduler.now * 1e6, 3), record.qname))
            handle(record, index)
        querier.handle_record = handle
    return log


def eight_records() -> Trace:
    return Trace([QueryRecord(time=i * 0.01, src=f"10.9.0.{i % 3 + 1}",
                              qname=f"q{i}.example.com.")
                  for i in range(8)])


def names(*indices) -> list[str]:
    return [f"q{i}.example.com." for i in indices]


# -- work and heap ------------------------------------------------------------


def test_direct_mode_heap_and_events_follow_what_is_in_flight():
    # One source, one name, as fast as possible; the reader (1.5 µs a
    # record) outpaces the distributor (2 µs), so its queue never
    # empties and each record costs the scheduler one hand-over event.
    engine = direct_engine(queriers_per_instance=3, seed=7)
    scheduler = engine.sim.scheduler
    depth_after_feed = []
    feed = engine._open

    def measured_feed(records):
        feed(records)
        depth_after_feed.append(len(scheduler._heap))

    engine._open = measured_feed
    count = 2_000
    record = QueryRecord(time=0.0, src="172.16.0.1",
                         qname="www.example.com.")
    report = engine.run(Trace([record] * count))
    assert report.answered_fraction() == 1.0
    # A sync and an arrival event per distributor, not one per record.
    assert depth_after_feed == [len(engine.distributors) + 1]
    assert engine.distributors[0].records_forwarded == count
    # Four events a record (hand-over, query and response delivery,
    # the querier's send) plus sync and the first arrival; a feed event
    # per record made it 10,002.
    assert scheduler.events_processed == 8_003


def test_each_distributor_forwards_exactly_its_pinned_share():
    engine = direct_engine(client_instances=2, seed=5)
    records = [QueryRecord(time=i * 0.001, src=f"10.9.{i % 7}.{i % 11}",
                           qname=f"n{i % 13}.example.com.")
               for i in range(600)]
    report = engine.run(Trace(records))
    assert report.answered_fraction() == 1.0
    pinned = Pins(engine.distributors, 5).member_for
    shares = {distributor.name: 0 for distributor in engine.distributors}
    for record in records:
        shares[pinned(record.src).name] += 1
    assert all(shares.values())
    assert {distributor.name: distributor.records_forwarded
            for distributor in engine.distributors} == shares


# -- faults at arrival boundaries ---------------------------------------------


def test_no_fault_every_record_is_handed_over_17us_after_it_is_read():
    engine = direct_engine(reader_cost=READER_COST)
    log = forward_log(engine)
    engine.run(eight_records())
    assert log == list(zip([19.0] + [i * 1000 + 17.0 for i in range(1, 8)],
                           names(*range(8))))
    assert engine.distributors[0].peak_depth == 1


def test_lag_starting_at_an_availability_time_covers_that_record():
    # The fault injector is armed before the stream opens, so a fault at
    # t wins the tie with the record available at t: q3 pays the 2 ms
    # lagged CPU slice, q2 (read a millisecond earlier) does not.
    engine = direct_engine(reader_cost=READER_COST, fault_plan=FaultPlan([
        DistributorLag(start=3e-3, duration=2e-3, target="distributor0",
                       factor=1000.0)]))
    log = forward_log(engine)
    engine.run(eight_records())
    assert log == list(zip(
        [19.0, 1017.0, 2017.0, 5015.0, 7015.0, 7017.0, 7019.0, 7021.0],
        names(*range(8))))
    distributor = engine.distributors[0]
    assert distributor.peak_depth == 4
    assert distributor.take_orphans() == []


def test_crash_at_an_availability_time_orphans_that_record():
    engine = direct_engine(reader_cost=READER_COST, fault_plan=FaultPlan([
        QuerierCrash(start=3e-3, target="distributor0")]))
    log = forward_log(engine)
    engine.run(eight_records())
    assert log == list(zip([19.0, 1017.0, 2017.0], names(0, 1, 2)))
    distributor = engine.distributors[0]
    assert distributor.peak_depth == 1
    assert distributor.records_forwarded == 3
    assert [r.qname for _, r in distributor.take_orphans()] == \
        names(3, 4, 5, 6, 7)


def test_crash_with_records_queued_orphans_them_in_stream_order():
    # Lagged from the start, nothing is handed over before 4.015 ms:
    # at the crash q0-q2 are queued, the rest arrive as orphans.
    engine = direct_engine(reader_cost=READER_COST, fault_plan=FaultPlan([
        DistributorLag(start=0.0, duration=5e-3, target="distributor0",
                       factor=1000.0),
        QuerierCrash(start=3e-3, target="distributor0")]))
    log = forward_log(engine)
    engine.run(eight_records())
    distributor = engine.distributors[0]
    assert log == []
    assert distributor.peak_depth == 3
    assert [r.qname for _, r in distributor.take_orphans()] == \
        names(*range(8))


def test_until_cut_reads_what_was_available_and_nothing_after():
    # Lagged from the start, q0 is handed over at 4.015 ms and the next
    # hand-over is due after the cut; q5 became available (at 5 ms,
    # after the lag ended) with no hand-over since, q6 and q7 not yet.
    engine = direct_engine(reader_cost=READER_COST, fault_plan=FaultPlan([
        DistributorLag(start=0.0, duration=5e-3, target="distributor0",
                       factor=1000.0)]))
    log = forward_log(engine)
    engine.run(eight_records(), until=5.5e-3)
    distributor = engine.distributors[0]
    assert log == [(4015.0, "q0.example.com.")]
    assert distributor.records_forwarded == 1
    assert distributor.queue_depth() == 5
    assert distributor.peak_depth == 5
    assert distributor.take_orphans() == []
    # The cut loses nothing: carrying on hands over the rest on time.
    engine.sim.run_until_idle()
    assert log[1:] == list(zip(
        [6015.0, 8015.0, 10015.0, 12015.0, 12017.0, 12019.0, 12021.0],
        names(*range(1, 8))))


def test_a_new_run_after_an_unfinished_cut_is_refused():
    engine = direct_engine(reader_cost=READER_COST)
    engine.run(eight_records(), until=2.5e-3)
    with pytest.raises(RuntimeError, match="previous stream"):
        engine.run(eight_records())


def test_until_cut_after_a_crash_orphans_only_what_was_read():
    engine = direct_engine(reader_cost=READER_COST, fault_plan=FaultPlan([
        QuerierCrash(start=3e-3, target="distributor0")]))
    engine.run(eight_records(), until=5.5e-3)
    distributor = engine.distributors[0]
    assert [r.qname for _, r in distributor.take_orphans()] == names(3, 4, 5)
    engine.sim.run_until_idle()
    assert [r.qname for _, r in distributor.take_orphans()] == names(6, 7)
    assert distributor.records_forwarded == 3


@pytest.mark.parametrize("instances", [1, 2])
def test_empty_trace_schedules_nothing(instances):
    engine = direct_engine(client_instances=instances)
    report = engine.run(Trace([]))
    assert report.results == []
    assert engine.sim.scheduler.events_processed == 0


def test_a_second_run_reads_from_the_clock_not_from_zero():
    # Availability is index × reader_cost but never before the stream
    # opens: a second run on the same engine starts at the clock, where
    # every record's slot has passed, so all eight arrive at once and
    # wait their turn behind each other's 2 µs slices.
    engine = direct_engine(reader_cost=READER_COST, observe=True)
    log = forward_log(engine)
    engine.run(eight_records())
    opened = round(engine.sim.scheduler.now * 1e6, 3)
    del log[:]
    engine.run(eight_records())
    assert [round(t - opened, 3) for t, _ in log] == \
        [19.0, 21.0, 23.0, 25.0, 27.0, 29.0, 31.0, 33.0]
    assert engine.sim.observer.distributor_queue_lag.max == \
        pytest.approx(16e-6)
