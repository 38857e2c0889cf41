"""Unit tests for the controller (Reader + Postman) and distributor."""

import math
from collections import Counter

import pytest

from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.tcp import MSS
from repro.replay import controller as controller_module
from repro.replay.controller import (READER_PER_RECORD, RECORD_FRAME,
                                     SYNC_FRAME, Controller,
                                     DistributorEndpoint, record_frame)
from repro.replay.distributor import Distributor
from repro.replay.querier import Querier
from repro.replay.supervisor import SupervisionConfig
from repro.trace.record import QueryRecord


def build(monkeypatch, read_window=8):
    """One controller, distributor and two queriers; the Reader pulls
    *read_window* records a pass."""
    monkeypatch.setattr(controller_module, "READ_WINDOW", read_window)
    sim = Simulator()
    server = sim.add_host("server", ["10.0.0.9"], LinkParams())
    server.udp_socket(53).on_datagram = lambda *a: None
    client_host = sim.add_host("client", ["10.3.0.1"], LinkParams())
    queriers = [Querier(client_host, "10.0.0.9", name=f"q{i}")
                for i in range(2)]
    distributor = Distributor(client_host, queriers, seed=1)
    controller_host = sim.add_host("controller", ["10.4.0.1"],
                                   LinkParams())
    controller = Controller(controller_host, [distributor])
    return sim, controller, distributor, queriers


def records(n, clients=4, gap=0.01):
    return [QueryRecord(time=i * gap, src=f"s{i % clients}",
                        qname=f"u{i}.example.com.") for i in range(n)]


def start(controller, batch):
    """Start the Reader on *batch*, whose first trace time is 0."""
    controller.start(batch, 0.0, READER_PER_RECORD)


def test_reader_consumes_in_windows(monkeypatch):
    sim, controller, distributor, queriers = build(monkeypatch, 8)
    start(controller, records(20))
    sim.run_until_idle()
    assert controller.records_read == 20
    assert controller.finished
    assert distributor.records_forwarded == 20


def test_sync_broadcast_reaches_all_queriers(monkeypatch):
    sim, controller, distributor, queriers = build(monkeypatch)
    start(controller, records(5))
    sim.run_until_idle()
    for querier in queriers:
        assert querier.timer.synchronized
        assert querier.timer.trace_t1 == 0.0


def test_lazy_input_consumption(monkeypatch):
    sim, controller, distributor, queriers = build(monkeypatch, 4)
    pulled = []

    def source():
        for record in records(12):
            pulled.append(record)
            yield record

    start(controller, source())
    # After only the first event, at most one window was pulled.
    sim.run(max_events=1)
    assert len(pulled) <= 4
    sim.run_until_idle()
    assert len(pulled) == 12


def test_all_records_delivered_to_queriers(monkeypatch):
    sim, controller, distributor, queriers = build(monkeypatch)
    start(controller, records(30))
    sim.run_until_idle()
    sim.run(until=sim.now + 2.0)
    total = sum(len(q.results) for q in queriers)
    assert total == 30


def test_distributor_balance_over_many_sources():
    sim = Simulator()
    host = sim.add_host("client", ["10.3.0.1"], LinkParams())
    sim.add_host("server", ["10.0.0.9"], LinkParams())
    queriers = [Querier(host, "10.0.0.9", name=f"q{i}")
                for i in range(4)]
    distributor = Distributor(host, queriers, seed=3)
    for i in range(200):
        distributor.pins.member_for(f"src{i}")
    counts = Counter(q.name for q in distributor.pins.table.values())
    assert len(counts) == 4
    assert min(counts.values()) > 20  # roughly balanced random spread


def test_empty_input_finishes_immediately(monkeypatch):
    sim, controller, distributor, queriers = build(monkeypatch)
    start(controller, [])
    sim.run_until_idle()
    assert controller.finished
    assert controller.records_read == 0


def control_segments(controller):
    """Payloads of the data segments the controller host sends."""
    payloads = []

    def tap(packet):
        if packet.proto == "tcp" and packet.payload:
            payloads.append(packet.payload)
        return packet

    controller.host.egress_filters.append(tap)
    return payloads


def test_one_pass_leaves_as_mss_sized_segments(monkeypatch):
    """The Postman writes a pass the way a buffered writer would: one
    write per channel, so the window leaves as ceil(bytes / MSS) data
    segments, not one segment per record.  (The window falls due
    within the read horizon, so the first pass reads all of it.)"""
    n = 200
    sim, controller, distributor, queriers = build(monkeypatch, n)
    sim.run_until_idle()           # the control connection is up
    payloads = control_segments(controller)
    batch = records(n, gap=0.001)
    start(controller, batch)
    sim.run(max_events=1)          # the Reader's first pass
    framed = len(frame_message(bytes([SYNC_FRAME]) + bytes(8))) + sum(
        len(record_frame(r, i)) for i, r in enumerate(batch))
    assert sum(map(len, payloads)) == framed
    assert len(payloads) == math.ceil(framed / MSS)
    assert all(len(p) == MSS for p in payloads[:-1])


class _StallingSupervisor:
    """The two calls the Postman makes on a supervised stall."""

    def __init__(self, high_water):
        self.config = SupervisionConfig(high_water=high_water)
        self.stalls = 0

    def on_stall(self, controller):
        self.stalls += 1

    def on_resume(self, controller):
        pass


def test_stall_mid_pass_writes_exactly_the_frames_en_route(monkeypatch):
    """A pass cut short by the high-water mark still goes out: what is
    on the wire is exactly the record frames the distributor counts
    en route, no more (nothing sent past the mark) and no fewer
    (nothing left behind in the channel's buffer)."""
    high_water = 7
    sim, controller, distributor, queriers = build(monkeypatch, 50)
    sim.run_until_idle()
    payloads = control_segments(controller)
    controller.supervisor = _StallingSupervisor(high_water)
    start(controller, records(50))
    sim.run(max_events=1)
    assert controller.paused and controller.supervisor.stalls == 1
    kinds = []
    framer = LengthPrefixFramer(lambda frame: kinds.append(frame[0]))
    for payload in payloads:
        framer.feed(payload)
    assert framer.pending_bytes() == 0
    assert kinds.count(SYNC_FRAME) == 1
    assert kinds.count(RECORD_FRAME) == distributor.enroute == high_water
    assert controller.channels[0].pending == b""
