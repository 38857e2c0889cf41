"""Tests for querier behaviour: sockets per source, reuse, latency."""

import pytest

from repro.dns.constants import RRType
from repro.netsim import LinkParams, Simulator
from repro.replay.querier import Querier, QuerierConfig
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord

from tests.server.helpers import make_example_zone


def build(tcp_idle_timeout=20.0, delay=0.002, fast=False):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"],
                               LinkParams(delay=delay / 2))
    client_host = sim.add_host("client", ["10.0.0.1"],
                               LinkParams(delay=delay / 2))
    server = AuthoritativeServer(server_host, zones=[make_example_zone()],
                                 tcp_idle_timeout=tcp_idle_timeout,
                                 log_queries=True)
    querier = Querier(client_host, "10.0.0.2",
                      config=QuerierConfig(fast=fast))
    querier.timer.sync(0.0, sim.now)
    return sim, querier, server


def rec(t, src="172.16.0.1", qname="www.example.com.", proto="udp", **kw):
    return QueryRecord(time=t, src=src, qname=qname, proto=proto, **kw)


def test_udp_query_answered():
    sim, querier, server = build()
    querier.handle_record(rec(0.0))
    sim.run_until_idle()
    assert querier.results[0].answered
    assert querier.results[0].rcode == 0
    # One-way delay is `delay`, so a UDP exchange costs one 2*delay RTT.
    assert querier.results[0].latency == pytest.approx(0.004, rel=0.1)


def test_sends_scheduled_at_trace_offsets():
    sim, querier, server = build()
    for i, t in enumerate((0.0, 0.5, 1.25)):
        querier.handle_record(rec(t, qname=f"q{i}.example.com."))
    sim.run_until_idle()
    sends = [r.send_time for r in querier.results]
    assert sends[1] - sends[0] == pytest.approx(0.5, abs=0.002)
    assert sends[2] - sends[0] == pytest.approx(1.25, abs=0.002)


def test_same_source_same_udp_socket():
    sim, querier, server = build()
    querier.handle_record(rec(0.0, src="a"))
    querier.handle_record(rec(0.1, src="a", qname="mail.example.com."))
    querier.handle_record(rec(0.2, src="b"))
    sim.run_until_idle()
    # Server saw two distinct source ports: one per original source.
    ports = {entry.sport for entry in server.query_log}
    assert len(ports) == 2
    assert all(r.answered for r in querier.results)


def test_tcp_connection_reused_within_timeout():
    sim, querier, server = build(tcp_idle_timeout=20.0)
    querier.handle_record(rec(0.0, proto="tcp"))
    querier.handle_record(rec(1.0, proto="tcp",
                              qname="mail.example.com."))
    sim.run(until=10.0)
    assert all(r.answered for r in querier.results)
    # One connection total: reuse worked.
    ports = {entry.sport for entry in server.query_log
             if entry.proto == "tcp"}
    assert len(ports) == 1
    # Second query on the warm connection: ~1 RTT.
    assert querier.results[1].latency < querier.results[0].latency


def test_tcp_reopens_after_server_timeout():
    sim, querier, server = build(tcp_idle_timeout=2.0)
    querier.handle_record(rec(0.0, proto="tcp"))
    querier.handle_record(rec(10.0, proto="tcp",
                              qname="mail.example.com."))
    sim.run(until=30.0)
    assert all(r.answered for r in querier.results)
    ports = {entry.sport for entry in server.query_log
             if entry.proto == "tcp"}
    assert len(ports) == 2  # fresh connection after idle close


def test_different_sources_different_tcp_connections():
    sim, querier, server = build()
    querier.handle_record(rec(0.0, src="a", proto="tcp"))
    querier.handle_record(rec(0.0, src="b", proto="tcp",
                              qname="mail.example.com."))
    sim.run(until=5.0)
    ports = {entry.sport for entry in server.query_log}
    assert len(ports) == 2


def test_tls_query_answered_and_session_reused():
    sim, querier, server = build()
    querier.handle_record(rec(0.0, proto="tls"))
    querier.handle_record(rec(1.0, proto="tls",
                              qname="mail.example.com."))
    sim.run(until=10.0)
    assert all(r.answered for r in querier.results)
    assert querier.results[1].latency < querier.results[0].latency


def test_fresh_tls_slower_than_fresh_tcp():
    sim, querier, server = build(delay=0.040)
    querier.handle_record(rec(0.0, src="a", proto="tcp"))
    querier.handle_record(rec(0.0, src="b", proto="tls",
                              qname="mail.example.com."))
    sim.run(until=10.0)
    by_proto = {r.record.proto: r for r in querier.results}
    # TLS pays 2 extra RTTs of handshake.
    assert by_proto["tls"].latency > by_proto["tcp"].latency + 0.06


def test_latencies_and_answered_fraction():
    sim, querier, server = build()
    for i in range(5):
        querier.handle_record(rec(i * 0.1, qname=f"h{i}.example.com."))
    sim.run_until_idle()
    # h*.example.com are NXDOMAIN but still answered.
    assert querier.answered_fraction() == 1.0
    assert len(querier.latencies()) == 5


def test_fast_mode_ignores_trace_time():
    sim, querier, server = build(fast=True)
    querier.handle_record(rec(1000.0))
    sim.run_until_idle()
    assert querier.results[0].send_time < 1.0


# -- one record object handed over many times (Trace([record] * n)) ---------


def test_crash_orphans_every_parked_send_of_a_repeated_record():
    sim, querier, server = build()
    record = rec(1.0)
    querier.handle_record(record)
    querier.handle_record(record)
    assert querier.backlog_depth() == 2
    querier.crash()
    # Both at crash time, while the supervisor can still re-dispatch
    # them — not one now and one when its timer fires.
    assert querier.take_orphans() == [record, record]
    assert querier.backlog_depth() == 0
    sim.run_until_idle()
    assert querier.take_orphans() == []
    assert querier.sent == 0
