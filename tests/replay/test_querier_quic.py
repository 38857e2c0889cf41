"""Tests for DNS-over-QUIC replay through the querier.

QUIC is one of the querier's stream channels: a query finds, times
out, loses and recovers its connection exactly as a TCP or TLS query
does."""

import pytest

from repro.netsim import LinkParams, Simulator
from repro.netsim.faults import FaultInjector, FaultPlan, LinkDown
from repro.replay.querier import Querier, QuerierConfig, ResilienceConfig
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord

from tests.server.helpers import make_example_zone


def build(delay=0.040, timeout=20.0, resilience=None):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"],
                               LinkParams(delay=delay / 2))
    client_host = sim.add_host("client", ["10.0.0.1"],
                               LinkParams(delay=delay / 2))
    server = AuthoritativeServer(server_host, zones=[make_example_zone()],
                                 tcp_idle_timeout=timeout,
                                 log_queries=True)
    querier = Querier(client_host, "10.0.0.2",
                      config=QuerierConfig(resilience=resilience))
    querier.timer.sync(0.0, sim.now)
    return sim, querier, server


def rec(t, src="a", qname="www.example.com."):
    return QueryRecord(time=t, src=src, qname=qname, proto="quic")


def test_quic_query_answered():
    sim, querier, server = build()
    querier.handle_record(rec(0.0))
    sim.run_until_idle()
    assert querier.results[0].answered
    assert server.query_log[0].proto == "quic"


def test_fresh_quic_costs_two_rtt():
    # delay is one-way, so the RTT is 0.080: fresh QUIC = 2 RTT = 0.160.
    sim, querier, server = build(delay=0.040)
    querier.handle_record(rec(0.0))
    sim.run_until_idle()
    assert querier.results[0].latency == pytest.approx(0.160, rel=0.1)


def test_quic_connection_reused_one_rtt():
    sim, querier, server = build(delay=0.040)
    querier.handle_record(rec(0.0))
    querier.handle_record(rec(1.0, qname="mail.example.com."))
    sim.run(until=10.0)
    # Warm connection: 1 RTT (= 2 * one-way delay).
    assert querier.results[1].latency == pytest.approx(0.080, rel=0.1)


def test_zero_rtt_reconnect_after_idle_close():
    sim, querier, server = build(delay=0.040, timeout=2.0)
    querier.handle_record(rec(0.0))
    # Reconnect after the server's idle close: the session ticket makes
    # the second fresh connection a 1-RTT exchange.
    querier.handle_record(rec(10.0, qname="mail.example.com."))
    sim.run(until=30.0)
    assert all(r.answered for r in querier.results)
    assert querier.results[0].latency == pytest.approx(0.160, rel=0.1)
    assert querier.results[1].latency == pytest.approx(0.080, rel=0.1)


def test_quic_faster_than_tls_for_fresh_queries():
    sim, querier, server = build(delay=0.040)
    querier.handle_record(QueryRecord(time=0.0, src="q",
                                      qname="www.example.com.",
                                      proto="quic"))
    querier.handle_record(QueryRecord(time=0.0, src="t",
                                      qname="mail.example.com.",
                                      proto="tls"))
    sim.run(until=10.0)
    by_proto = {r.record.proto: r for r in querier.results}
    assert by_proto["quic"].latency < by_proto["tls"].latency * 0.6


def test_different_sources_different_quic_connections():
    sim, querier, server = build()
    querier.handle_record(rec(0.0, src="a"))
    querier.handle_record(rec(0.0, src="b",
                              qname="mail.example.com."))
    sim.run(until=5.0)
    assert sorted(querier._streams) == [("a", "quic"), ("b", "quic")]
    assert all(r.answered for r in querier.results)


def outcome(result):
    return ("ans" if result.answered else "TO" if result.timed_out
            else "lost")


@pytest.mark.parametrize("proto", ["tcp", "tls", "quic"])
def test_lost_handshake_costs_one_query(proto):
    """The client uplink is down for the first 10 ms, so the first
    handshake (5 ms in) never reaches the server.  The first query times
    out and its connection is abandoned; the next query opens a fresh
    one."""
    sim, querier, server = build(resilience=ResilienceConfig())
    FaultInjector(sim, FaultPlan([LinkDown(0.0, 0.010,
                                           hosts=("client",))])).arm()
    for i in range(4):
        querier.handle_record(rec(0.005 + 2.0 * i,
                                  qname=f"q{i}.example.com.")
                              .with_(proto=proto))
    sim.run(until=30.0)
    assert [outcome(r) for r in querier.results] == [
        "TO", "ans", "ans", "ans"]
    assert querier.pending_count() == 0


def close_before_the_query_arrives(resilience):
    """The server's idle timeout (50 ms) fires after the handshake
    (server side at 40 ms) and before the query reaches it (120 ms):
    the connection closes with the query pending."""
    sim, querier, server = build(timeout=0.05, resilience=resilience)
    querier.handle_record(rec(0.0))
    sim.run(until=10.0)
    return querier


def test_closed_quic_channel_resends_once():
    querier = close_before_the_query_arrives(ResilienceConfig())
    [result] = querier.results
    assert querier.reconnects == 1
    assert result.answered and result.attempts == 2
    assert querier.recovered == 1


def test_closed_quic_channel_without_policy_gives_up():
    querier = close_before_the_query_arrives(None)
    [result] = querier.results
    assert querier.reconnects == 0
    assert not result.answered and result.attempts == 1
    assert querier.unanswered_at_close == 1
    assert querier.pending_count() == 0


@pytest.mark.parametrize("proto", ["tcp", "quic"])
def test_crash_keeps_each_transports_close(proto):
    """A dead querier's TCP connection is closed by the kernel (FIN);
    its QUIC connection lived in the process, so no CONNECTION_CLOSE
    reaches the server, which holds it until its idle timeout."""
    sim, querier, server = build(delay=0.040)
    querier.handle_record(rec(0.0).with_(proto=proto))
    sim.run(until=0.10)            # handshake done, query in flight
    querier.crash()
    sim.run(until=1.0)
    [result] = querier.results
    assert result.failed_over and not result.answered
    assert querier.failed_over == 1
    assert not querier._streams
    server_host = server.host
    if proto == "quic":
        assert server.quic_server.connection_count() == 1
    else:
        assert server_host.tcp_connection_count("ESTABLISHED") == 0


def test_idle_closed_connections_are_dropped():
    """Each reconnect after the server's idle close leaves only the
    open connection in the source's client."""
    sim, querier, server = build(timeout=2.0)
    for i in range(6):
        querier.handle_record(rec(10.0 * i, qname=f"q{i}.example.com."))
        sim.run(until=10.0 * i + 5.0)
        assert len(querier._quic_clients["a"]._conns) <= 1
    assert all(r.answered for r in querier.results)
    assert [r.latency for r in querier.results][1:] == pytest.approx(
        [0.080] * 5, rel=0.1)         # 0-RTT on every reconnect
