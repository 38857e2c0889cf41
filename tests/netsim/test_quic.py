"""Tests for the QUIC transport model."""

import pytest

from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.quic import QuicClient, QuicServer


def build(delay=0.020):
    sim = Simulator()
    client_host = sim.add_host("client", ["10.0.0.1"],
                               LinkParams(delay=delay / 2))
    server_host = sim.add_host("server", ["10.0.0.2"],
                               LinkParams(delay=delay / 2))
    return sim, client_host, server_host


def echo_quic_server(server_host, port=8853, idle_timeout=None):
    def on_conn(conn):
        def on_stream(stream_id, framed):
            framer = LengthPrefixFramer(
                lambda msg: conn.send_stream(
                    stream_id, frame_message(b"echo:" + msg)))
            framer.feed(framed)
        conn.on_stream_data = on_stream

    return QuicServer(server_host, port, on_conn,
                      idle_timeout=idle_timeout)


def test_handshake_one_rtt():
    sim, client_host, server_host = build(delay=0.020)  # RTT = 40 ms
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    conn = client.connect("10.0.0.2", 8853)
    established = []
    conn.on_established = lambda: established.append(sim.now)
    sim.run_until_idle()
    assert conn.established
    assert established[0] == pytest.approx(0.040, rel=0.05)


def test_fresh_query_two_rtt():
    sim, client_host, server_host = build(delay=0.020)
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    replies = []
    conn = client.connect("10.0.0.2", 8853)
    conn.on_stream_data = lambda sid, data: replies.append(sim.now)
    conn.send_stream(conn.open_stream(), frame_message(b"q"))
    sim.run_until_idle()
    # 1 RTT handshake + 1 RTT request/response.
    assert replies[0] == pytest.approx(0.080, rel=0.05)


def test_zero_rtt_resumption_one_rtt():
    sim, client_host, server_host = build(delay=0.020)
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    first = client.connect("10.0.0.2", 8853)
    first.on_stream_data = lambda sid, data: None
    first.send_stream(first.open_stream(), frame_message(b"warmup"))
    sim.run_until_idle()
    assert client.has_ticket("10.0.0.2", 8853)
    first.close()
    sim.run_until_idle()
    # Reconnect with 0-RTT: the first request rides in the Initial.
    replies = []
    start = sim.now
    conn = client.open("10.0.0.2", 8853)
    conn.on_data = lambda data: replies.append(sim.now)
    conn.send(frame_message(b"resumed"))
    sim.run_until_idle()
    assert replies[0] - start == pytest.approx(0.040, rel=0.1)


def test_initial_padded_to_1200():
    sim, client_host, server_host = build()
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    client.connect("10.0.0.2", 8853)
    sim.run_until_idle()
    assert any(v >= 1200 for v in client_host.meter.bytes_out.values())


def test_stream_multiplexing_no_head_of_line():
    sim, client_host, server_host = build()
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    replies = {}
    conn = client.connect("10.0.0.2", 8853)

    framers = {}

    def on_stream(stream_id, framed):
        framer = framers.setdefault(stream_id, LengthPrefixFramer(
            lambda msg, s=stream_id: replies.setdefault(s, msg)))
        framer.feed(framed)

    conn.on_stream_data = on_stream
    streams = []
    for i in range(5):
        stream = conn.open_stream()
        streams.append(stream)
        conn.send_stream(stream, frame_message(f"m{i}".encode()))
    sim.run_until_idle()
    assert len(replies) == 5
    for i, stream in enumerate(streams):
        assert replies[stream] == f"echo:m{i}".encode()


def test_idle_timeout_closes_without_time_wait():
    sim, client_host, server_host = build()
    server = echo_quic_server(server_host, idle_timeout=2.0)
    client = QuicClient(client_host)
    conn = client.connect("10.0.0.2", 8853)
    conn.on_stream_data = lambda *a: None
    conn.send_stream(conn.open_stream(), frame_message(b"x"))
    sim.run(until=1.0)
    assert server.connection_count() == 1
    assert server_host.meter.established == 1
    sim.run(until=10.0)
    assert server.connection_count() == 0
    assert server_host.meter.established == 0
    assert server_host.meter.time_wait == 0       # structurally absent
    assert server_host.meter.memory == 0
    assert conn.closed


def test_memory_between_tcp_and_tls():
    sim, client_host, server_host = build()
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    client.connect("10.0.0.2", 8853)
    sim.run_until_idle()
    cost = server_host.meter.cost
    quic_mem = server_host.meter.memory
    assert 0 < quic_mem < cost.tcp_connection + cost.tls_session


def test_send_on_closed_connection_raises():
    sim, client_host, server_host = build()
    echo_quic_server(server_host)
    client = QuicClient(client_host)
    conn = client.connect("10.0.0.2", 8853)
    sim.run_until_idle()
    conn.close()
    with pytest.raises(RuntimeError):
        conn.send_stream(conn.open_stream(), b"x")
