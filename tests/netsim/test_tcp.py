"""Tests for the TCP model: handshake, data, Nagle, close, TIME_WAIT."""

import dataclasses

import pytest

from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.tcp import (CLOSED, DELAYED_ACK, ESTABLISHED, LAST_ACK,
                              MSS, SEG_ACK, SEG_DATA, SEG_FIN_ACK,
                              SEG_SYN, SEG_SYN_ACK, TIME_WAIT,
                              TIME_WAIT_DURATION)


def build(delay=0.005):
    """Client/server pair with one-way uplink delay/2 each so that the
    client-server RTT is exactly 2*delay."""
    sim = Simulator()
    client = sim.add_host("client", ["10.0.0.1"],
                          LinkParams(delay=delay / 2))
    server = sim.add_host("server", ["10.0.0.2"],
                          LinkParams(delay=delay / 2))
    return sim, client, server


def echo_server(server, port=53):
    """Accepts connections and echoes framed messages back."""
    conns = []

    def on_conn(conn):
        conns.append(conn)
        framer = LengthPrefixFramer(
            lambda msg: conn.send(frame_message(b"echo:" + msg)))
        conn.on_data = framer.feed

    server.tcp_listen(port, on_conn)
    return conns


def test_handshake_establishes_both_ends():
    sim, client, server = build()
    conns = echo_server(server)
    established = []
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_established = lambda: established.append(sim.now)
    sim.run_until_idle()
    assert conn.state == ESTABLISHED
    assert len(conns) == 1
    assert conns[0].state == ESTABLISHED
    # Client established after exactly 1 RTT (SYN + SYN/ACK).
    assert established[0] == pytest.approx(0.01, rel=0.01)


def test_request_response_takes_two_rtt_fresh():
    sim, client, server = build(delay=0.010)  # RTT = 20 ms
    echo_server(server)
    replies = []
    conn = client.tcp_connect("10.0.0.2", 53)
    framer = LengthPrefixFramer(lambda m: replies.append((sim.now, m)))
    conn.on_data = framer.feed
    conn.on_established = lambda: conn.send(frame_message(b"hi"))
    sim.run_until_idle()
    assert replies[0][1] == b"echo:hi"
    # 1 RTT handshake + 1 RTT query/response.
    assert replies[0][0] == pytest.approx(0.040, rel=0.05)


def test_reused_connection_takes_one_rtt():
    sim, client, server = build(delay=0.010)
    echo_server(server)
    replies = []
    conn = client.tcp_connect("10.0.0.2", 53)
    framer = LengthPrefixFramer(lambda m: replies.append(sim.now))
    conn.on_data = framer.feed
    conn.on_established = lambda: conn.send(frame_message(b"a"))
    sim.run_until_idle()
    first = replies[0]
    send_at = sim.now + 1.0
    sim.scheduler.at(send_at, lambda: conn.send(frame_message(b"b")))
    sim.run_until_idle()
    assert replies[1] - send_at == pytest.approx(0.020, rel=0.1)
    assert first > 0.020  # the fresh one cost more


def test_large_message_segmented():
    sim, client, server = build()
    received = []

    def on_conn(conn):
        conn.on_data = received.append

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    blob = bytes(range(256)) * 20  # 5120 B > 3 MSS
    conn.on_established = lambda: conn.send(blob)
    sim.run_until_idle()
    assert b"".join(received) == blob
    assert len(received) == 4  # 3 full MSS + remainder
    assert all(len(chunk) <= MSS for chunk in received)


def test_nagle_holds_second_small_write():
    """Two small writes issued back-to-back: the second waits for the
    ACK of the first (which the receiver delays), so the gap between
    their arrivals is about the delayed-ACK interval."""
    sim, client, server = build(delay=0.010)
    arrivals = []

    def on_conn(conn):
        conn.on_data = lambda data: arrivals.append(sim.now)

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)

    def two_writes():
        conn.send(b"first")
        conn.send(b"second")

    conn.on_established = two_writes
    sim.run_until_idle()
    assert len(arrivals) == 2
    gap = arrivals[1] - arrivals[0]
    # Delayed ACK fires at 40 ms, travels one-way (10 ms), then the held
    # segment travels one-way (10 ms): ~60 ms total.
    assert gap == pytest.approx(DELAYED_ACK + 0.020, rel=0.1)


def test_nagle_disabled_sends_immediately():
    sim, client, server = build(delay=0.010)
    arrivals = []

    def on_conn(conn):
        conn.on_data = lambda data: arrivals.append(sim.now)

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.nagle = False

    def two_writes():
        conn.send(b"first")
        conn.send(b"second")

    conn.on_established = two_writes
    sim.run_until_idle()
    gap = arrivals[1] - arrivals[0]
    assert gap < 0.001


def test_active_close_enters_time_wait():
    sim, client, server = build()
    conns = echo_server(server)
    conn = client.tcp_connect("10.0.0.2", 53)
    sim.run_until_idle()
    conn.close()
    sim.run(until=sim.now + 1.0)
    assert conn.state == TIME_WAIT
    assert conns[0].state == CLOSED
    assert client.meter.time_wait == 1
    assert client.meter.established == 0
    assert server.meter.established == 0


def test_time_wait_expires():
    sim, client, server = build()
    echo_server(server)
    conn = client.tcp_connect("10.0.0.2", 53)
    sim.run_until_idle()
    conn.close()
    sim.run(until=sim.now + TIME_WAIT_DURATION + 1)
    assert conn.state == CLOSED
    assert client.meter.time_wait == 0
    assert client.meter.memory == 0


def test_memory_accounting_per_connection():
    sim, client, server = build()
    echo_server(server)
    per_conn = server.meter.cost.tcp_connection
    conns = [client.tcp_connect("10.0.0.2", 53) for _ in range(10)]
    sim.run_until_idle()
    assert server.meter.established == 10
    assert server.meter.memory == 10 * per_conn
    for conn in conns:
        conn.close()
    sim.run(until=sim.now + 1)
    assert server.meter.established == 0
    assert server.meter.memory == 0  # passive closer holds no TIME_WAIT


def test_server_side_idle_timeout_closes():
    sim, client, server = build()

    def on_conn(conn):
        conn.set_idle_timeout(5.0)

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    sim.run(until=4.5)
    assert conn.state == ESTABLISHED
    sim.run(until=8.0)
    assert conn.state == CLOSED
    # The server actively closed, so *it* holds the TIME_WAIT entry.
    assert server.meter.time_wait == 1
    assert client.meter.time_wait == 0
    sim.run(until=80.0)
    assert server.meter.time_wait == 0


def test_idle_timeout_reset_by_activity():
    sim, client, server = build()
    server_conns = []

    def on_conn(conn):
        conn.set_idle_timeout(5.0)
        framer = LengthPrefixFramer(
            lambda msg: conn.send(frame_message(msg)))
        conn.on_data = framer.feed
        server_conns.append(conn)

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_data = lambda data: None
    conn.on_established = lambda: conn.send(frame_message(b"x"))
    # Keep poking every 3 s; connection must survive past 5 s.
    for t in (3.0, 6.0, 9.0):
        sim.scheduler.at(t, lambda: conn.send(frame_message(b"x")))
    sim.run(until=10.0)
    assert conn.state == ESTABLISHED
    sim.run(until=20.0)
    assert conn.state != ESTABLISHED


def test_close_notifies_application():
    sim, client, server = build()
    echo_server(server)
    closed = []
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_closed = lambda: closed.append(sim.now)
    sim.run_until_idle()
    conn.close()
    sim.run(until=sim.now + 1)
    assert len(closed) == 1


def test_send_after_close_raises():
    sim, client, server = build()
    echo_server(server)
    conn = client.tcp_connect("10.0.0.2", 53)
    sim.run_until_idle()
    conn.close()
    with pytest.raises(RuntimeError):
        conn.send(b"x")


def test_data_before_establish_is_buffered():
    sim, client, server = build()
    conns = echo_server(server)
    replies = []
    conn = client.tcp_connect("10.0.0.2", 53)
    framer = LengthPrefixFramer(lambda m: replies.append(m))
    conn.on_data = framer.feed
    conn.send(frame_message(b"early"))  # before handshake completes
    sim.run_until_idle()
    assert replies == [b"echo:early"]


def test_framer_handles_split_messages():
    framer_out = []
    framer = LengthPrefixFramer(framer_out.append)
    wire = frame_message(b"hello") + frame_message(b"world")
    framer.feed(wire[:3])
    framer.feed(wire[3:9])
    framer.feed(wire[9:])
    assert framer_out == [b"hello", b"world"]


def test_concurrent_connections_demux_correctly():
    sim, client, server = build()
    echo_server(server)
    replies = {}

    def start(i):
        conn = client.tcp_connect("10.0.0.2", 53)
        framer = LengthPrefixFramer(
            lambda m, i=i: replies.setdefault(i, m))
        conn.on_data = framer.feed
        conn.on_established = lambda: conn.send(
            frame_message(f"msg{i}".encode()))

    for i in range(20):
        start(i)
    sim.run_until_idle()
    assert len(replies) == 20
    for i in range(20):
        assert replies[i] == f"echo:msg{i}".encode()


def segments_out(sim, host):
    """(time, flags, payload length) of every TCP segment *host* sends."""
    seen = []

    def tap(packet):
        if packet.proto == "tcp":
            seen.append((sim.now, packet.tcp.flags(), len(packet.payload)))
        return packet

    host.egress_filters.append(tap)
    return seen


def test_handshake_ack_rides_on_data_sent_at_establishment():
    """A client that sends from on_established (every TLS client, for
    its ClientHello) puts its handshake ACK on that data segment and
    sends no bare ACK next to it."""
    sim, client, server = build(delay=0.010)
    echo_server(server)
    out = segments_out(sim, client)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_data = lambda data: None
    conn.on_established = lambda: conn.send(frame_message(b"hi"))
    sim.run(until=0.030)   # the handshake, up to before the reply
    assert [(flags, size) for _, flags, size in out] == [
        ("SYN", 0), ("ACK", 4)]


def test_handshake_ack_goes_bare_when_nothing_is_sent():
    sim, client, server = build(delay=0.010)
    echo_server(server)
    out = segments_out(sim, client)
    client.tcp_connect("10.0.0.2", 53)
    sim.run_until_idle()
    assert [(flags, size) for _, flags, size in out] == [
        ("SYN", 0), ("ACK", 0)]


def test_close_from_on_data_sends_no_stray_ack_after_its_fin():
    """At 200 ms RTT the reply's delayed ACK would fire 40 ms after the
    FIN+ACK that already carried it; the peer in LAST_ACK would take
    that stray ACK for the ACK of its own FIN and close a round trip
    early."""
    sim, client, server = build(delay=0.100)   # RTT = 200 ms
    server_conns = echo_server(server)
    out = segments_out(sim, client)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_established = lambda: conn.send(frame_message(b"q"))
    conn.on_data = lambda data: conn.close()   # reply at 0.40 s
    # Client FIN at 0.40 s -> server FIN+ACK at 0.50 s -> the client's
    # ACK of it reaches the server at 0.70 s, not before.
    sim.run(until=0.69)
    assert server_conns[0].state == LAST_ACK
    sim.run_until_idle()
    assert server_conns[0].state == CLOSED
    after_fin = [(t, flags) for t, flags, _ in out if t >= 0.4 - 1e-9]
    assert after_fin == [(pytest.approx(0.4, abs=1e-3), "ACK+FIN"),
                         (pytest.approx(0.6, abs=1e-3), "ACK")]


def test_passive_close_settles_the_owed_ack():
    """The FIN+ACK of a passive close acknowledges everything: no
    delayed ACK is left armed behind it."""
    sim, client, server = build(delay=0.010)
    server_conns = []

    def on_conn(conn):
        server_conns.append(conn)
        conn.on_data = lambda data: None   # owes an ACK, sends nothing

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_established = lambda: conn.send(b"data")
    sim.run(until=0.0301)          # the data has just arrived
    peer = server_conns[0]
    assert peer._delayed_ack_event is not None
    conn.close()
    sim.run(until=0.0402)          # the FIN has arrived
    assert peer.state == LAST_ACK
    assert peer._delayed_ack_event is None
    assert peer._recv_segs_unacked == 0


def test_reply_inside_on_data_arms_no_delayed_ack():
    """A server that answers from on_data carries the ACK on its reply,
    so no delayed-ACK timer is armed and then cancelled in the same
    event.  One query on a warm connection schedules exactly: the
    query's and the reply's deliveries, the client's delayed-ACK timer
    and that ACK's delivery."""
    sim, client, server = build(delay=0.010)
    echo_server(server)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.nagle = False
    conn.on_data = lambda data: None
    sim.run_until_idle()
    scheduler = sim.scheduler
    before = scheduler.heap_scheduled
    conn.send(frame_message(b"q"))
    sim.run_until_idle()
    assert scheduler.heap_scheduled - before == 4


def test_segment_flags_are_shared_frozen_constants():
    for info in (SEG_DATA, SEG_ACK, SEG_SYN, SEG_SYN_ACK, SEG_FIN_ACK):
        with pytest.raises(dataclasses.FrozenInstanceError):
            info.ack = not info.ack
    assert SEG_SYN_ACK.flags() == "SYN+ACK"
    sim, client, server = build()
    echo_server(server)
    infos = []
    client.egress_filters.append(
        lambda packet: (infos.append(packet.tcp), packet)[1])
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.on_established = lambda: conn.send(frame_message(b"q"))
    sim.run_until_idle()
    assert infos and all(
        any(info is shared for shared in (SEG_ACK, SEG_SYN, SEG_FIN_ACK))
        for info in infos)
