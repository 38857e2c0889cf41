"""Property-based tests for the QUIC transport."""

from hypothesis import given, settings, strategies as st

from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.quic import QuicClient, QuicServer


def build_echo():
    sim = Simulator()
    client_host = sim.add_host("c", ["10.0.0.1"], LinkParams())
    server_host = sim.add_host("s", ["10.0.0.2"], LinkParams())

    def on_conn(conn):
        def on_stream(stream_id, framed):
            framer = LengthPrefixFramer(
                lambda msg: conn.send_stream(stream_id,
                                             frame_message(msg)))
            framer.feed(framed)
        conn.on_stream_data = on_stream

    QuicServer(server_host, 8853, on_conn)
    return sim, QuicClient(client_host)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=800), min_size=1,
                max_size=10))
def test_every_stream_echoes_its_own_message(messages):
    sim, client = build_echo()
    conn = client.connect("10.0.0.2", 8853)
    received = {}
    framers = {}

    def on_stream(stream_id, framed):
        framer = framers.setdefault(stream_id, LengthPrefixFramer(
            lambda msg, s=stream_id: received.setdefault(s, msg)))
        framer.feed(framed)

    conn.on_stream_data = on_stream
    streams = []
    for message in messages:
        stream = conn.open_stream()
        streams.append(stream)
        conn.send_stream(stream, frame_message(message))
    sim.run_until_idle()
    assert len(received) == len(messages)
    for stream, message in zip(streams, messages):
        assert received[stream] == message


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=700))
def test_zero_rtt_payload_round_trips(message):
    sim, client = build_echo()
    # Warm up a ticket.
    first = client.connect("10.0.0.2", 8853)
    first.on_stream_data = lambda *a: None
    sim.run_until_idle()
    first.close()
    sim.run_until_idle()
    received = []
    conn = client.open("10.0.0.2", 8853)
    conn.on_data = LengthPrefixFramer(received.append).feed
    conn.send(frame_message(message))
    sim.run_until_idle()
    assert received == [message]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12))
def test_memory_conserved_after_quic_teardown(connections):
    sim, client = build_echo()
    server_host = sim.hosts["s"]
    conns = [client.connect("10.0.0.2", 8853)
             for _ in range(connections)]
    sim.run_until_idle()
    assert server_host.meter.established == connections
    for conn in conns:
        conn.close()
    sim.run_until_idle()
    assert server_host.meter.established == 0
    assert server_host.meter.memory == 0
    assert server_host.meter.time_wait == 0
