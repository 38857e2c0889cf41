"""Property-based tests: TCP stream integrity under arbitrary writes."""

from hypothesis import given, settings, strategies as st

from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=4000), min_size=1,
                max_size=12),
       st.booleans())
def test_stream_delivers_all_bytes_in_order(chunks, nagle):
    """Whatever the write pattern and Nagle setting, the receiver sees
    exactly the concatenated byte stream, in order."""
    sim = Simulator()
    client = sim.add_host("c", ["10.0.0.1"], LinkParams())
    server = sim.add_host("s", ["10.0.0.2"], LinkParams())
    received = []

    def on_conn(conn):
        conn.on_data = received.append

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    conn.nagle = nagle
    for chunk in chunks:
        conn.send(chunk)
    sim.run_until_idle()
    assert b"".join(received) == b"".join(chunks)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=300), min_size=1,
                max_size=15))
def test_framed_messages_survive_any_segmentation(messages):
    """Length-prefixed messages written in one direction come out whole
    regardless of how TCP segmented/coalesced them."""
    sim = Simulator()
    client = sim.add_host("c", ["10.0.0.1"], LinkParams())
    server = sim.add_host("s", ["10.0.0.2"], LinkParams())
    out = []

    def on_conn(conn):
        framer = LengthPrefixFramer(out.append)
        conn.on_data = framer.feed

    server.tcp_listen(53, on_conn)
    conn = client.tcp_connect("10.0.0.2", 53)
    for message in messages:
        conn.send(frame_message(message))
    sim.run_until_idle()
    assert out == messages


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 1))
def test_memory_conserved_after_full_teardown(connections, who_closes):
    """However many connections open and whoever closes them, once
    TIME_WAIT expires every byte of metered memory is returned."""
    sim = Simulator()
    client = sim.add_host("c", ["10.0.0.1"], LinkParams())
    server = sim.add_host("s", ["10.0.0.2"], LinkParams())
    server_conns = []
    server.tcp_listen(53, server_conns.append)
    conns = [client.tcp_connect("10.0.0.2", 53)
             for _ in range(connections)]
    sim.run_until_idle()
    closers = conns if who_closes == 0 else server_conns
    for conn in closers:
        conn.close()
    sim.run(until=sim.now + 70.0)
    assert client.meter.memory == 0
    assert server.meter.memory == 0
    assert client.meter.established == 0
    assert server.meter.established == 0
    assert client.meter.time_wait == 0
    assert server.meter.time_wait == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=120), max_size=30),
       st.binary(max_size=40), st.data())
def test_framer_is_indifferent_to_chunking(messages, unfinished, data):
    """Any chunking of a framed stream — 1-byte pieces up to many whole
    frames per piece — yields the same messages in order, and after
    every piece ``pending_bytes()`` is exactly the incomplete tail."""
    frames = [frame_message(message) for message in messages]
    # A trailing frame that never completes: its prefix stays pending.
    tail = frame_message(unfinished)[:data.draw(
        st.integers(0, len(unfinished) + 1), label="tail")]
    stream = b"".join(frames) + tail
    ends, end = [], 0
    for frame in frames:
        end += len(frame)
        ends.append(end)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                     max_size=40), label="cuts"))
    out = []
    framer = LengthPrefixFramer(out.append)
    fed = 0
    for cut in cuts + [len(stream)]:
        if cut > fed:
            framer.feed(stream[fed:cut])
            fed = cut
        whole = [e for e in ends if e <= fed]
        assert out == messages[:len(whole)]
        assert framer.pending_bytes() == fed - (whole[-1] if whole else 0)
    assert out == messages
    assert framer.pending_bytes() == len(tail)
