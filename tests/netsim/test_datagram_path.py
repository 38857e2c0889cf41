"""The per-packet path: sendto -> fabric -> on_datagram.

What the flat path must keep: few frames per packet, the fabric's
arithmetic bit for bit (arrival times are hashed into replay
outcomes), link changes seen by the very next packet, the Event read
surface, and the Tun re-injection mark.
"""

import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import LinkParams, Simulator
from repro.netsim.clock import Scheduler
from repro.netsim.faults import (DelaySpike, FaultInjector, FaultPlan,
                                 LinkDown, LossBurst)
from repro.netsim.packet import TCP_OVERHEAD, UDP_OVERHEAD
from repro.netsim.tun import capture_queries

A, B = "10.0.0.1", "10.0.0.2"


def pair(link_a=None, link_b=None):
    sim = Simulator()
    a = sim.add_host("a", [A], link_a)
    b = sim.add_host("b", [B], link_b)
    return sim, a, b


# -- (a) frames per datagram ----------------------------------------------

MAX_FRAMES = 8      # 7 measured: sendto, Packet.__init__, send_packet,
#                     transmit, Scheduler.at, Host.receive,
#                     UdpSocket._deliver (17 before the path was flattened)


def test_one_datagram_costs_at_most_eight_python_frames():
    sim, a, b = pair()
    frames = []

    def on_datagram(payload, src, sport):
        pass

    def profiler(frame, event, _arg):
        # Python-level calls only ("c_call" is a builtin), by event.
        if event == "call":
            if frame.f_code is on_datagram.__code__:
                sys.setprofile(None)
            else:
                frames.append(frame.f_code.co_name)

    def probe():
        # Started inside an event, so the scheduler's own loop is
        # already running and adds no frame of its own.
        sys.setprofile(profiler)
        client.sendto(b"probe", B, 53)

    b.udp_socket(53).on_datagram = on_datagram
    client = a.udp_socket()
    client.sendto(b"warm", B, 53)
    sim.run_until_idle()
    sim.scheduler.after(1.0, probe)
    try:
        sim.run_until_idle()
    finally:
        sys.setprofile(None)
    assert frames[0] == "sendto"
    assert len(frames) <= MAX_FRAMES, frames
    assert sim.network.delivered == 2


# -- (b) the fabric against the arithmetic it replaced ---------------------


class ReferenceFabric:
    """``LinkParams.serialization`` + ``Link.egress_time`` +
    ``Network.transmit`` as they were before the path was flattened,
    kept as the reference the inlined arithmetic must equal."""

    def __init__(self, links: dict[str, LinkParams]):
        self.params = links
        self.free_at = dict.fromkeys(links, 0.0)
        self.rng = random.Random(0)         # Network's loss_seed default
        self.dropped = 0

    @staticmethod
    def serialization(params, nbytes):
        if params.bandwidth_bps <= 0:
            return 0.0
        return nbytes * 8 / params.bandwidth_bps

    def egress_time(self, name, now, nbytes):
        start = max(now, self.free_at[name])
        done = start + self.serialization(self.params[name], nbytes)
        self.free_at[name] = done
        return done, done + self.params[name].delay

    def transmit(self, now, sender, receiver, size):
        """Arrival time at *receiver*, or None when the fabric drops."""
        out, into = self.params[sender], self.params[receiver]
        loss = 1 - (1 - out.loss) * (1 - into.loss)
        if loss > 0 and self.rng.random() < loss:
            self.dropped += 1
            return None
        _, at_fabric = self.egress_time(sender, now, size)
        return at_fabric + into.delay


def bump(buckets, when, nbytes):
    buckets[int(when)] = buckets.get(int(when), 0) + nbytes


delays = st.sampled_from((0.0, 1e-6, 0.0005, 0.0123, 0.25)) \
    | st.floats(0.0, 1.0)
bandwidths = st.sampled_from((0.0, 9600.0, 1e6, 1e9)) \
    | st.floats(1.0, 1e10)
losses = st.sampled_from((0.0, 0.0, 1.0)) | st.floats(0.01, 0.99)
links = st.builds(LinkParams, delay=delays, bandwidth_bps=bandwidths,
                  loss=losses)
# (gap since the previous send: 0 = back to back, large = idle link;
#  sender, receiver (3 = an address nobody owns), payload bytes)
sends = st.lists(st.tuples(
    st.sampled_from((0.0, 0.0, 1e-6, 0.001, 0.7, 30.0)),
    st.integers(0, 2), st.integers(0, 3), st.integers(0, 1500)),
    max_size=40)


@settings(deadline=None)
@given(st.tuples(links, links, links), sends)
def test_fabric_matches_the_reference_arithmetic(link_params, script):
    names = ("h0", "h1", "h2")
    addrs = ["10.1.0.1", "10.1.0.2", "10.1.0.3", "192.0.2.99"]
    sim = Simulator()
    hosts = [sim.add_host(name, [addr], params)
             for name, addr, params in zip(names, addrs, link_params)]
    got = []
    for index, host in enumerate(hosts):
        host.udp_socket(53).on_datagram = (
            lambda payload, _src, _sport, index=index:
            got.append((sim.now, index, len(payload))))
    senders = [host.udp_socket(4000) for host in hosts]
    reference = ReferenceFabric(dict(zip(names, link_params)))
    expected, leaked = [], 0
    bytes_out = [{} for _ in hosts]
    bytes_in = [{} for _ in hosts]
    now = 0.0
    for gap, src, dst, length in script:
        now += gap
        size = UDP_OVERHEAD + length
        sim.scheduler.at(now, senders[src].sendto, b"x" * length,
                         addrs[dst], 53)
        bump(bytes_out[src], now, size)
        if dst == 3:
            leaked += 1
            continue
        arrival = reference.transmit(now, names[src], names[dst], size)
        if arrival is not None:
            expected.append((arrival, dst, length))
            bump(bytes_in[dst], arrival, size)
    sim.run_until_idle()
    # Exact floats: same expressions in the same order, not "close".
    assert sorted(got) == sorted(expected)
    network = sim.network
    assert (network.delivered, network.dropped, len(network.leaked)) == \
        (len(expected), reference.dropped, leaked)
    assert network._loss_rng.getstate() == reference.rng.getstate()
    for host, sent, received in zip(hosts, bytes_out, bytes_in):
        assert host.meter.bytes_out == sent
        assert host.meter.bytes_in == received
        assert sum(host.meter.packets_out.values()) == \
            sum(1 for _, src, _, _ in script if hosts[src] is host)
        assert host.meter.packets_in.keys() == received.keys()


def test_tcp_segments_are_sized_with_the_tcp_header():
    sim, a, b = pair(LinkParams(delay=0.0, bandwidth_bps=1e6),
                     LinkParams(delay=0.0))
    b.tcp_listen(53, lambda conn: None)
    a.tcp_connect(B, 53)
    sim.run_until_idle()
    # SYN + ACK out, SYN+ACK in: bare segments, no payload.
    assert sum(a.meter.bytes_out.values()) == 2 * TCP_OVERHEAD
    assert sum(a.meter.bytes_in.values()) == TCP_OVERHEAD


# -- (c) link changes reach the very next packet ---------------------------


def arrivals_world(link_a=None):
    sim, a, b = pair(link_a or LinkParams(delay=0.01), LinkParams(delay=0.0))
    arrivals = []
    b.udp_socket(53).on_datagram = lambda *_: arrivals.append(sim.now)
    sender = a.udp_socket()

    def send_at(when):
        sim.scheduler.at(when, sender.sendto, b"x", B, 53)

    return sim, a, send_at, arrivals


def test_set_link_after_attach_applies_to_the_next_packet():
    sim, a, send_at, arrivals = arrivals_world()
    send_at(0.0)
    sim.run_until_idle()
    sim.network.set_link(a, LinkParams(delay=0.5, bandwidth_bps=0.0))
    assert sim.network.link_of(a) is a.link
    assert sim.network.rtt_between(a, a) == 2.0
    send_at(1.0)
    sim.run_until_idle()
    assert arrivals[1] == 1.5


def test_faults_apply_to_the_next_packet_and_lift_on_time():
    # bandwidth 0: no serialization term, so arrivals are exact sums.
    sim, _, send_at, arrivals = arrivals_world(
        LinkParams(delay=0.01, bandwidth_bps=0.0))
    FaultInjector(sim, FaultPlan([
        DelaySpike(start=1.0, duration=1.0, extra_delay=0.2, hosts=("a",)),
        LossBurst(start=3.0, duration=1.0, loss=1.0, hosts=("a",)),
        LinkDown(start=5.0, duration=1.0, hosts=("b",)),
    ])).arm()
    # A warm packet first, then one at each edge: the fault's own
    # event was scheduled earlier, so it runs first at an equal time.
    for when in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        send_at(when)
    sim.run_until_idle()
    assert arrivals == [0.5 + 0.01, 1.0 + 0.01 + 0.2, 2.0 + 0.01,
                        4.0 + 0.01, 6.0 + 0.01]
    assert sim.network.dropped == 2


# -- (d) the Event read surface ---------------------------------------------


def test_event_surface_survives_cancel_and_firing():
    sched = Scheduler()
    fired = []
    kept = sched.at(2.0, fired.append, "kept")
    dropped = sched.after(1.0, fired.append, "dropped")
    daemon = sched.at(9.0, fired.append, "daemon", daemon=True)
    assert (kept.time, kept.args, kept.cancelled, kept.daemon) == \
        (2.0, ("kept",), False, False)
    assert daemon.daemon and not daemon.cancelled
    dropped.cancel()
    # Querier.crash() reads the record out of a timer it just cancelled.
    assert dropped.cancelled and dropped.args == ("dropped",)
    assert dropped.time == 1.0
    sched.run_until_idle()
    assert fired == ["kept"]
    assert sched.events_processed == 1      # the cancelled one is not counted
    assert sched.heap_scheduled == 3
    assert not kept.cancelled and kept.args == ("kept",)
    assert sched.now == 2.0                  # the daemon did not hold it open


def test_clamped_event_reports_the_time_it_will_fire():
    sched = Scheduler()
    sched.run(until=5.0)
    assert sched.at(1.0, lambda: None).time == 5.0
    assert sched.after(-1.0, lambda: None).time == 5.0


# -- (e) the Tun re-injection mark -------------------------------------------


def test_reinjected_packet_skips_other_tuns_and_replies_are_unmarked():
    sim, a, b = pair()
    seen = []

    def handler(tag):
        def handle(packet):
            seen.append(tag)
            return packet
        return handle

    first = capture_queries(a, handler("first"))
    second = capture_queries(a, handler("second"))
    replies = capture_queries(b, handler("reply"), port=4000)
    server = b.udp_socket(53)
    server.on_datagram = (
        lambda payload, src, sport: server.sendto(payload, src, sport))
    got = []
    client = a.udp_socket(4000)
    client.on_datagram = lambda payload, *_: got.append(payload)
    client.sendto(b"ping", B, 53)
    sim.run_until_idle()
    # Captured once on the way out, although two Tuns match it ...
    assert seen == ["first", "reply"]
    assert (first.captured, second.captured) == (1, 0)
    # ... and the reply is a fresh packet: b's own Tun captures it.
    assert replies.captured == 1
    assert got == [b"ping"]
