"""FaultPlan / FaultInjector: scheduled degradation of the fabric.

Deterministic windows (loss=1.0 bursts, LinkDown) let the tests assert
exactly which packets die; composition and baseline-restore are checked
against `Link.params` directly.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.netsim import LinkParams, Simulator
from repro.netsim.faults import (DelaySpike, FaultInjector, FaultPlan,
                                 LinkDown, LossBurst, ServerPause)
from repro.obs import collect
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord

from tests.server.helpers import make_example_zone


def ping_world():
    """a -> b pings at 0.1s intervals; returns (sim, send, got)."""
    sim = Simulator()
    a = sim.add_host("a", ["10.0.0.1"], LinkParams())
    b = sim.add_host("b", ["10.0.0.2"], LinkParams())
    got = []
    b.udp_socket(53).on_datagram = (
        lambda payload, *rest: got.append(payload))
    sender = a.udp_socket()

    def send_at(t, tag):
        sim.scheduler.at(t, sender.sendto, tag, "10.0.0.2", 53)

    return sim, send_at, got


def test_loss_burst_window_drops_only_inside():
    sim, send_at, got = ping_world()
    plan = FaultPlan([LossBurst(start=1.0, duration=1.0, loss=1.0,
                                hosts=("a",))])
    FaultInjector(sim, plan).arm()
    for i in range(30):
        send_at(i * 0.1, b"t%d" % i)
    sim.run_until_idle()
    received = {int(p[1:]) for p in got}
    # Packets sent in [1.0, 2.0) die; everything else arrives.
    dropped = {i for i in range(30) if 10 <= i < 20}
    assert received == set(range(30)) - dropped


def test_link_down_is_total_outage_and_recovers():
    sim, send_at, got = ping_world()
    FaultInjector(sim, FaultPlan([
        LinkDown(start=0.5, duration=0.5)])).arm()
    for i in range(15):
        send_at(i * 0.1, b"t%d" % i)
    sim.run_until_idle()
    received = {int(p[1:]) for p in got}
    assert received == set(range(15)) - {5, 6, 7, 8, 9}
    # Baseline restored after the window.
    assert sim.network._links["a"].params.loss == 0.0
    assert sim.network._links["b"].params.loss == 0.0


def test_delay_spike_adds_latency_then_restores():
    sim = Simulator()
    a = sim.add_host("a", ["10.0.0.1"], LinkParams(delay=0.01))
    b = sim.add_host("b", ["10.0.0.2"], LinkParams())
    arrivals = []
    b.udp_socket(53).on_datagram = (
        lambda payload, *rest: arrivals.append(sim.now))
    sender = a.udp_socket()
    FaultInjector(sim, FaultPlan([
        DelaySpike(start=1.0, duration=1.0, extra_delay=0.2,
                   hosts=("a",))])).arm()
    sends = [0.5, 1.5, 2.5]
    for t in sends:
        sim.scheduler.at(t, sender.sendto, b"x", "10.0.0.2", 53)
    sim.run_until_idle()
    latencies = [arrival - send
                 for arrival, send in zip(arrivals, sends)]
    # Only the in-window packet pays the extra 200 ms.
    assert latencies[1] - latencies[0] == pytest.approx(0.2)
    assert latencies[2] == pytest.approx(latencies[0])


def test_overlapping_losses_compose_multiplicatively():
    sim = Simulator()
    sim.add_host("a", ["10.0.0.1"], LinkParams(loss=0.2))
    injector = FaultInjector(sim, FaultPlan())
    burst1 = LossBurst(start=0.0, duration=2.0, loss=0.5, hosts=("a",))
    burst2 = LossBurst(start=0.0, duration=2.0, loss=0.5, hosts=("a",))
    injector._begin(burst1)
    injector._begin(burst2)
    # keep = 0.8 * 0.5 * 0.5
    assert sim.network._links["a"].params.loss == pytest.approx(0.8)
    injector._end(burst1)
    assert sim.network._links["a"].params.loss == pytest.approx(0.6)
    injector._end(burst2)
    assert sim.network._links["a"].params.loss == pytest.approx(0.2)


def test_each_fault_is_counted_once_by_its_span():
    """A fired event is one ``fault.<kind>`` span; there is no second
    ``faults.*`` counter to keep in step with it."""
    sim = Simulator(observe=True)
    sim.add_host("a", ["10.0.0.1"], LinkParams())
    FaultInjector(sim, FaultPlan([
        LossBurst(start=0.1, duration=0.1, loss=0.5),
        DelaySpike(start=0.2, duration=0.1, extra_delay=0.01),
        LinkDown(start=0.3, duration=0.1)])).arm()
    sim.run_until_idle()
    snapshot = sim.scheduler.obs.snapshot()
    assert {kind: n for kind, n in snapshot["trace"]["kinds"].items()
            if kind.startswith("fault.")} == {
        "fault.loss_burst": 1, "fault.delay_spike": 1,
        "fault.link_down": 1}
    assert "faults" not in snapshot


def test_plan_validation_rejects_bad_events():
    with pytest.raises(ValueError):
        FaultPlan([LossBurst(start=-1.0, duration=1.0,
                             loss=0.1)]).validate()
    with pytest.raises(ValueError):
        FaultPlan([LossBurst(start=0.0, duration=0.0,
                             loss=0.1)]).validate()
    with pytest.raises(ValueError):
        FaultPlan([LossBurst(start=0.0, duration=1.0,
                             loss=1.5)]).validate()
    with pytest.raises(ValueError):
        FaultPlan([DelaySpike(start=0.0, duration=1.0,
                              extra_delay=-0.1)]).validate()


def test_plan_round_trips_through_dict():
    plan = FaultPlan([
        LossBurst(start=1.0, duration=2.0, loss=0.3, hosts=("a", "b")),
        DelaySpike(start=0.5, duration=1.0, extra_delay=0.05),
        LinkDown(start=3.0, duration=0.5),
        ServerPause(start=4.0, duration=1.0, host="ns1", restart=True),
    ])
    data = plan.to_dict()
    restored = FaultPlan.from_dict(data)
    assert restored.events == plan.events
    assert restored.horizon() == pytest.approx(5.0)


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"events": [
            {"kind": "meteor_strike", "start": 0.0, "duration": 1.0}]})


def dns_query_world():
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    server = AuthoritativeServer(server_host,
                                 zones=[make_example_zone()])
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    wire = QueryRecord(time=0.0, src="c", qname="www.example.com.",
                       msg_id=7).to_message().to_wire()
    answers = []
    sock = client.udp_socket()
    sock.on_datagram = (
        lambda payload, *rest: answers.append(sim.now))
    return sim, server, sock, wire, answers


def test_server_pause_buffers_and_answers_on_resume():
    sim, server, sock, wire, answers = dns_query_world()
    FaultInjector(sim, FaultPlan([
        ServerPause(start=1.0, duration=1.0)])).arm()
    for t in (0.5, 1.2, 1.5):
        sim.scheduler.at(t, sock.sendto, wire, "10.0.0.2", 53)
    sim.run_until_idle()
    assert len(answers) == 3
    # The paused-window queries were answered at resume, not on arrival.
    assert answers[0] < 1.0
    assert all(t >= 2.0 for t in answers[1:])
    assert server.paused is False


def test_server_restart_drops_buffered_backlog():
    sim, server, sock, wire, answers = dns_query_world()
    FaultInjector(sim, FaultPlan([
        ServerPause(start=1.0, duration=1.0, restart=True)])).arm()
    for t in (0.5, 1.2, 2.5):
        sim.scheduler.at(t, sock.sendto, wire, "10.0.0.2", 53)
    sim.run_until_idle()
    # The in-window query is lost with the restart; before/after answer.
    assert len(answers) == 2


def test_pause_backlog_cap_drops_overflow():
    sim, server, sock, wire, answers = dns_query_world()
    server.pause_backlog_limit = 2
    server.pause()
    for _ in range(5):
        sock.sendto(wire, "10.0.0.2", 53)
    sim.run_until_idle()
    server.resume()
    sim.run_until_idle()
    assert len(answers) == 2
    assert server._pause_dropped == 3


def test_injector_arm_is_idempotent():
    sim, send_at, got = ping_world()
    injector = FaultInjector(sim, FaultPlan([
        LinkDown(start=0.5, duration=0.5)]))
    injector.arm()
    injector.arm()
    send_at(0.7, b"t0")
    send_at(1.2, b"t1")
    sim.run_until_idle()
    assert got == [b"t1"]


# -- serialization round-trip (property-based) ---------------------------

_starts = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False)
_durations = st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)
_hosts = st.one_of(
    st.none(),
    st.lists(st.sampled_from(["server", "client-0", "client-1", "meta"]),
             min_size=0, max_size=3, unique=True).map(tuple))

_loss_bursts = st.builds(
    LossBurst, start=_starts, duration=_durations,
    loss=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    hosts=_hosts)
_delay_spikes = st.builds(
    DelaySpike, start=_starts, duration=_durations,
    extra_delay=st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False),
    hosts=_hosts)
_link_downs = st.builds(LinkDown, start=_starts, duration=_durations,
                        hosts=_hosts)
_server_pauses = st.builds(
    ServerPause, start=_starts, duration=_durations,
    host=st.sampled_from(["server", "meta", "recursive"]),
    restart=st.booleans())

_event_lists = st.lists(
    st.one_of(_loss_bursts, _delay_spikes, _link_downs, _server_pauses),
    max_size=12)


@given(_event_lists)
def test_fault_plan_dict_round_trip(events):
    """to_dict/from_dict is lossless for any mix of events, including
    overlapping windows, and the dict form is JSON-clean."""
    plan = FaultPlan(list(events))
    data = plan.to_dict()
    # Scenario files are JSON on disk: the dict must survive a dump/load.
    rehydrated = FaultPlan.from_dict(json.loads(json.dumps(data)))
    assert rehydrated.events == plan.events
    assert rehydrated.horizon() == plan.horizon()
    # A second round trip is a fixed point.
    assert rehydrated.to_dict() == data


def test_fault_plan_round_trip_overlapping_mix():
    """A concrete overlapping schedule survives the dict round trip in
    order, with hosts tuples and defaults intact."""
    plan = FaultPlan([
        LossBurst(start=1.0, duration=5.0, loss=0.3,
                  hosts=("client-0", "client-1")),
        DelaySpike(start=2.0, duration=5.0, extra_delay=0.05),
        LinkDown(start=3.0, duration=1.0, hosts=("server",)),
        ServerPause(start=3.5, duration=2.0, host="server",
                    restart=True),
    ])
    rehydrated = FaultPlan.from_dict(plan.to_dict())
    assert rehydrated.events == plan.events
    assert rehydrated.horizon() == 7.0


def test_pause_dropped_surfaces_as_observer_counter():
    """``server.pause_dropped`` is collected from the server's own
    attribute; ``pause_overflow`` has no attribute and stays recorded."""
    def collected():
        return collect((AuthoritativeServer,), [server])

    sim = Simulator(observe=True)
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    server = AuthoritativeServer(server_host,
                                 zones=[make_example_zone()])
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    wire = QueryRecord(time=0.0, src="c", qname="www.example.com.",
                       msg_id=7).to_message().to_wire()
    sock = client.udp_socket()
    server.pause_backlog_limit = 2
    server.pause()
    for _ in range(5):
        sock.sendto(wire, "10.0.0.2", 53)
    sim.run_until_idle()
    server.resume()
    sim.run_until_idle()
    # 3 overflowed the paused backlog; the counter must say so.
    assert server._pause_dropped == 3
    assert collected()["server.pause_dropped"] == 3
    assert sim.scheduler.obs.pause_overflow == 3

    # A restart-style resume drops the whole backlog and counts it too.
    server.pause()
    sock.sendto(wire, "10.0.0.2", 53)
    sim.run_until_idle()
    server.resume(drop_backlog=True)
    sim.run_until_idle()
    assert server._pause_dropped == 4
    assert collected()["server.pause_dropped"] == 4
