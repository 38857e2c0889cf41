"""Client resilience: timeouts, retransmission, TCP fallback, reconnect.

The acceptance bar: with a retry policy, a lossy run answers ~everything
and accounts for every miss as ``timed_out`` (nothing strands in a
pending map); without one, behavior is the brittle pre-resilience
baseline; identical seeds (and fault plans) give byte-identical reports.
"""

import warnings

import pytest

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.netsim import LinkParams, Simulator
from repro.netsim.faults import FaultPlan, LossBurst, ServerPause
from repro.obs import collect
from repro.replay import (Querier, QuerierConfig, ReplayConfig,
                          ReplayEngine, ResilienceConfig)
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace

from tests.server.helpers import make_example_zone

RETRY = ResilienceConfig(timeout=0.25, max_retries=3, backoff=2.0)


def build_world(loss=0.0, resilience=None, fault_plan=None, seed=11,
                observe=False, zones=None, timing_jitter=False,
                extra_time=2.0):
    sim = Simulator(observe=observe)
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    server = AuthoritativeServer(server_host,
                                 zones=zones or [make_example_zone()],
                                 log_queries=True)
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, mode="direct",
        timing_jitter=timing_jitter, seed=seed, resilience=resilience,
        fault_plan=fault_plan, extra_time=extra_time,
        client_link=LinkParams(loss=loss), observe=observe))
    return sim, server, engine


def trace(n=300, gap=0.005, proto="udp", qname="www.example.com."):
    return Trace([QueryRecord(time=i * gap, src=f"10.9.0.{i % 8}",
                              qname=qname, proto=proto)
                  for i in range(n)])


def drain_time(policy):
    return 1.0 + sum(policy.wait_for(a + 1)
                     for a in range(policy.max_retries + 1))


# -- the loss sweep bar ----------------------------------------------------


def test_retries_hold_answered_fraction_at_five_percent_loss():
    sim, server, engine = build_world(loss=0.05, resilience=RETRY,
                                      extra_time=drain_time(RETRY))
    report = engine.run(trace(n=300))
    assert report.answered_fraction() >= 0.99
    # Everything unanswered is accounted for; nothing strands.
    for result in report.results:
        assert result.answered or result.timed_out
    assert sum(q.pending_count() for q in engine.queriers) == 0
    # The policy actually fired.
    assert sum(q.retransmits for q in engine.queriers) > 0


def test_without_retries_loss_is_materially_worse():
    sim, server, engine = build_world(loss=0.05, resilience=None,
                                      seed=11)
    report = engine.run(trace(n=300))
    assert report.answered_fraction() < 0.97
    # The brittle baseline: lost queries strand in the pending map.
    assert sum(q.pending_count() for q in engine.queriers) > 0
    assert not any(r.timed_out for r in report.results)


def test_exhausted_retries_time_out_not_strand():
    """Total outage: every query times out, none pend forever."""
    sim, server, engine = build_world(loss=1.0, resilience=RETRY,
                                      extra_time=drain_time(RETRY))
    report = engine.run(trace(n=40))
    assert report.answered_fraction() == 0.0
    assert all(r.timed_out for r in report.results)
    assert all(r.attempts == 1 + RETRY.max_retries
               for r in report.results)
    assert sum(q.pending_count() for q in engine.queriers) == 0


# -- determinism -----------------------------------------------------------


def run_faulted(seed):
    plan = FaultPlan([LossBurst(start=0.3, duration=0.4, loss=0.5),
                      ServerPause(start=0.9, duration=0.3)])
    sim, server, engine = build_world(loss=0.02, resilience=RETRY,
                                      fault_plan=plan, seed=seed,
                                      observe=True, timing_jitter=True,
                                      extra_time=drain_time(RETRY))
    report = engine.run(trace(n=200))
    return report.to_json()


def test_identical_seeds_and_fault_plan_are_byte_identical():
    assert run_faulted(23) == run_faulted(23)


def test_different_seeds_differ_under_faults():
    # The loss process is seed-driven; the report should notice.
    assert run_faulted(23) != run_faulted(24)


# -- msg-id collision regression -------------------------------------------


def blackholed_querier():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())  # no DNS app
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    querier = Querier(client, "10.0.0.2",
                      config=QuerierConfig(fast=True))
    return sim, querier


def test_wrapped_msg_id_skips_pending_ids():
    """A wrapped id must not collide with a still-pending query on the
    same UDP source (it would complete the wrong QueryResult)."""
    sim, querier = blackholed_querier()
    rec = QueryRecord(time=0.0, src="172.16.0.1",
                      qname="a.example.com.", proto="udp")
    querier.handle_record(rec)
    sim.run_until_idle()
    channel = querier._udp_channels["172.16.0.1"]
    assert list(channel.pending) == [1]
    # Simulate the 0xFFFF wrap landing exactly on the pending id.
    querier._msg_seq = 0
    querier.handle_record(QueryRecord(
        time=0.0, src="172.16.0.1", qname="b.example.com.",
        proto="udp"))
    sim.run_until_idle()
    assert sorted(channel.pending) == [1, 2]


def test_wrap_only_skips_same_source():
    sim, querier = blackholed_querier()
    querier.handle_record(QueryRecord(
        time=0.0, src="172.16.0.1", qname="a.example.com.",
        proto="udp"))
    querier._msg_seq = 0
    querier.handle_record(QueryRecord(
        time=0.0, src="172.16.0.2", qname="b.example.com.",
        proto="udp"))
    sim.run_until_idle()
    # Different source, different socket: id 1 is free to reuse there.
    assert {src: list(channel.pending)
            for src, channel in querier._udp_channels.items()} == {
        "172.16.0.1": [1], "172.16.0.2": [1]}


# -- malformed responses ----------------------------------------------------


def test_malformed_response_is_counted_not_swallowed():
    sim = Simulator(observe=True)
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    sock = server_host.udp_socket(53)
    sock.on_datagram = (lambda payload, src, sport:
                        sock.sendto(b"\x00\x01junk", src, sport))
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    querier = Querier(client, "10.0.0.2",
                      config=QuerierConfig(fast=True))
    querier.handle_record(QueryRecord(
        time=0.0, src="172.16.0.1", qname="a.example.com.",
        proto="udp"))
    sim.run_until_idle()
    assert querier.malformed == 1
    flat = collect((Querier,), [querier])
    assert flat["replay.malformed_responses"] == 1
    assert not querier.results[0].answered


# -- TC-bit fallback --------------------------------------------------------


def big_zone():
    zone = make_example_zone()
    name = Name.from_text("big.example.com.")
    zone.add(RRset(name, RRType.A, 300,
                   [A(f"192.0.2.{i}") for i in range(1, 64)]))
    return zone


def test_tc_bit_falls_back_to_tcp():
    sim, server, engine = build_world(
        resilience=ResilienceConfig(timeout=1.0, max_retries=1),
        zones=[big_zone()], extra_time=3.0)
    report = engine.run(trace(n=4, gap=0.05,
                              qname="big.example.com."))
    assert report.answered_fraction() == 1.0
    assert all(r.fell_back for r in report.results)
    # The answer actually came over TCP and is the whole RRset.
    assert any(e.proto == "tcp" for e in server.query_log)
    assert all(r.response_size > 512 for r in report.results)
    assert sum(q.tcp_fallbacks for q in engine.queriers) == 4


def test_tc_bit_completes_truncated_without_resilience():
    """Legacy behavior preserved: no fallback, the truncated response
    completes the query."""
    sim, server, engine = build_world(resilience=None,
                                      zones=[big_zone()],
                                      extra_time=1.0)
    report = engine.run(trace(n=2, gap=0.05,
                              qname="big.example.com."))
    assert report.answered_fraction() == 1.0
    assert not any(r.fell_back for r in report.results)
    assert all(e.proto == "udp" for e in server.query_log)
    assert all(r.response_size <= 512 for r in report.results)


# -- stream reconnect -------------------------------------------------------


def test_tcp_reconnect_resends_pending_once():
    sim, server, engine = build_world(
        resilience=ResilienceConfig(timeout=5.0, max_retries=0),
        extra_time=8.0)
    querier = engine.queriers[0]

    def sever():
        for conn in list(server.host._tcp_conns.values()):
            conn.close()

    # Warm connection at t=0; server pauses, a query goes pending, the
    # server-side close kills the channel underneath it.
    sim.scheduler.at(1.0, server.pause)
    sim.scheduler.at(1.3, sever)
    sim.scheduler.at(1.6, server.resume)
    report = engine.run(
        Trace([QueryRecord(time=0.0, src="10.9.0.1", proto="tcp",
                           qname="www.example.com."),
               QueryRecord(time=1.1, src="10.9.0.1", proto="tcp",
                           qname="mail.example.com.")]))
    assert report.answered_fraction() == 1.0
    second = [r for r in report.results
              if r.record.qname == "mail.example.com."][0]
    assert second.attempts == 2
    assert sum(q.reconnects for q in engine.queriers) == 1
    assert sum(q.pending_count() for q in engine.queriers) == 0


def test_server_pause_window_recovered_by_retransmission():
    plan = FaultPlan([ServerPause(start=0.4, duration=0.5)])
    sim, server, engine = build_world(resilience=RETRY,
                                      fault_plan=plan,
                                      extra_time=drain_time(RETRY))
    report = engine.run(trace(n=200))
    assert report.answered_fraction() == 1.0
    in_window = [r for r in report.results
                 if 0.4 <= r.send_time < 0.9]
    assert in_window  # the pause actually covered live traffic


# -- config validation ------------------------------------------------------


@pytest.mark.parametrize("bad, message", [
    (dict(timeout=0.0), "timeout must be > 0"),
    (dict(timeout=-1.0), "timeout must be > 0"),
    (dict(max_retries=-2), "max_retries must be >= 0"),
    (dict(backoff=0.0), "backoff must be >= 1"),
    (dict(backoff=0.5), "backoff must be >= 1"),
])
def test_resilience_config_validates_knobs(bad, message):
    """A non-positive timeout used to time every query out the instant
    it was sent (answered 0.0, no error)."""
    with pytest.raises(ValueError, match=message):
        ResilienceConfig(**bad)
    ResilienceConfig(max_retries=0, backoff=1.0)    # the edges are valid


# -- QuerierConfig API ------------------------------------------------------


def test_legacy_keyword_tail_removed():
    """The deprecated per-knob keyword tail is gone: passing one of the
    old keywords is a TypeError, not a silently ignored argument."""
    sim = Simulator()
    host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    for legacy in ("nagle", "dns_port", "tls_port", "quic_port",
                   "jitter_seed"):
        with pytest.raises(TypeError):
            Querier(host, "10.0.0.2", **{legacy: 1})


def test_config_path_emits_no_warning():
    sim = Simulator()
    host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Querier(host, "10.0.0.2", config=QuerierConfig(nagle=False))
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


def test_querier_config_object():
    sim = Simulator()
    host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    config = QuerierConfig(nagle=False, dns_port=5353,
                           resilience=RETRY)
    querier = Querier(host, "10.0.0.2", config=config)
    assert querier.nagle is False
    assert querier.dns_port == 5353
    assert querier.resilience is RETRY


def test_resilience_metrics_appear_only_when_enabled():
    """Report schema v2: the keys are there either way, at zero — only
    a ResilienceConfig can make them move."""
    sim, server, engine = build_world(loss=0.0, resilience=None,
                                      observe=True, seed=3,
                                      extra_time=1.0)
    report = engine.run(trace(n=20))
    assert report.metrics()["replay"]["timed_out"] == 0

    sim, server, engine = build_world(loss=0.0, resilience=RETRY,
                                      observe=True, seed=3,
                                      extra_time=1.0)
    report = engine.run(trace(n=20))
    replay = report.metrics()["replay"]
    assert replay["timed_out"] == 0
    assert replay["still_pending"] == 0
