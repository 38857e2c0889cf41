"""End-to-end replay engine tests (Figure 4/5 topology)."""

import pytest

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.netsim import LinkParams, Simulator
from repro.replay import NaiveReplayer, ReplayConfig, ReplayEngine
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace
from repro.workloads.synthetic import synthetic_trace

N = Name.from_text


def wildcard_example_zone():
    """example.com with wildcards, as §4.2 sets up for synthetic replay."""
    zone = Zone(N("example.com."))
    zone.add(make_soa(N("example.com.")))
    from repro.dns.rdata import NS
    zone.add(RRset(N("example.com."), RRType.NS, 3600,
                   [NS(N("ns1.example.com."))]))
    zone.add(RRset(N("ns1.example.com."), RRType.A, 3600,
                   [A("198.51.100.53")]))
    zone.add(RRset(N("*.example.com."), RRType.A, 300, [A("192.0.2.1")]))
    return zone


def build_world(**server_kwargs):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    server = AuthoritativeServer(server_host,
                                 zones=[wildcard_example_zone()],
                                 log_queries=True, **server_kwargs)
    return sim, server


def test_distributed_replay_end_to_end():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=2, queriers_per_instance=2, seed=1))
    trace = synthetic_trace(0.01, duration=2.0, seed=1)
    report = engine.run(trace)
    assert len(report.results) == len(trace)
    assert report.answered_fraction() == 1.0
    assert server.queries_handled == len(trace)


def test_replay_preserves_trace_timing():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=2, queriers_per_instance=2, seed=2))
    trace = synthetic_trace(0.05, duration=3.0, seed=2)
    report = engine.run(trace)
    sent = report.send_times()
    errors = []
    base = None
    for record in trace:
        replay_time = sent[record.qname]
        if base is None:
            base = replay_time - record.time
        errors.append(replay_time - record.time - base)
    # Timing error stays within the modelled jitter bound (±17 ms).
    assert max(abs(e) for e in errors) < 0.020


def test_direct_mode_equivalent_coverage():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, mode="direct",
        seed=3))
    trace = synthetic_trace(0.01, duration=1.0, seed=3)
    report = engine.run(trace)
    assert len(report.results) == len(trace)
    assert report.answered_fraction() == 1.0


@pytest.mark.parametrize("mode", ["distributed", "direct"])
def test_reader_cost_paces_every_reader(mode):
    """``reader_cost`` is what a record costs its reader, a controller's
    Reader as much as a direct-mode distributor: at 1 ms a record,
    record 600 is not read before 0.5 s.  (The Reader once charged a
    fixed 1.5 µs whatever the knob said: 0.006 s.)"""
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, mode=mode,
        fast=True, reader_cost=1e-3, seed=1))
    report = engine.run(Trace([
        QueryRecord(time=0.0, src=f"172.16.0.{i % 8}",
                    qname=f"u{i}.example.com.") for i in range(1024)]))
    assert len(report.results) == 1024
    assert report.send_times()["u600.example.com."] >= 0.5


def test_same_source_stays_on_one_querier():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=3, queriers_per_instance=3, seed=4))
    records = [QueryRecord(time=i * 0.01, src=f"172.16.0.{i % 7}",
                           qname=f"u{i}.example.com.")
               for i in range(140)]
    report = engine.run(Trace(records))
    owner: dict[str, str] = {}
    for querier in report.queriers:
        for result in querier.results:
            src = result.record.src
            assert owner.setdefault(src, querier.name) == querier.name


def test_fast_mode_compresses_time():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, fast=True, seed=5))
    # 30 seconds of trace must replay in far less simulated time.
    trace = synthetic_trace(0.1, duration=30.0, seed=5)
    report = engine.run(trace)
    assert len(report.results) == len(trace)
    last_send = max(r.send_time for r in report.results)
    assert last_send < 3.0


def test_report_groups_by_client():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=1, seed=6))
    records = [QueryRecord(time=i * 0.01, src=f"172.16.0.{i % 3}",
                           qname=f"u{i}.example.com.")
               for i in range(30)]
    report = engine.run(Trace(records))
    grouped = report.results_by_client()
    assert len(grouped) == 3
    assert sum(len(v) for v in grouped.values()) == 30


def terminal_drift(trace, send_time_of):
    """How late the last query went out, relative to the first."""
    base = send_time_of[trace[0].qname] - trace[0].time
    last = trace[len(trace) - 1]
    return send_time_of[last.qname] - last.time - base


def naive_drift(trace):
    sim, server = build_world()
    host = sim.add_host("naive", ["10.5.0.1"], LinkParams())
    replayer = NaiveReplayer(host, "10.0.0.2")
    replayer.run(trace)
    sim.run_until_idle()
    return terminal_drift(trace, {r.record.qname: r.send_time
                                  for r in replayer.results})


def engine_drift(trace, seed):
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=seed))
    return terminal_drift(trace, engine.run(trace).send_times())


def test_naive_baseline_drifts_late():
    """The naive replayer accumulates input delay; LDplayer's engine
    does not.  Compare absolute timing error growth."""
    # 2000 records * 40 us/record input delay ~ 80 ms of terminal drift.
    assert naive_drift(synthetic_trace(0.001, duration=2.0, seed=7)) > 0.05


def test_engine_timing_beats_naive():
    """The ΔT ablation (§2.6): on the same trace the engine ends on
    schedule and the uncompensated replayer several times further off."""
    trace = synthetic_trace(0.001, duration=2.0, seed=8)
    drift = engine_drift(trace, seed=8)
    assert abs(drift) < 0.020
    assert naive_drift(trace) > abs(drift) * 3


def test_naive_baseline_sends_from_one_socket():
    """One host, one socket: every source's queries, whatever their
    transport in the trace, leave from the same UDP port."""
    sim, server = build_world()
    host = sim.add_host("naive", ["10.5.0.1"], LinkParams())
    trace = Trace([QueryRecord(time=i * 0.001, src=f"172.16.0.{i % 5}",
                               qname=f"u{i}.example.com.",
                               proto="tcp" if i % 4 == 0 else "udp")
                   for i in range(100)])
    replayer = NaiveReplayer(host, "10.0.0.2")
    replayer.run(trace)
    sim.run_until_idle()
    assert len({(e.src, e.sport) for e in server.query_log}) == 1
    assert {e.proto for e in server.query_log} == {"udp"}
    assert len(replayer.results) == 100
    assert all(r.answered for r in replayer.results)


def test_scattered_sources_break_connection_reuse():
    """The stickiness ablation (§2.6): pinned, 8 TCP sources hold 8
    server-side connections; scattered over 4 queriers, roughly one per
    (source, querier) pair."""
    trace = Trace([QueryRecord(time=i * 0.02, src=f"172.16.0.{i % 8 + 1}",
                               qname=f"u{i}.example.com.", proto="tcp")
                   for i in range(400)])

    def server_side_connections(sticky):
        sim, server = build_world(tcp_idle_timeout=20.0)
        ReplayEngine(sim, "10.0.0.2", ReplayConfig(
            client_instances=1, queriers_per_instance=4, mode="direct",
            seed=12, sticky_sources=sticky)).run(trace)
        return len({(e.src, e.sport) for e in server.query_log})

    assert server_side_connections(sticky=True) == 8
    assert server_side_connections(sticky=False) >= 24


def test_client_rtt_distribution():
    """§5.2.1's 'RTTs based on a distribution': different client
    instances get different RTTs; each source keeps a stable one."""
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"],
                               LinkParams(delay=0.0))
    AuthoritativeServer(server_host, zones=[wildcard_example_zone()])
    rtts = [0.010, 0.050, 0.100]
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=3, queriers_per_instance=1, mode="direct",
        timing_jitter=False, client_rtts=rtts, seed=13))
    records = [QueryRecord(time=i * 0.01, src=f"172.16.0.{i % 9}",
                           qname=f"u{i}.example.com.")
               for i in range(90)]
    report = engine.run(Trace(records))
    assert report.answered_fraction() == 1.0
    by_client = report.results_by_client()
    seen_rtts = set()
    for src, results in by_client.items():
        latencies = {round(r.latency, 3) for r in results}
        assert len(latencies) == 1, f"{src} saw mixed RTTs"
        seen_rtts.add(latencies.pop())
    assert seen_rtts == {round(r, 3) for r in rtts}


# -- the drain window and stop time -----------------------------------------


def test_run_extra_time_overrides_config():
    """``run(extra_time=)`` is this run's drain window, else
    ``ReplayConfig.extra_time``: resolved once, by the engine (the sim
    backend and the facades delegate to it)."""
    def drained_until(**run_kwargs):
        sim, server = build_world()
        engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
            client_instances=1, queriers_per_instance=1, seed=1,
            extra_time=3.0))
        engine.run(Trace([QueryRecord(time=0.0, src="172.16.0.1",
                                      qname="e.example.com.")]),
                   **run_kwargs)
        return sim.now
    assert drained_until() - drained_until(extra_time=1.0) \
        == pytest.approx(2.0)


def test_run_until_overrides_config():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=1, seed=1,
        until=3.5))
    trace = Trace([QueryRecord(time=float(i), src="172.16.0.1",
                               qname=f"u{i}.example.com.")
                   for i in range(5)])
    assert len(engine.run(trace, until=1.5).results) == 2


def test_run_config_until_still_works():
    """The ReplayConfig home of the former kwargs is the supported
    path: until truncates the run at that sim time."""
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=1, seed=1,
        until=1.5))
    trace = Trace([QueryRecord(time=float(i), src="172.16.0.1",
                               qname=f"u{i}.example.com.")
                   for i in range(5)])
    report = engine.run(trace)
    assert len(report.results) == 2


def test_run_unknown_kwarg_is_a_type_error():
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=1, seed=1))
    with pytest.raises(TypeError, match="nonsense"):
        engine.run(Trace([]), nonsense=1)


def test_results_slice_as_the_lists_they_read_as():
    """``ReplayReport.results`` and a querier's ``Results`` index and
    slice like the list of their rows, steps and negative bounds
    included; a slice keeps its rows' records."""
    sim, server = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=7))
    report = engine.run(synthetic_trace(0.05, duration=1.0, seed=7))
    for rows in (report.results, report.queriers[0].results):
        listed = list(rows)
        assert len(listed) > 4
        assert list(rows[0:2]) == listed[0:2] and rows[0:2] == listed[0:2]
        assert list(rows[-3:]) == listed[-3:]
        assert list(rows[::-2]) == listed[::-2]
        assert [r.record for r in rows[1:3]] == [r.record
                                                 for r in listed[1:3]]
        assert rows[-1] == listed[-1] and rows[0:0] == []
        with pytest.raises(IndexError):
            rows[len(listed)]
