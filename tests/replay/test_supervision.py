"""Supervised distributed replay: heartbeats, failover, backpressure.

The acceptance bar (ISSUE: robustness PR): crash a querier mid-replay
via the fault plan.  With supervision the answered fraction stays at or
above 0.99 and every source's post-failover queries share one querier;
without supervision the crash strands that querier's sources — the
pre-supervision behavior, reproduced and pinned.
"""

import os

import pytest

from repro.netsim import LinkParams, Simulator
from repro.netsim.faults import DistributorLag, FaultPlan, QuerierCrash
from repro.replay import ReplayConfig, ReplayEngine
from repro.replay.supervisor import (DETECTION_TIMEOUT,
                                     HEARTBEAT_INTERVAL,
                                     SupervisionConfig, next_tick,
                                     rendezvous)
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace

from tests.replay.test_engine import wildcard_example_zone

CRASH_AT = 1.0
# The CI chaos job sweeps this seed; locally the suite is fixed.
SEED = int(os.environ.get("REPLAY_CHAOS_SEED", "11"))


def build_engine(supervision=None, fault_plan=None, instances=2,
                 queriers=3, controllers=1, seed=SEED,
                 extra_time=2.0, observe=False):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    server = AuthoritativeServer(server_host,
                                 zones=[wildcard_example_zone()],
                                 log_queries=False)
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=instances, queriers_per_instance=queriers,
        controllers=controllers, seed=seed, supervision=supervision,
        fault_plan=fault_plan, extra_time=extra_time, observe=observe))
    return sim, server, engine


def make_trace(n=300, clients=24, duration=2.0):
    return Trace([QueryRecord(time=(i * duration) / n,
                              src=f"172.16.0.{i % clients}",
                              qname=f"u{i}.example.com.")
                  for i in range(n)])


def crash_plan(target="querier-0.1"):
    return FaultPlan([QuerierCrash(start=CRASH_AT, target=target)])


def post_failover_owners(engine, after=CRASH_AT):
    owners = {}
    for querier in engine.queriers:
        for result in querier.results:
            if result.send_time > after:
                owners.setdefault(result.record.src,
                                  set()).add(querier.name)
    return owners


# -- the failover bar -------------------------------------------------------


def test_supervised_crash_meets_answered_bar():
    sim, server, engine = build_engine(
        supervision=SupervisionConfig(), fault_plan=crash_plan())
    trace = make_trace()
    report = engine.run(trace)
    answered = sum(1 for r in report.results if r.answered)
    assert answered / len(trace) >= 0.99
    assert engine.supervisor.failovers == 1
    assert "querier-0.1" in engine.supervisor.failed
    assert engine.supervisor.redispatched > 0
    # Each re-dispatched record went out exactly once.
    assert engine.supervisor.dropped_after_refailover == 0


def test_supervised_crash_keeps_sources_on_one_querier():
    sim, server, engine = build_engine(
        supervision=SupervisionConfig(), fault_plan=crash_plan())
    engine.run(make_trace())
    # Post-failover, every source's queries share one querier (and so
    # one socket: sockets are per-source per-querier).
    detection = (CRASH_AT
                 + DETECTION_TIMEOUT
                 + 2 * HEARTBEAT_INTERVAL)
    for src, owners in post_failover_owners(engine, detection).items():
        assert len(owners) == 1, (src, owners)


def test_unsupervised_crash_strands_sources():
    """The pre-supervision behavior the PR fixes, reproduced: without
    the supervision layer the crashed querier's unsent records strand
    and the answered fraction drops below the bar."""
    sim, server, engine = build_engine(fault_plan=crash_plan())
    trace = make_trace()
    report = engine.run(trace)
    answered = sum(1 for r in report.results if r.answered)
    assert answered / len(trace) < 0.99
    assert engine.supervisor is None


def test_crashed_querier_keeps_precrash_results():
    sim, server, engine = build_engine(
        supervision=SupervisionConfig(), fault_plan=crash_plan())
    engine.run(make_trace())
    victim = next(q for q in engine.queriers
                  if q.name == "querier-0.1")
    assert victim.crashed
    assert victim.results  # pre-crash answers survive in the report
    assert all(r.send_time <= CRASH_AT + 0.001 for r in victim.results)


def test_in_flight_queries_surface_as_failed_over():
    """Queries awaiting a response when their querier dies are lost
    with the process and must be reported, not silently dropped."""
    sim = Simulator()
    # A long RTT keeps queries in flight across the crash instant.
    server_host = sim.add_host("server", ["10.0.0.2"],
                               LinkParams(delay=0.2))
    AuthoritativeServer(server_host, zones=[wildcard_example_zone()],
                        log_queries=False)
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=11,
        supervision=SupervisionConfig(),
        fault_plan=crash_plan(target="querier-0.0")))
    trace = Trace([QueryRecord(time=0.9 + i * 0.01, src="172.16.0.1",
                               qname=f"u{i}.example.com.")
                   for i in range(12)])
    report = engine.run(trace)
    victim = next(q for q in engine.queriers
                  if q.name == "querier-0.0")
    if victim.failed_over:  # only if the crash caught traffic in flight
        metrics = report.metrics()["replay"]
        assert metrics["failed_over"] == victim.failed_over
        assert sum(1 for r in report.results
                   if r.failed_over) == victim.failed_over


@pytest.mark.parametrize("controllers", [1, 2, 3])
def test_distributor_failover_repins_across_channels(controllers):
    sim, server, engine = build_engine(
        supervision=SupervisionConfig(), instances=2,
        controllers=controllers)
    trace = make_trace()
    victim = engine.distributors[0]
    # Which controller each record frame left on, and whether it was
    # the supervisor's re-dispatch that sent it.
    sends = []
    redispatching = []
    fail_distributor = engine.supervisor._fail_distributor

    def logged_failover(distributor):
        redispatching.append(True)
        fail_distributor(distributor)
        redispatching.clear()

    engine.supervisor._fail_distributor = logged_failover
    for controller in engine.controllers:
        def send_record(channel, record, controller=controller,
                        send=controller.send_record):
            sends.append((record.src, controller, bool(redispatching)))
            send(channel, record)
        controller.send_record = send_record
    # Kill the distributor process mid-replay; the supervisor must
    # notice via missing heartbeats (no fault-plan edge tells it).
    sim.scheduler.at(CRASH_AT, victim.crash)
    report = engine.run(trace)
    assert victim.name in engine.supervisor.failed
    # Each re-dispatched record of a source went out on the controller
    # that reads the source.
    reader = {}
    for src, controller, _ in sends:
        reader.setdefault(src, controller)
    redispatched = [(src, controller)
                    for src, controller, again in sends if again]
    # (>=: a Postman unstalled by the failover sends on its own.)
    assert len(redispatched) >= engine.supervisor.redispatched > 0
    for src, controller in redispatched:
        assert controller is reader[src], src
    assert engine.supervisor.failovers >= 1
    answered = sum(1 for r in report.results if r.answered)
    assert answered / len(trace) >= 0.99
    # Every source that kept sending post-failover did so through the
    # surviving distributor's queriers.
    surviving = {q.name for q in engine.distributors[1].queriers}
    detection = (CRASH_AT
                 + DETECTION_TIMEOUT
                 + 2 * HEARTBEAT_INTERVAL)
    for src, owners in post_failover_owners(engine, detection).items():
        assert owners <= surviving, (src, owners)


def test_redispatch_gate_tells_a_fresh_record_from_a_freed_one():
    """A record re-dispatched through a control frame is decoded anew on
    the survivor and the original is freed.  The gate remembered only
    its ``id()``, so a later orphan allocated at that address was
    dropped as a repeat (counted in ``dropped_after_refailover``)."""
    sim, server, engine = build_engine(supervision=SupervisionConfig())
    supervisor = engine.supervisor

    def orphan(i):
        return QueryRecord(time=1.0, src="172.16.0.1",
                           qname=f"u{i}.example.com.")

    # No assert on the first pass: its temporaries would keep the
    # record alive.
    sent = list(supervisor._first_time([orphan(0)]))
    del sent
    # CPython hands a freed block to the next object of its size.
    fresh = [orphan(i) for i in range(1, 9)]
    assert list(supervisor._first_time(fresh)) == fresh
    assert supervisor.redispatched == 9
    assert supervisor.dropped_after_refailover == 0
    # A record met twice is still sent once.
    assert list(supervisor._first_time(fresh[:1])) == []
    assert supervisor.dropped_after_refailover == 1


def test_rendezvous_is_deterministic_and_stable():
    names = [f"querier-0.{i}" for i in range(5)]
    pins = {f"src{i}": rendezvous(f"src{i}", names) for i in range(50)}
    survivors = [n for n in names if n != "querier-0.2"]
    for src, owner in pins.items():
        if owner != "querier-0.2":
            assert rendezvous(src, survivors) == owner
    with pytest.raises(ValueError):
        rendezvous("src", [])


# -- the acceptance bar on the B-Root analogue ------------------------------


def broot_failover_run(supervised):
    from repro.experiments.harness import (authoritative_world,
                                           root_zone_world,
                                           wildcard_root_zone)
    from repro.workloads.broot import broot16
    internet = root_zone_world(tlds=4, slds_per_tld=4, seed=3)
    zone = wildcard_root_zone(internet)
    trace = broot16(internet, duration=2.0, mean_rate=150, clients=40)
    plan = FaultPlan([QuerierCrash(start=1.0, target="querier-0.1")])
    world = authoritative_world(
        [zone], mode="distributed", client_instances=2,
        queriers_per_instance=3, seed=SEED, fault_plan=plan,
        supervision=SupervisionConfig() if supervised else None)
    result = world.run(trace, extra_time=2.0)
    answered = sum(1 for r in result.report.results if r.answered)
    return world.engine, answered / len(trace)


def test_broot_crash_supervised_meets_bar():
    engine, fraction = broot_failover_run(supervised=True)
    assert fraction >= 0.99
    assert engine.supervisor.failovers == 1
    detection = (1.0 + DETECTION_TIMEOUT
                 + 2 * HEARTBEAT_INTERVAL)
    for src, owners in post_failover_owners(engine, detection).items():
        assert len(owners) == 1, (src, owners)


def test_broot_crash_unsupervised_strands():
    engine, fraction = broot_failover_run(supervised=False)
    assert fraction < 0.99
    assert engine.supervisor is None


# -- backpressure -----------------------------------------------------------


def test_backpressure_bounds_queue_depth_and_completes():
    high_water = 16
    plan = FaultPlan([DistributorLag(start=0.0, duration=4.0,
                                     target="distributor0",
                                     factor=50.0)])
    sim, server, engine = build_engine(
        supervision=SupervisionConfig(high_water=high_water),
        fault_plan=plan, instances=1, queriers=2, extra_time=20.0)
    trace = make_trace(n=400, clients=16)
    report = engine.run(trace)
    distributor = engine.distributors[0]
    assert distributor.peak_depth <= high_water
    assert engine.supervisor.stalls > 0
    metrics = report.metrics()["replay"]
    assert metrics["backpressure_stalls"] == engine.supervisor.stalls
    # The stall slowed the replay but nothing was lost.
    answered = sum(1 for r in report.results if r.answered)
    assert answered == len(trace)


def test_shed_policy_drops_oldest_instead_of_stalling():
    high_water = 8
    plan = FaultPlan([DistributorLag(start=0.0, duration=4.0,
                                     target="distributor0",
                                     factor=200.0)])
    sim, server, engine = build_engine(
        supervision=SupervisionConfig(high_water=high_water,
                                      queue_policy="shed"),
        fault_plan=plan, instances=1, queriers=2, extra_time=20.0)
    trace = make_trace(n=400, clients=16)
    report = engine.run(trace)
    assert engine.supervisor.sheds > 0
    assert engine.supervisor.stalls == 0
    assert report.metrics()["replay"]["shed"] == engine.supervisor.sheds
    # Shedding trades completeness for currency: some records dropped,
    # everything that went out got answered.
    assert len(report.results) < len(trace)
    assert all(r.answered for r in report.results)


# -- one forwarding path, supervised or bare ----------------------------------


def lagged_run(supervised, lagged=True, observe=False):
    plan = FaultPlan([DistributorLag(start=0.0, duration=4.0,
                                     target="distributor0",
                                     factor=5000.0)]) if lagged else None
    sim, server, engine = build_engine(
        supervision=SupervisionConfig() if supervised else None,
        fault_plan=plan, instances=1, queriers=2, extra_time=20.0,
        observe=observe)
    report = engine.run(make_trace(n=400, clients=16))
    assert all(r.answered for r in report.results)
    return engine, report


def test_distributor_lag_delays_handover_on_bare_runs():
    """`DistributorLag` used to act only on the supervised forwarding
    path; a bare run replayed on time with and without the fault."""
    engine, report = lagged_run(supervised=False, lagged=False)
    on_time = max(r.send_time for r in report.results)
    assert on_time == pytest.approx(2.0, abs=0.01)
    # The Reader pre-loads the trace; the queue holds what the busy
    # chain has not handed over yet — tracked without supervision too.
    assert engine.distributors[0].peak_depth == 325
    # 400 records x 2 us x 5000 = 4 s of serialized CPU.
    engine, report = lagged_run(supervised=False)
    bare = max(r.send_time for r in report.results)
    assert bare == pytest.approx(4.01, abs=0.01)
    engine, report = lagged_run(supervised=True, observe=True)
    assert max(r.send_time for r in report.results) \
        == pytest.approx(bare, abs=1e-3)
    # The wait for the busy chain is recorded under supervision too.
    lag = report.metrics()["replay"]["distributor_queue_lag"]
    assert lag["count"] == 400 and lag["max"] > 3.9


def fast_broot_last_send(mean_rate, supervised):
    from repro.core.experiment import (AuthoritativeExperiment,
                                       ExperimentConfig)
    from repro.experiments.harness import (root_zone_world,
                                           wildcard_root_zone)
    from repro.workloads.broot import broot16
    internet = root_zone_world(tlds=4, slds_per_tld=4, seed=3)
    trace = broot16(internet, duration=2.0, mean_rate=mean_rate,
                    clients=60)
    world = AuthoritativeExperiment(
        [wildcard_root_zone(internet)],
        ExperimentConfig(replay=ReplayConfig(
            mode="distributed", fast=True, client_instances=2,
            queriers_per_instance=3, seed=SEED,
            supervision=SupervisionConfig() if supervised else None)))
    results = world.run(trace, extra_time=2.0).report.results
    assert len(results) == len(trace)
    assert all(r.answered for r in results)
    return max(r.send_time for r in results)


@pytest.mark.parametrize("mean_rate", [400, 3000])
def test_fault_free_supervision_leaves_the_forwarding_pace_alone(
        mean_rate):
    """Supervision bounds the queue every record is already in; with
    no fault and no full queue it must not slow the hand-over (the
    supervised twin path used to serialise the Unix-socket hop: ratio
    1.65-2.85 on this replay)."""
    ratio = (fast_broot_last_send(mean_rate, supervised=True)
             / fast_broot_last_send(mean_rate, supervised=False))
    assert ratio == pytest.approx(1.0, abs=0.02)


# -- heartbeat bookkeeping --------------------------------------------------


def test_heartbeats_keep_live_actors_alive():
    sim, server, engine = build_engine(supervision=SupervisionConfig())
    engine.run(make_trace(n=100))
    assert engine.supervisor.failovers == 0
    assert not engine.supervisor.failed


def test_supervision_stops_after_drain():
    """Heartbeats must not keep the simulation alive (and the clock
    advancing) forever once the replay has drained."""
    sim, server, engine = build_engine(supervision=SupervisionConfig())
    engine.run(make_trace(n=100, duration=1.0))
    assert engine.supervisor.stopped
    assert sim.now < 30.0


def test_next_tick_strictly_advances():
    # 2.15 / 0.05 rounds down a hair; the naive computation lands back
    # on `now` and spins the heartbeat loop at a frozen clock.
    now = 2.15
    tick = next_tick(now, 0.05)
    assert tick > now
    assert next_tick(0.0, 0.25) == 0.25


# -- config validation (satellite: bare-error regression) -------------------


def test_engine_rejects_zero_client_instances():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())
    with pytest.raises(ValueError, match="client_instances"):
        ReplayEngine(sim, "10.0.0.2", ReplayConfig(client_instances=0))


def test_engine_rejects_zero_queriers_per_instance():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())
    with pytest.raises(ValueError, match="queriers_per_instance"):
        ReplayEngine(sim, "10.0.0.2",
                     ReplayConfig(queriers_per_instance=0))


def test_engine_rejects_zero_controllers():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())
    with pytest.raises(ValueError, match="controllers"):
        ReplayEngine(sim, "10.0.0.2", ReplayConfig(controllers=0))


def test_engine_rejects_unknown_mode():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())
    with pytest.raises(ValueError, match="mode"):
        ReplayEngine(sim, "10.0.0.2", ReplayConfig(mode="sideways"))


def test_supervision_requires_distributed_mode():
    sim = Simulator()
    sim.add_host("server", ["10.0.0.2"], LinkParams())
    with pytest.raises(ValueError, match="distributed"):
        ReplayEngine(sim, "10.0.0.2", ReplayConfig(
            mode="direct", supervision=SupervisionConfig()))


def test_supervision_config_validates_knobs():
    with pytest.raises(ValueError, match="high_water"):
        SupervisionConfig(high_water=0)
    with pytest.raises(ValueError, match="queue_policy"):
        SupervisionConfig(queue_policy="panic")
