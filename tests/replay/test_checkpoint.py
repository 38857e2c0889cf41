"""Checkpoint/resume for supervised distributed replay.

The determinism bar: a replay killed mid-run and resumed on a freshly
built engine from a quiescent checkpoint must produce a
``ReplayReport.to_json()`` byte-identical to the uninterrupted run.
Holds in the deterministic scope (UDP-only trace, ``timing_jitter``
off, observability off) — see docs/RESILIENCE.md.  With observability
on, every collected counter still matches (they are read off the
restored components), and so do the per-query rows (read off the
restored results); only the ``Observer``'s own attributes (per-transport
traffic, scheduler gauges, its histograms) and its spans restart at
the cut.
"""

import json
import os

import pytest

from repro.netsim import LinkParams, Simulator
from repro.obs import collect
from repro.replay import ReplayConfig, ReplayEngine
from repro.replay.backends import COUNTED
from repro.replay.supervisor import (CHECKPOINT_VERSION,
                                     ReplayCheckpoint,
                                     SupervisionConfig)
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace

from tests.replay.test_engine import wildcard_example_zone


# The CI chaos job sweeps this seed; locally the suite is fixed.
SEED = int(os.environ.get("REPLAY_CHAOS_SEED", "11"))


def make_trace(n=100, clients=12, duration=4.0):
    # Inter-record gap (40 ms) comfortably exceeds CHECKPOINT_GUARD
    # (10 ms), so the periodic ticks find quiescent instants
    # between sends.
    return Trace([QueryRecord(time=(i * duration) / n,
                              src=f"172.16.0.{i % clients}",
                              qname=f"u{i}.example.com.",
                              proto="udp")
                  for i in range(n)], name="ckpt")


def build_engine(checkpoint_interval=0.25, seed=SEED, supervised=True,
                 observe=False):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    AuthoritativeServer(server_host, zones=[wildcard_example_zone()],
                        log_queries=False)
    supervision = None
    if supervised:
        supervision = SupervisionConfig(
            checkpoint_interval=checkpoint_interval)
    return ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=2, queriers_per_instance=3, seed=seed,
        timing_jitter=False, supervision=supervision,
        observe=observe, extra_time=2.0))


def run_full():
    """Uninterrupted reference run; returns (report_json, checkpoints)."""
    engine = build_engine()
    report = engine.run(make_trace())
    return (report.to_json(),
            engine.supervisor.checkpointer.checkpoints)


def mid_run_checkpoint(checkpoints):
    mid = [c for c in checkpoints if 0.4 <= c.time <= 1.7]
    assert mid, ("no mid-run checkpoint captured: "
                 f"{[round(c.time, 3) for c in checkpoints]}")
    return mid[len(mid) // 2]


def test_periodic_checkpoints_are_captured_mid_run():
    _, checkpoints = run_full()
    assert len(checkpoints) >= 2
    times = [c.time for c in checkpoints]
    assert times == sorted(times)
    mid_run_checkpoint(checkpoints)  # at least one before the drain


def test_checkpoint_dict_round_trip():
    _, checkpoints = run_full()
    ckpt = mid_run_checkpoint(checkpoints)
    wire = json.dumps(ckpt.to_dict())  # must be JSON-serializable
    clone = ReplayCheckpoint.from_dict(json.loads(wire))
    assert clone.to_dict() == ckpt.to_dict()
    assert clone.time == ckpt.time
    assert clone.seed == ckpt.seed
    assert clone.to_dict()["version"] == CHECKPOINT_VERSION == 4
    # Since version 3 every pin table is one format, the RNG state plus
    # a member index per source.
    for actor in clone.controllers + clone.distributors:
        assert set(actor["pins"]) == {"rng", "pins"}
        assert all(isinstance(index, int)
                   for index in actor["pins"]["pins"].values())
    assert clone.controllers[0]["pins"]["pins"]
    # Version 4: a parked send keeps its timer's event time and its ΔT
    # target beside the record.
    parked = [send for querier in clone.queriers
              for send in querier["backlog"]]
    assert parked
    for send in parked:
        assert set(send) == {"record", "at", "target"}
        assert send["at"] >= clone.time


def test_version_2_checkpoint_is_rejected():
    """Version 2 stored the controller's pins as channel indexes and
    the distributor's as querier names, each beside its own RNG
    state; it is refused, not converted."""
    _, checkpoints = run_full()
    old = mid_run_checkpoint(checkpoints).to_dict()
    old["version"] = 2
    with pytest.raises(ValueError, match="version 2"):
        ReplayCheckpoint.from_dict(old)


def test_version_3_checkpoint_is_rejected():
    """Version 3 stored a parked send as its record alone, re-armed
    from the cut on resume; it is refused, not converted."""
    _, checkpoints = run_full()
    old = mid_run_checkpoint(checkpoints).to_dict()
    old["version"] = 3
    with pytest.raises(ValueError, match="version 3"):
        ReplayCheckpoint.from_dict(old)


def checkpointed_parts():
    """One fresh instance of every component with a ``state_dict``
    (the supervisor's and the fabric's counters travel as
    ``ReplayCheckpoint.counters``/``.network``, pinned by the resume
    tests below)."""
    engine = build_engine()
    server, = engine.sim.hosts["server"].apps
    return {"querier": engine.queriers[0],
            "distributor": engine.distributors[0],
            "controller": engine.controllers[0],
            "server": server, "answer_cache": server}


@pytest.mark.parametrize("part", sorted(checkpointed_parts()))
def test_state_round_trip_restores_every_declared_counter(part):
    """``state_dict``/``load_state`` and the report read one
    declaration, so a counter cannot be checkpointed but unreported,
    or reported but not restored."""
    source, target = (checkpointed_parts()[part] for _ in range(2))
    counting = ((source.answer_cache, target.answer_cache)
                if part == "answer_cache" else (source, target))
    expected = {}
    for value, (attr, name) in enumerate(counting[0].COUNTERS.items(), 7):
        setattr(counting[0], attr, value)
        expected[name] = value
    target.load_state(json.loads(json.dumps(source.state_dict())))
    assert collect([type(counting[1])], [counting[1]],
                   include_volatile=True) == expected


def test_checkpoint_version_is_validated():
    _, checkpoints = run_full()
    stale = mid_run_checkpoint(checkpoints).to_dict()
    stale["version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        ReplayCheckpoint.from_dict(stale)


def test_killed_and_resumed_run_is_byte_identical():
    full_json, checkpoints = run_full()
    ckpt = mid_run_checkpoint(checkpoints)
    # The dict round-trip stands in for writing the snapshot to disk
    # before the replay was killed.
    ckpt = ReplayCheckpoint.from_dict(json.loads(
        json.dumps(ckpt.to_dict())))
    engine = build_engine()
    resumed = engine.run(make_trace(),
                         resume_from=ckpt)
    assert resumed.to_json() == full_json


@pytest.mark.parametrize("seed", [16, 37])
def test_resume_rearms_parked_sends_at_their_original_instants(seed):
    """Every checkpoint resumes byte-identically.  A parked ΔT send is
    re-armed at its timer's own event time: re-ingested through
    ``handle_record`` it was re-armed ``target - now`` after the cut,
    an ulp away from the timer armed at its arrival (seed 16 resumed at
    0.75 s read ``meta.sim_time`` 5.965045936 against
    5.965045936000001).  And no checkpoint is taken once the replay has
    drained: resumed from one, the run ended ``extra_time`` after the
    cut instead of after its last event."""
    engine = build_engine(seed=seed)
    full_json = engine.run(make_trace()).to_json()
    checkpoints = engine.supervisor.checkpointer.checkpoints
    assert len(checkpoints) > 1
    for checkpoint in checkpoints:
        resumed = build_engine(seed=seed).run(
            make_trace(), resume_from=ReplayCheckpoint.from_dict(
                json.loads(json.dumps(checkpoint.to_dict()))))
        assert resumed.to_json() == full_json, checkpoint.time


def test_resumed_observed_run_reports_the_run_not_the_tail():
    """Counters are collected from the components a checkpoint
    restores, so a resumed *observed* run reports the whole run.  (When
    the registry kept its own copy it restarted at the cut: 56 queries
    sent where the queriers had sent 150.)  That covers the fabric's
    packet counts too: the checkpoint carries them, and the resumed
    run sends the heartbeat that was due at the cut.  Latency, timing
    error and sends by transport are read off the checkpointed results,
    so they are the whole run's as well.  The ``Observer``'s own
    attributes and spans restart at the cut and stay outside the
    guarantee."""
    engine = build_engine(observe=True)
    full = engine.run(make_trace()).metrics()
    ckpt = mid_run_checkpoint(engine.supervisor.checkpointer.checkpoints)
    resumed = build_engine(observe=True).run(
        make_trace(), resume_from=ckpt).metrics()
    assert full["replay"]["queries_sent"] == len(make_trace())
    for name in collect(COUNTED, ()):
        group, _, key = name.partition(".")
        assert resumed[group][key] == full[group][key], name
    assert resumed["server"]["qps"] == full["server"]["qps"]
    for key in ("latency", "timing_error", "queries_udp"):
        assert resumed["replay"][key] == full["replay"][key], key
    assert full["replay"]["latency"]["count"] == len(make_trace())


@pytest.mark.parametrize("interval", [0.05, 0.251])
def test_resume_is_byte_identical_whatever_the_tick_phase(interval):
    """The report carries the fabric's packet counts, so the cut must
    not lose a heartbeat.  A tick on a beat's own instant (interval ==
    ``HEARTBEAT_INTERVAL``) runs before the beat, and the resumed run
    sends it; a tick while a beat is on the wire (0.251 s is 1 ms
    after the beat at 0.25 s) is not quiescent and is skipped."""
    engine = build_engine(checkpoint_interval=interval)
    full_json = engine.run(make_trace()).to_json()
    first = engine.supervisor.checkpointer.checkpoints[0]
    assert first.time == pytest.approx(0.05 if interval == 0.05
                                       else 3 * 0.251)
    assert first.network["delivered"] > 0
    resumed = build_engine(checkpoint_interval=interval).run(
        make_trace(), resume_from=ReplayCheckpoint.from_dict(
            json.loads(json.dumps(first.to_dict()))))
    assert resumed.to_json() == full_json


def test_resumed_run_counts_checkpoints_like_uninterrupted():
    """checkpoints_written must account for the snapshot being resumed
    from, or the resumed report disagrees with the reference."""
    full_json, checkpoints = run_full()
    ckpt = mid_run_checkpoint(checkpoints)
    engine = build_engine()
    resumed = engine.run(make_trace(),
                         resume_from=ckpt)
    full = json.loads(full_json)
    assert (resumed.metrics()["replay"]["checkpoints_written"]
            == full["replay"]["checkpoints_written"])
    assert resumed.to_json() == full_json


def test_resume_requires_supervision():
    _, checkpoints = run_full()
    ckpt = mid_run_checkpoint(checkpoints)
    engine = build_engine(supervised=False)
    with pytest.raises(ValueError, match="supervis"):
        engine.run(make_trace(), resume_from=ckpt)


def test_resume_rejects_seed_mismatch():
    _, checkpoints = run_full()
    ckpt = mid_run_checkpoint(checkpoints)
    engine = build_engine(seed=SEED + 1)
    with pytest.raises(ValueError, match="seed"):
        engine.run(make_trace(), resume_from=ckpt)


def test_no_checkpointer_without_interval():
    engine = build_engine(checkpoint_interval=None)
    engine.run(make_trace(n=60))
    assert engine.supervisor.checkpointer is None
    assert engine.supervisor.checkpoints_written == 0


def outcomes(report):
    return [(r.record.qname, r.record.src, r.send_time, r.answered,
             r.rcode) for r in report.results]


def test_checkpointing_does_not_perturb_the_replay():
    """Snapshots observe the run; per-query outcomes must not change
    with the checkpoint interval (or with checkpointing off)."""
    engine = build_engine(checkpoint_interval=None)
    baseline = engine.run(make_trace())
    engine = build_engine()
    with_ckpt = engine.run(make_trace())
    assert engine.supervisor.checkpoints_written > 0
    assert outcomes(with_ckpt) == outcomes(baseline)
