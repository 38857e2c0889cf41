"""Cut and continue: a supervised distributed replay stopped with
``run(trace, until=c)`` and continued on the *same* engine reports
byte-for-byte what the uninterrupted run reports.

The sim replays from a seed, so any cut of a run is reproduced by
running it again; this pins that stopping at a cut moves nothing.  The
whole ``ReplayReport.to_json()`` is compared: results, every collected
counter, the fabric's packet counts and, with ``observe=True``, the
``Observer``'s own rows.  Four scopes, at one and two controllers:

* UDP without timing jitter;
* a UDP/TCP mix with jitter, observed;
* a querier crash at 1.3 s with client resilience, cut on both sides
  of the crash;
* backpressure: a high-water mark of 2 keeps the Postmen stalling
  until 3.5 s, so records still cross the control plane at the cuts
  (in the other scopes the Reader has handed every record over before
  the first cut).

The cuts stop strictly before the drain: a cut after the last record
leaves the clock past the last event, so ``run_until_idle`` plus the
drain window ends later than the uninterrupted run does.
"""

import os

import pytest

from repro.netsim import LinkParams, Simulator
from repro.netsim.faults import FaultPlan, QuerierCrash
from repro.replay import ReplayConfig, ReplayEngine, ResilienceConfig
from repro.replay.supervisor import SupervisionConfig
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace

from tests.replay.test_engine import wildcard_example_zone


# The CI chaos job sweeps this seed; locally the suite is fixed.
SEED = int(os.environ.get("REPLAY_CHAOS_SEED", "11"))
EXTRA_TIME = 2.0
CUT_STEP = 0.25


def make_trace(n=100, clients=12, duration=4.0, tcp_every=None):
    return Trace([QueryRecord(time=(i * duration) / n,
                              src=f"172.16.0.{i % clients}",
                              qname=f"u{i}.example.com.",
                              proto=("tcp" if tcp_every
                                     and i % tcp_every == 0 else "udp"))
                  for i in range(n)], name="cut")


SCOPES = {
    "udp": dict(trace=make_trace(), timing_jitter=False),
    "tcp_mix_observed": dict(trace=make_trace(tcp_every=3),
                             timing_jitter=True, observe=True),
    "querier_crash": dict(
        trace=make_trace(), resilience=ResilienceConfig(),
        fault_plan=FaultPlan([QuerierCrash(start=1.3,
                                           target="querier-0.1")])),
    "backpressure": dict(trace=make_trace(), timing_jitter=False,
                         supervision=SupervisionConfig(high_water=2)),
}


def build_engine(scope, seed, controllers):
    options = dict(SCOPES[scope])
    options.pop("trace")
    options.setdefault("supervision", SupervisionConfig())
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    AuthoritativeServer(server_host, zones=[wildcard_example_zone()],
                        log_queries=False)
    return ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=2, queriers_per_instance=3, seed=seed,
        controllers=controllers, extra_time=EXTRA_TIME, **options))


def cuts(trace):
    """Every multiple of CUT_STEP strictly before the last record."""
    last = trace.records[-1].time
    return [k * CUT_STEP for k in range(1, int(last / CUT_STEP) + 1)
            if k * CUT_STEP < last]


def cut_and_continue(scope, seed, controllers, cut):
    engine = build_engine(scope, seed, controllers)
    engine.run(SCOPES[scope]["trace"], until=cut)
    engine.sim.run_until_idle()
    engine.sim.run(until=engine.sim.now + EXTRA_TIME)
    return engine.report().to_json()


CASES = ([("udp", seed) for seed in sorted({SEED, 16, 37})]
         + [(scope, SEED) for scope in ("tcp_mix_observed",
                                        "querier_crash", "backpressure")])


@pytest.mark.parametrize("controllers", [1, 2])
@pytest.mark.parametrize("scope,seed", CASES)
def test_cut_run_continues_byte_identically(scope, seed, controllers):
    trace = SCOPES[scope]["trace"]
    full = build_engine(scope, seed, controllers).run(trace).to_json()
    grid = cuts(trace)
    assert grid[0] == CUT_STEP and grid[-1] == 3.75
    for cut in grid:
        assert cut_and_continue(scope, seed, controllers, cut) == full, cut


def test_the_scopes_exercise_what_they_claim():
    """The crash scope fails over, with cuts before and after it; the
    mixed scope sends over TCP; the backpressure scope's Postmen are
    still stalled at 3.5 s."""
    trace = SCOPES["querier_crash"]["trace"]
    engine = build_engine("querier_crash", SEED, 1)
    replay = engine.run(trace).metrics()["replay"]
    assert replay["failovers"] == 1
    assert min(cuts(trace)) < 1.3 < max(cuts(trace))
    mixed = build_engine("tcp_mix_observed", SEED, 1).run(
        SCOPES["tcp_mix_observed"]["trace"]).metrics()["replay"]
    assert mixed["queries_tcp"] > 0 and mixed["queries_udp"] > 0
    engine = build_engine("backpressure", SEED, 2)
    engine.run(trace, until=3.5)
    assert any(controller.paused for controller in engine.controllers)
