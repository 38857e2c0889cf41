"""Sim-vs-live cross-validation: the fidelity check of docs/BACKENDS.md.

Both backends serve the identical :class:`DnsResponder` answering core,
so on a clean loopback they must agree on *what* is answered — the
qname multiset and the answered fraction — even though the live backend
cannot promise byte-identical timing.  The metric schema must also
match key-for-key, so downstream tooling reads either report
unchanged.  The sim side's per-seed byte-identity is pinned here too:
it is the regression bar the live backend is validated against.
"""

from collections import Counter

from repro.experiments.harness import (authoritative_world,
                                       root_zone_world,
                                       wildcard_root_zone)
from repro.workloads.broot import broot16
from repro.replay import ReplayConfig, ResilienceConfig
from repro.replay.backends import LiveBackend, LiveReplayConfig

TLDS = 4
SLDS = 4
WORLD_SEED = 3
TRACE_KW = dict(duration=2.0, mean_rate=500.0, clients=60)
INSTANCES = 2
QUERIERS = 3
SEED = 11
# Both sides replay with the standard retry policy: on the live side it
# recovers kernel-buffer datagram drops under time compression (the
# real-world operating mode); on the sim side loss is zero so it only
# aligns the metric schema.
RETRY = ResilienceConfig(timeout=0.5, max_retries=4, backoff=2.0)


def build_zone_and_trace():
    internet = root_zone_world(tlds=TLDS, slds_per_tld=SLDS,
                               seed=WORLD_SEED)
    zone = wildcard_root_zone(internet)
    trace = broot16(internet, **TRACE_KW)
    return zone, trace


def run_sim(zone, trace):
    world = authoritative_world(
        [zone], mode="direct", client_instances=INSTANCES,
        queriers_per_instance=QUERIERS, observe=False, seed=SEED,
        resilience=RETRY)
    return world.run(trace, extra_time=2.0).report


def run_live(zone, trace):
    backend = LiveBackend([zone], config=ReplayConfig(
        backend="live", client_instances=INSTANCES,
        queriers_per_instance=QUERIERS, seed=SEED, observe=False,
        resilience=RETRY,
        live=LiveReplayConfig(speed=20.0, query_timeout=10.0,
                              run_deadline=120.0)))
    return backend.run(trace)


def answered_qnames(report) -> Counter:
    return Counter(r.record.qname for r in report.results if r.answered)


def test_sim_and_live_agree_on_broot_analogue():
    """The ~1k-record B-Root analogue answers identically through real
    sockets and through the simulator: same records replayed, answered
    fractions within 1%, same answered-qname multiset."""
    zone, trace = build_zone_and_trace()
    assert len(trace) > 900          # a real B-Root-scale slice

    sim_report = run_sim(zone, trace)
    live_report = run_live(zone, trace)

    assert len(sim_report.results) == len(trace)
    assert len(live_report.results) == len(trace)
    sim_answered = sim_report.answered_fraction()
    live_answered = live_report.answered_fraction()
    assert abs(sim_answered - live_answered) <= 0.01
    assert answered_qnames(sim_report) == answered_qnames(live_report)

    # Both reports expose the same metric schema, group for group and
    # key for key (live's wall-clock extras are volatile-only, so the
    # default snapshot shape is shared) — every declared counter, not
    # the one ``replay`` key an unobserved v1 report carried.
    sim_metrics = sim_report.metrics()
    live_metrics = live_report.metrics()
    assert set(sim_metrics) == set(live_metrics)
    for group in sim_metrics:
        assert set(sim_metrics[group]) == set(live_metrics[group]), group
    assert len(sim_metrics["replay"]) + len(sim_metrics["server"]) > 50
    for report, metrics in ((sim_report, sim_metrics),
                            (live_report, live_metrics)):
        assert metrics["replay"]["responses"] \
            == sum(r.answered for r in report.results)


def test_sim_backend_remains_byte_identical_per_seed():
    """The regression bar the live backend is validated against: two
    sim runs at one seed produce byte-identical reports."""
    zone, trace = build_zone_and_trace()
    first = run_sim(zone, trace).to_json()
    zone2, trace2 = build_zone_and_trace()
    second = run_sim(zone2, trace2).to_json()
    assert first == second
