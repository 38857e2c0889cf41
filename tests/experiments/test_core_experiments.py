"""Tests for the prefabricated core experiments (repro.core)."""

import copy

import pytest

from repro.core import (AuthoritativeExperiment, ExperimentConfig,
                        RecursiveExperiment)
from repro.netsim import LinkParams
from repro.replay.engine import ReplayConfig
from repro.trace.record import QueryRecord, Trace
from repro.util.stats import summarize
from repro.workloads import (ModelInternet, RecursiveParams,
                             generate_recursive_trace)
from repro.zonegen import construct_zones, harvest_trace, make_prober

from tests.replay.test_engine import wildcard_example_zone


def small_config(**kw):
    return ExperimentConfig(replay=ReplayConfig(
        client_instances=1, queriers_per_instance=2, mode="direct",
        seed=5), **kw)


def test_authoritative_experiment_end_to_end():
    experiment = AuthoritativeExperiment([wildcard_example_zone()],
                                         small_config())
    trace = Trace([QueryRecord(time=i * 0.01, src=f"10.9.0.{i % 4}",
                               qname=f"u{i}.example.com.")
                   for i in range(100)])
    result = experiment.run(trace)
    assert result.report.answered_fraction() == 1.0
    assert experiment.server.queries_handled == 100


def test_authoritative_rtt_config_controls_latency():
    for rtt in (0.01, 0.05):
        experiment = AuthoritativeExperiment(
            [wildcard_example_zone()], small_config(rtt=rtt))
        trace = Trace([QueryRecord(time=0.0, src="a",
                                   qname="x.example.com.")])
        result = experiment.run(trace)
        (only,) = result.report.results
        assert only.latency == pytest.approx(rtt, rel=0.15)


def test_facade_leaves_the_callers_config_as_passed():
    """The engine gets a copy carrying rtt/client_loss as its
    client_link; the object the caller built is not written to."""
    config = small_config(rtt=0.02, client_loss=0.1)
    fresh = copy.deepcopy(config)
    experiment = AuthoritativeExperiment([wildcard_example_zone()], config)
    experiment.run(Trace([QueryRecord(time=0.0, src="a",
                                      qname="x.example.com.")]))
    assert config == fresh
    assert experiment.engine.config.client_link == LinkParams(
        delay=0.005, loss=0.1)


@pytest.mark.parametrize("build", [
    lambda config: AuthoritativeExperiment([wildcard_example_zone()],
                                           config),
    lambda config: RecursiveExperiment([wildcard_example_zone()], [],
                                       config),
], ids=["authoritative", "recursive"])
def test_facade_rejects_a_client_link_it_would_discard(build):
    config = ExperimentConfig(replay=ReplayConfig(
        mode="direct", client_link=LinkParams(loss=0.5)))
    with pytest.raises(ValueError, match="rtt.*client_loss"):
        build(config)


def test_experiment_collects_samples():
    experiment = AuthoritativeExperiment(
        [wildcard_example_zone()], small_config(sample_interval=1.0))
    trace = Trace([QueryRecord(time=i * 0.05, src="a",
                               qname=f"u{i}.example.com.")
                   for i in range(100)])
    result = experiment.run(trace)
    assert len(result.samples) >= 4
    steady = result.steady_state_samples(warmup=2.0)
    assert steady
    assert all(s.time >= 2.0 for s in steady)


@pytest.fixture(scope="module")
def recursive_world():
    internet = ModelInternet(tlds=3, slds_per_tld=5, seed=31)
    trace = generate_recursive_trace(internet, RecursiveParams(
        duration=10.0, mean_rate=20.0, clients=20, seed=31))
    experiment = RecursiveExperiment(internet.zones,
                                     internet.root_hints(),
                                     small_config(rtt=0.004))
    result = experiment.run(trace)
    return internet, trace, experiment, result


def test_recursive_experiment_answers_stub_queries(recursive_world):
    internet, trace, experiment, result = recursive_world
    assert result.report.answered_fraction() > 0.98
    assert experiment.resolver.stats["client_queries"] == len(trace)


def test_recursive_experiment_cache_reduces_upstream(recursive_world):
    internet, trace, experiment, result = recursive_world
    upstream = experiment.resolver.stats["upstream_queries"]
    # Warm cache: far fewer iterative queries than 3x client queries.
    assert upstream < len(trace) * 2
    assert experiment.resolver.stats["cache_answers"] > 0


def test_recursive_experiment_no_leaks(recursive_world):
    internet, trace, experiment, result = recursive_world
    assert result.sim.network.leaked == []


def test_recursive_experiment_proxies_active(recursive_world):
    internet, trace, experiment, result = recursive_world
    assert experiment.recursive_proxy.rewritten > 0
    assert experiment.authoritative_proxy.rewritten == \
        experiment.recursive_proxy.rewritten


def test_recursive_experiment_forces_rd(recursive_world):
    internet, trace, experiment, result = recursive_world
    assert all(r.record.rd for r in result.report.results)


def test_recursive_replay_over_zones_rebuilt_from_the_trace():
    """Figure 1 end to end, the §7 "replays of recursive DNS traces with
    multiple levels of the DNS hierarchy": the hierarchy the resolver
    walks is the one §2.3 reconstructs from the trace itself."""
    internet = ModelInternet(tlds=4, slds_per_tld=8, seed=41)
    trace = generate_recursive_trace(internet, RecursiveParams(
        duration=25.0, mean_rate=30.0, clients=60, seed=41))
    built = construct_zones(harvest_trace(internet, trace).responses,
                            prober=make_prober(internet),
                            root_hints=internet.root_hints())
    experiment = RecursiveExperiment(
        built.zones, internet.root_hints(), ExperimentConfig(
            rtt=0.004, replay=ReplayConfig(
                client_instances=1, queriers_per_instance=2,
                mode="direct", seed=41)))
    result = experiment.run(trace)
    assert result.report.answered_fraction() > 0.98
    assert result.sim.network.leaked == []
    # Caching must compress the upstream load substantially.
    stats = experiment.resolver.stats
    assert stats["client_queries"] == len(trace) > 500
    assert stats["cache_answers"] > stats["client_queries"] * 0.3
    assert stats["upstream_queries"] < stats["client_queries"] * 1.5
    # Cache hits answer in ~1 stub RTT and cold walks cost more: the
    # latency distribution must show that spread.
    latency = summarize(result.report.latencies())
    assert latency.p95 > latency.p25 * 1.5
