"""Report schema v3: the key set is a constant, and there is one book.

Every counter a component keeps lives in one attribute, declared in
the class's ``COUNTERS`` and summed into every report
(``repro.obs.report``); what an observed run records is declared once
on the ``Observer``.  So (a) the ``meta``/``replay``/``server``/
``transport`` key sets are the same whatever ``observe``,
``resilience``, ``supervision``, ``overload``, ``cache`` or ``backend``
say — also once the events behind the counters fire — and equal
``ReplayReport.schema()``; (b) the ``Observer`` declares no second copy
of a collected counter, every row it declares is in an observed report,
and docs/OBSERVABILITY.md lists exactly the reported names; (c) a
collected value does not depend on ``observe``; (d) volatile rows
appear only on request.
"""

import os
import re
from pathlib import Path

import pytest

from repro.check.scenarios import run_sim_variant
from repro.core.experiment import (AuthoritativeExperiment,
                                   ExperimentConfig, RecursiveExperiment)
from repro.netsim.faults import (DistributorLag, FaultPlan, LossBurst,
                                 QuerierCrash)
from repro.obs import Observer, collect, volatile
from repro.replay import ReplayConfig, ReplayReport, ResilienceConfig
from repro.replay.backends import LiveReplayConfig
from repro.replay.backends import COUNTED
from repro.replay.engine import DERIVED, FROM_RESULTS
from repro.replay.supervisor import SupervisionConfig
from repro.server.cache import CacheConfig
from repro.server.overload import OverloadConfig, RrlConfig
from repro.trace.record import QueryRecord, Trace
from repro.workloads.internet import ModelInternet
from repro.workloads.recursive_load import (RecursiveParams,
                                            generate_recursive_trace)

from tests.replay.test_engine import wildcard_example_zone

# The CI chaos job sweeps this seed, so the fault cases below check the
# key set under three different event histories.
SEED = int(os.environ.get("REPLAY_CHAOS_SEED", "11"))
SCHEMA = ReplayReport.schema()
RETRY = ResilienceConfig(timeout=0.25, max_retries=2)


def make_trace(n=60, clients=8, gap=0.01, protos=("udp",)):
    return Trace([QueryRecord(time=i * gap, src=f"172.16.0.{i % clients}",
                              qname=f"u{i}.example.com.",
                              proto=protos[i % len(protos)])
                  for i in range(n)])


def sim_report(trace=None, *, loss=0.0, overload=None, **replay):
    replay.setdefault("seed", SEED)
    experiment = AuthoritativeExperiment(
        [wildcard_example_zone()], ExperimentConfig(
            client_loss=loss, overload=overload,
            replay=ReplayConfig(client_instances=1,
                                queriers_per_instance=2, **replay)))
    return experiment.run(trace or make_trace(), extra_time=3.0).report


def assert_static_schema(report, observed):
    """Every declared group and key is in *report*; an unobserved one
    holds nothing else."""
    metrics = report.metrics()
    for group, keys in SCHEMA.items():
        if observed:
            assert keys <= metrics[group].keys(), group
        else:
            assert metrics[group].keys() == keys, group
    if not observed:
        assert metrics.keys() == SCHEMA.keys()
    return metrics


# -- (a) one key set -----------------------------------------------------------


def test_schema_names_every_declared_counter():
    declared = {name for cls in COUNTED for name in cls.COUNTERS.values()
                if not isinstance(name, volatile)}
    flat = {f"{group}.{key}" for group, keys in SCHEMA.items()
            for key in keys}
    assert declared <= flat
    assert len(declared) >= 49


@pytest.mark.parametrize("observe", [False, True])
@pytest.mark.parametrize("resilience", [None, RETRY])
@pytest.mark.parametrize("supervision", [None, SupervisionConfig()])
def test_key_set_does_not_depend_on_the_config(observe, resilience,
                                               supervision):
    report = sim_report(observe=observe, resilience=resilience,
                        supervision=supervision)
    replay = assert_static_schema(report, observe)["replay"]
    assert replay["queries_sent"] == replay["responses"] == 60
    assert replay["timed_out"] == replay["failovers"] == 0


def test_key_set_holds_when_loss_makes_the_retry_policy_fire():
    report = sim_report(
        make_trace(n=120, protos=("udp", "udp", "tcp")), loss=0.05,
        resilience=RETRY, observe=True, fault_plan=FaultPlan(
            [LossBurst(start=0.3, duration=0.4, loss=0.6)]))
    metrics = assert_static_schema(report, observed=True)
    assert metrics["replay"]["retransmits"] > 0
    assert metrics["replay"]["recovered"] > 0
    assert metrics["transport"]["wire.dropped"] > 0
    assert metrics["replay"]["still_pending"] == 0


def test_key_set_holds_through_a_failover():
    report = sim_report(
        make_trace(n=200, clients=16), supervision=SupervisionConfig(),
        fault_plan=FaultPlan([QuerierCrash(start=1.0,
                                           target="querier-0.1")]))
    replay = assert_static_schema(report, observed=False)["replay"]
    assert replay["failovers"] == 1
    assert replay["redispatched"] > 0


def test_key_set_holds_when_the_shed_policy_drops_records():
    report = sim_report(
        make_trace(n=200, clients=16),
        supervision=SupervisionConfig(high_water=8, queue_policy="shed"),
        fault_plan=FaultPlan([DistributorLag(
            start=0.0, duration=4.0, target="distributor0",
            factor=200.0)]))
    replay = assert_static_schema(report, observed=False)["replay"]
    assert replay["shed"] > 0
    assert replay["controller_records"] == 200


def test_key_set_holds_when_rate_limiting_drops_responses():
    trace = Trace([QueryRecord(time=i * 0.002, src="172.16.0.1",
                               qname="hot.example.com.")
                   for i in range(150)])
    report = sim_report(trace, observe=True, overload=OverloadConfig(
        rrl=RrlConfig(rate=5.0, slip=2, exempt_verified=False)))
    server = assert_static_schema(report, observed=True)["server"]
    assert server["rrl_dropped"] > 0 and server["rrl_slipped"] > 0
    assert server["responses_sent"] + server["rrl_dropped"] \
        == server["queries"] == 150


def test_key_set_is_the_same_for_the_recursive_experiment():
    internet = ModelInternet(tlds=2, slds_per_tld=2, seed=SEED)
    trace = generate_recursive_trace(internet, RecursiveParams(
        duration=3.0, mean_rate=30.0, clients=6, seed=SEED))
    experiment = RecursiveExperiment(
        internet.zones, internet.root_hints(), ExperimentConfig(
            rtt=0.004, cache=CacheConfig(max_entries=8),
            replay=ReplayConfig(client_instances=1, mode="direct",
                                queriers_per_instance=2, seed=SEED)))
    report = experiment.run(trace, extra_time=2.0).report
    server = assert_static_schema(report, observed=False)["server"]
    resolver = experiment.resolver
    assert server["recursive_queries"] == len(trace) > 0
    assert server["recursive_upstream_queries"] \
        == resolver.stats["upstream_queries"] > 0
    assert server["cache_lookups"] == resolver.cache.lookups > 0
    assert server["cache_evictions"] == resolver.cache.evictions > 0
    # The meta-DNS server behind the proxies answers the upstream side.
    assert server["queries"] == experiment.meta.server.queries_handled > 0


def test_key_set_is_the_same_over_real_sockets():
    experiment = AuthoritativeExperiment(
        [wildcard_example_zone()], ExperimentConfig(replay=ReplayConfig(
            backend="live", client_instances=1, queriers_per_instance=2,
            seed=SEED, resilience=RETRY,
            live=LiveReplayConfig(speed=20.0, run_deadline=60.0))))
    report = experiment.run(make_trace(n=40))
    metrics = assert_static_schema(report.report, observed=False)
    assert metrics["replay"]["responses"] == 40
    assert metrics["server"]["queries"] >= 40
    # Nothing of the simulated fabric ran; its rows are there, idle.
    assert metrics["transport"]["wire.delivered"] == 0
    assert metrics["replay"]["controller_records"] == 0


# -- (b) (c) (d) one book ------------------------------------------------------


@pytest.fixture(scope="module")
def conformance_report():
    return run_sim_variant(check=False)


RECORDED = {*Observer.COUNTERS.values(), *Observer.HISTOGRAMS.values()}
INVENTORY = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def test_observer_declares_no_copy_of_a_collected_counter():
    """Declaring an ``Observer`` row for ``replay.queries_sent`` next to
    ``Querier.sent`` fails here."""
    assert len(RECORDED) > 20
    assert not RECORDED & collect(COUNTED, (), True).keys()
    assert not RECORDED & {*FROM_RESULTS, *DERIVED}


def test_every_recorded_row_is_in_an_observed_report(conformance_report):
    metrics = conformance_report.metrics(include_volatile=True)
    for name in [*RECORDED, *FROM_RESULTS]:
        group, _, key = name.partition(".")
        assert key in metrics[group], name


def inventory_names() -> set[str]:
    """``group.name`` for every name the inventory table lists, braces
    expanded (``udp.bytes_{in,out}``); span-count rows name span kinds,
    not metrics."""
    names = set()
    for line in INVENTORY.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[1].startswith("`") \
                or cells[2] == "span count":
            continue
        for token in re.findall(r"`([^`]+)`", cells[1]):
            head, _, rest = token.partition("{")
            options, _, tail = rest.partition("}")
            names.update(f"{cells[0]}.{head}{option}{tail}"
                         for option in options.split(","))
    return names


def test_inventory_lists_exactly_the_reported_names():
    reported = {*collect(COUNTED, (), True), *RECORDED, *FROM_RESULTS,
                *DERIVED}
    listed = inventory_names()
    assert listed - reported == set()
    assert reported - listed == set()


def test_collected_values_do_not_depend_on_observe():
    def collected(observe):
        report = sim_report(make_trace(n=90, protos=("udp", "tcp")),
                            observe=observe, supervision=SupervisionConfig(),
                            resilience=RETRY, loss=0.03)
        return collect(COUNTED, report.counted, include_volatile=True)

    on, off = collected(True), collected(False)
    assert on == off
    assert on["replay.queries_sent"] == 90
    assert on["server.answer_cache_misses"] > 0


def test_default_snapshot_has_no_volatile_row(conformance_report):
    names = {name for cls in COUNTED for name in cls.COUNTERS.values()
             if isinstance(name, volatile)}
    assert {"server.answer_cache_hits", "replay.socket_errors",
            "replay.deadline_hit"} <= names
    default = conformance_report.metrics()
    full = conformance_report.metrics(include_volatile=True)
    for name in names:
        group, _, key = name.partition(".")
        assert key not in default[group], name
        assert key in full[group], name
    assert full["server"]["answer_cache_misses"] > 0
