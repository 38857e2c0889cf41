"""Tests for the DoS attack workload and experiment."""

import pytest

from repro.workloads.attack import (AttackParams, generate_attack_trace,
                                    merge_traces)
from repro.trace.record import QueryRecord, Trace


def test_attack_confined_to_window():
    trace = generate_attack_trace(AttackParams(start=5.0, duration=3.0,
                                               rate=500.0))
    times = [r.time for r in trace]
    assert min(times) >= 5.0
    assert max(times) < 8.0
    assert 1200 < len(trace) < 1800


def test_water_torture_names_unique_under_victim():
    trace = generate_attack_trace(AttackParams(duration=2.0, rate=500.0,
                                               victim_domain="v.com."))
    names = [r.qname for r in trace]
    assert all(n.endswith(".v.com.") for n in names)
    assert len(set(names)) > len(names) * 0.99


def test_direct_flood_repeats_victim():
    trace = generate_attack_trace(AttackParams(duration=1.0, rate=300.0,
                                               random_labels=False,
                                               victim_domain="v.com."))
    assert {r.qname for r in trace} == {"v.com."}


def test_bots_bounded():
    trace = generate_attack_trace(AttackParams(duration=2.0, rate=1000.0,
                                               bots=50))
    assert len(trace.clients()) <= 50


def test_merge_interleaves_sorted():
    a = Trace([QueryRecord(time=t, src="a", qname="x.")
               for t in (0.0, 2.0, 4.0)])
    b = Trace([QueryRecord(time=t, src="b", qname="y.")
               for t in (1.0, 3.0)])
    merged = merge_traces(a, b)
    assert [r.time for r in merged] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert len(merged) == 5


def test_attack_experiment_shows_impact():
    from repro.experiments.attack import run
    result = run(duration=24.0, baseline_rate=200.0, attack_rate=800.0,
                 attack_start=8.0, attack_duration=8.0, clients=400)
    # The attack multiplies the served rate and the NXDOMAIN share.
    assert max(result.rate_series) > result.baseline_rate * 3
    assert result.nxdomain_during > result.nxdomain_before + 0.25
    assert result.cpu_during > result.cpu_before * 2
    # Legit clients still get answers around the same latency (no
    # overload model: the server scales, which is itself a finding).
    assert result.legit_latency_during.median < \
        result.legit_latency_before.median * 3


def test_overload_regime_degrades_legit_latency():
    """§1: 'How does current server operate under the stress of a
    DoS attack?' — past capacity, legitimate clients queue."""
    from repro.experiments.attack import run_overload
    result = run_overload(duration=18.0, baseline_rate=200.0,
                          attack_rate=9000.0, workers=1)
    # One worker at ~120us/query caps at ~8.3k q/s; the attack exceeds
    # it, so legit latency during the attack grows clearly.
    assert result.legit_latency_during.median > \
        result.legit_latency_before.median * 3
    assert result.legit_latency_during.p95 > 0.005


def test_bot_addresses_distinct_beyond_65536():
    from repro.workloads.attack import _bot_addr
    # The historical 203.0.x.y layout is pinned for seed compatibility.
    assert _bot_addr(0) == "203.0.0.0"
    assert _bot_addr(300) == "203.0.1.44"
    assert _bot_addr(65535) == "203.0.255.255"
    # Past 65536 the index spills into the second octet, no overlap.
    assert _bot_addr(65536) == "203.1.0.0"
    sample = [_bot_addr(i) for i in range(65500, 65600)]
    assert len(set(sample)) == len(sample)
    for addr in sample:
        octets = [int(part) for part in addr.split(".")]
        assert len(octets) == 4
        assert all(0 <= o <= 255 for o in octets)


def test_large_botnets_supported_and_bounded():
    trace = generate_attack_trace(AttackParams(
        duration=0.2, rate=2000.0, bots=70_000))
    assert all(len([int(p) for p in r.src.split(".")]) == 4
               for r in trace)
    with pytest.raises(ValueError, match="bots"):
        generate_attack_trace(AttackParams(bots=2 ** 24 + 1))
