"""Tests for B-Root, recursive, and synthetic trace generators."""

import pytest

from repro.trace.stats import (interarrivals, load_concentration,
                               queries_per_client, trace_stats)
from repro.workloads.broot import BRootParams, broot16, broot17b, \
    generate_broot_trace
from repro.workloads.internet import ModelInternet
from repro.workloads.recursive_load import (RecursiveParams,
                                            generate_recursive_trace)
from repro.workloads.synthetic import syn_suite, synthetic_trace


@pytest.fixture(scope="module")
def internet():
    return ModelInternet(tlds=4, slds_per_tld=6, seed=1)


@pytest.fixture(scope="module")
def broot_trace(internet):
    return generate_broot_trace(internet, BRootParams(
        duration=30.0, mean_rate=1500.0, clients=4000, seed=42))


def test_broot_rate_near_target(broot_trace):
    stats = trace_stats(broot_trace)
    rate = stats.records / stats.duration
    assert 1300 < rate < 1700


def test_broot_sorted_times(broot_trace):
    times = [r.time for r in broot_trace]
    assert times == sorted(times)


def test_broot_heavy_tail_top1pct(broot_trace):
    share = load_concentration(broot_trace, top_fraction=0.01)
    # Paper: ~3/4 of load from 1% of clients.
    assert 0.55 < share < 0.90


def test_broot_most_clients_nearly_idle(broot_trace):
    counts = queries_per_client(broot_trace)
    quiet = sum(1 for c in counts.values() if c < 10)
    # Paper: 81% of clients send <10 queries.
    assert quiet / len(counts) > 0.6


def test_broot_do_fraction(broot_trace):
    do = sum(1 for r in broot_trace if r.do)
    assert 0.69 < do / len(broot_trace) < 0.76


def test_broot_tcp_fraction(broot_trace):
    tcp = sum(1 for r in broot_trace if r.proto == "tcp")
    assert 0.005 < tcp / len(broot_trace) < 0.10


def test_broot_protocol_is_client_property(broot_trace):
    by_client = {}
    for record in broot_trace:
        by_client.setdefault(record.src, set()).add(record.proto)
    assert all(len(protos) == 1 for protos in by_client.values())


def test_broot_deterministic(internet):
    a = broot16(internet, duration=5.0, mean_rate=500, clients=100)
    b = broot16(internet, duration=5.0, mean_rate=500, clients=100)
    assert len(a) == len(b)
    assert all(ra == rb for ra, rb in zip(a, b))


def test_broot_presets_differ(internet):
    a = broot16(internet, duration=5.0)
    b = broot17b(internet, duration=5.0)
    assert a.name == "B-Root-16" and b.name == "B-Root-17b"
    assert [r.qname for r in a][:20] != [r.qname for r in b][:20]


def test_synthetic_fixed_interarrival():
    trace = synthetic_trace(0.01, duration=1.0)
    gaps = interarrivals(trace)
    assert all(g == pytest.approx(0.01) for g in gaps)
    assert len(trace) == 100


def test_synthetic_unique_names():
    trace = synthetic_trace(0.01, duration=1.0)
    names = [r.qname for r in trace]
    assert len(set(names)) == len(names)
    assert all(n.endswith("example.com.") for n in names)


def test_syn_suite_matches_table1_labels():
    suite = syn_suite(duration=0.5)
    assert set(suite) == {"syn-0", "syn-1", "syn-2", "syn-3", "syn-4"}
    assert len(suite["syn-4"]) == 5000  # 0.1 ms interarrival over 0.5 s


def test_recursive_trace_shape(internet):
    trace = generate_recursive_trace(internet, RecursiveParams(
        duration=30.0, mean_rate=30.0, clients=50, seed=7))
    stats = trace_stats(trace)
    assert stats.clients <= 50
    assert stats.records > 300
    assert all(r.rd for r in trace)
    # Bursty: stdev exceeds the mean (Table 1: 0.18 +/- 0.36).
    assert stats.interarrival_stdev > stats.interarrival_mean


def test_synthetic_start_time_offset():
    trace = synthetic_trace(0.1, duration=1.0, start_time=100.0)
    assert trace[0].time == 100.0
    assert trace[len(trace) - 1].time == pytest.approx(100.9)


def test_broot_start_time_offset(internet):
    from repro.workloads.broot import BRootParams, generate_broot_trace
    trace = generate_broot_trace(internet, BRootParams(
        duration=2.0, mean_rate=100, clients=50, seed=9,
        start_time=500.0))
    assert all(500.0 <= r.time < 502.0 for r in trace)


def test_broot_junk_fraction_controls_nxdomain_candidates(internet):
    from repro.workloads.broot import BRootParams, generate_broot_trace
    clean = generate_broot_trace(internet, BRootParams(
        duration=3.0, mean_rate=300, clients=100, seed=10,
        junk_fraction=0.0))
    junky = generate_broot_trace(internet, BRootParams(
        duration=3.0, mean_rate=300, clients=100, seed=10,
        junk_fraction=0.9))
    def junk_share(trace):
        return sum(1 for r in trace if "invalid" in r.qname) / len(trace)
    assert junk_share(clean) == 0.0
    assert junk_share(junky) > 0.5


def name_rendered_qname(self, rng, junk_probability=0.0):
    """``ModelInternet.random_qname`` as it read when every query built
    a ``Name`` and rendered it: the same draws, in the same order."""
    if rng.random() < junk_probability:
        label = "".join(rng.choice("abcdefghijklmnop") for _ in range(10))
        return f"{label}.invalid{rng.randrange(1000)}."
    domain = rng.choice(self.domains)
    kind = rng.random()
    if kind < 0.35:
        return domain.name.prepend(b"www").to_text()
    if kind < 0.55:
        return domain.name.to_text()
    if kind < 0.7:
        return domain.name.prepend(b"mail").to_text()
    return domain.name.prepend(
        f"host{rng.randrange(4)}".encode()).to_text()


@pytest.mark.parametrize("seed", [3, 11, 23])
def test_generated_names_equal_the_name_rendered_ones(seed, monkeypatch):
    """Each domain's name is rendered once and joined to its host
    label as text: the B-Root and recursive traces equal those built by
    rendering a ``Name`` for every query."""
    from repro.workloads.internet import Domain
    internet = ModelInternet(tlds=4, slds_per_tld=6, seed=seed)
    params = BRootParams(duration=4.0, mean_rate=800.0, clients=300,
                         junk_fraction=0.3, seed=seed)
    recursive = RecursiveParams(duration=30.0, seed=seed)
    fast = (generate_broot_trace(internet, params).records,
            generate_recursive_trace(internet, recursive).records)
    for domain in internet.domains:
        for label in ("www", "mail", "host0", "host1", "host3"):
            assert f"{label}.{domain.text}" == \
                domain.name.prepend(label.encode()).to_text()
    monkeypatch.setattr(ModelInternet, "random_qname", name_rendered_qname)
    monkeypatch.setattr(Domain, "text",
                        property(lambda domain: domain.name.to_text()),
                        raising=True)
    # Nothing the fast run cached may answer for the rendered one.
    internet = ModelInternet(tlds=4, slds_per_tld=6, seed=seed)
    rendered = (generate_broot_trace(internet, params).records,
                generate_recursive_trace(internet, recursive).records)
    assert fast == rendered
    assert len(fast[0]) > 1000 and len(fast[1]) > 100
