"""Tests for the Fig 15 latency experiments (small scale)."""

import pytest

from repro.experiments.latency import figure15c, run_cell


COMMON = dict(duration=15.0, mean_rate=300.0, clients=1200)


@pytest.fixture(scope="module")
def cells():
    rtt = 0.08
    return {proto: run_cell(proto, rtt, **COMMON)
            for proto in ("original", "tcp", "tls")}


def test_most_queries_answered(cells):
    for cell in cells.values():
        assert cell.answered_fraction > 0.97


def test_udp_latency_is_one_rtt(cells):
    original = cells["original"]
    assert original.all_clients.median == pytest.approx(0.08, rel=0.15)


def test_tcp_median_close_to_udp_over_all_clients(cells):
    """Fig 15a: connection reuse keeps all-client TCP median within
    ~tens of percent of UDP."""
    udp_median = cells["original"].all_clients.median
    tcp_median = cells["tcp"].all_clients.median
    assert tcp_median < udp_median * 1.7


def test_nonbusy_tcp_median_near_two_rtt(cells):
    """Fig 15b: non-busy clients mostly pay the fresh handshake."""
    nonbusy = cells["tcp"].nonbusy_clients
    rtts = nonbusy.median / 0.08
    assert 1.5 <= rtts <= 2.6


def test_nonbusy_tls_costs_more_rtts_than_tcp(cells):
    tls = cells["tls"].nonbusy_clients.median
    tcp = cells["tcp"].nonbusy_clients.median
    assert tls > tcp * 1.4
    assert 2.0 < tls / 0.08 < 5.5


def test_nonbusy_tls_median_holds_across_rtt(cells):
    """Fig 15b's x axis: in RTT units the fresh-TLS cost does not
    shrink as the RTT grows (the paper reports a rise towards 4 RTT)."""
    low = run_cell("tls", 0.02, **COMMON).nonbusy_clients.median / 0.02
    assert 2.0 < low < 5.5
    assert cells["tls"].nonbusy_clients.median / 0.08 >= low * 0.95


def test_nonbusy_tcp_lower_quartile_shows_reuse(cells):
    """25th percentile ~1 RTT: some non-busy queries still hit warm
    connections (paper §5.2.4)."""
    q25_rtts = cells["tcp"].nonbusy_clients.p25 / 0.08
    assert q25_rtts < 1.6


def test_latency_tail_exceeds_median(cells):
    for cell in cells.values():
        assert cell.all_clients.p95 >= cell.all_clients.median
    # Latency asymmetry (Fig 15a): the stream tail is far above it.
    tcp = cells["tcp"].all_clients
    assert tcp.p95 > tcp.median * 1.4


def test_nonbusy_covers_most_clients_few_queries(cells):
    cell = cells["original"]
    # Paper: non-busy = 98% of clients but only 14% of load.
    assert cell.nonbusy_client_fraction > 0.85
    assert cell.nonbusy_query_fraction < 0.6


def test_figure15c_heavy_tail():
    cdf = figure15c(duration=10.0, mean_rate=300.0, clients=1200)
    values = [v for v, _ in cdf]
    # Most clients send few queries; the max client sends far more.
    median_client = values[len(values) // 2]
    assert values[-1] > median_client * 20
