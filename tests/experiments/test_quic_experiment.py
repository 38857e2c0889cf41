"""Tests for the QUIC transport-comparison experiment."""

import pytest

from repro.experiments.quic import compare_transports


@pytest.fixture(scope="module")
def cells():
    return compare_transports(rtt=0.08, duration=12.0, mean_rate=250.0,
                              clients=1000)


def test_all_transports_answer(cells):
    for proto, cell in cells.items():
        assert cell.answered_fraction > 0.97, proto


def test_latency_ordering_nonbusy(cells):
    """The QUIC headline: 0-RTT resumption makes non-busy clients'
    median match UDP's 1 RTT (only first contact pays 2 RTT), while
    TCP sits at 2 RTT and TLS at 4."""
    rtt = 0.08
    udp = cells["udp"].nonbusy_clients.median / rtt
    quic = cells["quic"].nonbusy_clients.median / rtt
    tcp = cells["tcp"].nonbusy_clients.median / rtt
    tls = cells["tls"].nonbusy_clients.median / rtt
    assert udp == pytest.approx(1.0, rel=0.05)
    assert quic == pytest.approx(1.0, rel=0.1)
    assert tcp == pytest.approx(2.0, rel=0.2)
    assert tls == pytest.approx(4.0, rel=0.2)
    # First contact still shows in QUIC's upper quartile.
    assert cells["quic"].nonbusy_clients.p75 / rtt >= 1.5


def test_quic_beats_tls_overall(cells):
    assert cells["quic"].all_clients.p95 < cells["tls"].all_clients.p95


def test_quic_has_no_time_wait(cells):
    assert cells["tcp"].time_wait > 50
    assert cells["quic"].time_wait == 0


def test_quic_memory_between_udp_and_tls(cells):
    udp_mem = cells["udp"].server_memory
    quic_dyn = cells["quic"].server_memory - udp_mem
    tls_dyn = cells["tls"].server_memory - udp_mem
    assert 0 < quic_dyn < tls_dyn


def test_connection_counts_comparable(cells):
    assert cells["quic"].established > 0
    ratio = cells["quic"].established / max(1, cells["tcp"].established)
    assert 0.5 < ratio < 2.0
