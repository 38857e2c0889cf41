"""Tests for the Fig 11/13/14 TCP/TLS resource experiments (small)."""

import pytest

from repro.experiments.tcp_tls import run_one


TIMEOUTS = (5.0, 20.0, 40.0)


@pytest.fixture(scope="module")
def runs():
    common = dict(duration=70.0, mean_rate=150.0, clients=600)
    keys = [(protocol, timeout) for protocol in ("tcp", "tls")
            for timeout in TIMEOUTS] + [("original", 20.0)]
    return {key: run_one(*key, **common) for key in keys}


def test_memory_grows_with_timeout(runs):
    assert runs[("tcp", 20.0)].steady_memory() > \
        runs[("tcp", 5.0)].steady_memory()


def test_established_grows_with_timeout(runs):
    assert runs[("tcp", 20.0)].steady_established() > \
        runs[("tcp", 5.0)].steady_established()


def test_growth_is_monotone_across_timeouts(runs):
    """Fig 13a/b and 14a: every step up in idle timeout holds more
    connections and more memory, for TCP and TLS alike."""
    for protocol in ("tcp", "tls"):
        for small, large in zip(TIMEOUTS, TIMEOUTS[1:]):
            assert runs[(protocol, large)].steady_established() > \
                runs[(protocol, small)].steady_established() * 1.02
            assert runs[(protocol, large)].steady_memory() > \
                runs[(protocol, small)].steady_memory()


def test_memory_is_steady_over_the_loaded_window(runs):
    """The paper's 'approximately flat lines' after warm-up."""
    samples = runs[("tcp", 20.0)].steady()
    assert samples[-1].memory <= samples[0].memory * 1.6


def test_tls_premium_is_session_state_not_connections(runs):
    """Fig 14: ~30 % more dynamic memory than TCP at the same timeout
    (paper: 18 GB vs 15 GB), with the same connection counts."""
    tls, tcp = runs[("tls", 20.0)], runs[("tcp", 20.0)]
    dynamic_ratio = ((tls.steady_memory() - tls.server_base)
                     / (tcp.steady_memory() - tcp.server_base))
    assert 1.1 < dynamic_ratio < 1.7
    assert 0.75 < (tls.steady_established()
                   / tcp.steady_established()) < 1.25


def test_tls_memory_exceeds_tcp(runs):
    assert runs[("tls", 20.0)].steady_memory() > \
        runs[("tcp", 20.0)].steady_memory()


def test_original_trace_memory_near_udp_baseline(runs):
    original = runs[("original", 20.0)]
    tcp = runs[("tcp", 20.0)]
    base = original.server_base
    # Original (97% UDP) stays near the base; all-TCP is far above it.
    assert (original.steady_memory() - base) < \
        (tcp.steady_memory() - base) / 5


def test_time_wait_population_nonzero(runs):
    # Fig 13c: a substantial population at every timeout.
    for timeout in TIMEOUTS:
        assert runs[("tcp", timeout)].steady_time_wait() > 25


def test_cpu_original_higher_than_all_tcp(runs):
    """The §5.2.3 surprise: 97%-UDP original costs MORE CPU than
    all-TCP (NIC offload effect in the cost model)."""
    original = runs[("original", 20.0)].cpu_summary_scaled().median
    tcp = runs[("tcp", 20.0)].cpu_summary_scaled().median
    assert original > tcp * 1.4


def test_cpu_tls_higher_than_tcp(runs):
    tls = runs[("tls", 20.0)].cpu_summary_scaled().median
    tcp = runs[("tcp", 20.0)].cpu_summary_scaled().median
    assert 1.4 < tls / tcp < 3.0


def test_cpu_magnitudes_near_paper(runs):
    # Paper: ~5% all-TCP, 9-10% TLS, ~10% original (of 48 cores).
    assert 3.0 < runs[("tcp", 20.0)].cpu_summary_scaled().median < 8.0
    assert 6.5 < runs[("tls", 20.0)].cpu_summary_scaled().median < 14.0
    assert 6.5 < runs[("original", 20.0)].cpu_summary_scaled().median < 14.0


def test_cpu_flat_across_timeouts(runs):
    """Fig 11: the idle timeout moves memory, not CPU (TLS is slightly
    up at 5 s, where more handshakes are paid)."""
    for protocol in ("tcp", "tls"):
        medians = [runs[(protocol, t)].cpu_summary_scaled().median
                   for t in TIMEOUTS]
        assert max(medians) / min(medians) < 1.4, protocol


def test_projection_reports_scale(runs):
    run = runs[("tcp", 20.0)]
    assert run.scale_factor > 1.0
    est, tw = run.projected_connections()
    assert est > run.steady_established()
    # Fig 13a at the 20 s timeout: the paper's decade (~15 GB), far
    # above the original trace, which stays near the 2 GB UDP baseline.
    original = runs[("original", 20.0)].projected_memory_gb()
    assert 6.0 < run.projected_memory_gb() < 30.0
    assert run.projected_memory_gb() > original * 2.5
    assert original < 4.0
