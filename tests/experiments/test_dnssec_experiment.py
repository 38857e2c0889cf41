"""Tests for the Fig 10 / §5.1 DNSSEC experiment (small scale)."""

import pytest

from repro.experiments.dnssec import (DnssecScenario, SCENARIOS,
                                      headline_ratios, run_all,
                                      run_scenario)


@pytest.fixture(scope="module")
def results():
    return run_all(duration=8.0, mean_rate=600.0)


def test_six_scenarios(results):
    assert len(results) == len(SCENARIOS) == 6


def test_more_do_means_more_bandwidth(results):
    by_key = {(r.scenario.do_fraction, r.scenario.zsk_bits,
               r.scenario.rollover): r.bandwidth.median for r in results}
    for zsk in (1024, 2048):
        assert by_key[(1.0, zsk, False)] > by_key[(0.723, zsk, False)]


def test_bigger_zsk_means_more_bandwidth(results):
    by_key = {(r.scenario.do_fraction, r.scenario.zsk_bits,
               r.scenario.rollover): r.bandwidth.median for r in results}
    for do in (0.723, 1.0):
        assert by_key[(do, 2048, False)] > by_key[(do, 1024, False)]


def test_rollover_at_least_normal(results):
    by_key = {(r.scenario.do_fraction, r.scenario.zsk_bits,
               r.scenario.rollover): r.bandwidth.median for r in results}
    for do in (0.723, 1.0):
        assert by_key[(do, 2048, True)] >= by_key[(do, 2048, False)] * 0.99


def test_headline_ratios_near_paper(results):
    ratios = headline_ratios(results)
    # Paper: +31% and +32%; assert direction and rough magnitude.
    assert 0.18 < ratios["all_do_increase"] < 0.45
    assert 0.20 < ratios["zsk_upgrade_increase"] < 0.55


def test_scale_projection_positive(results):
    for result in results:
        assert result.projected_median_mbps > 0
        assert result.mean_response_size > 100


def test_single_scenario_runs_standalone():
    result = run_scenario(DnssecScenario(1.0, 1024, False),
                          duration=4.0, mean_rate=400.0)
    assert result.bandwidth.count >= 2


def test_future_work_4096_zsk_grows_traffic(results):
    """§5.1's future work executed: 4096-bit signatures inflate
    responses beyond the 2048-bit configuration."""
    from repro.experiments.dnssec import future_zsk_4096
    big = future_zsk_4096(duration=6.0, mean_rate=500.0)
    by_do = {r.scenario.do_fraction: r for r in big}
    ref = {(r.scenario.do_fraction, r.scenario.zsk_bits,
            r.scenario.rollover): r for r in results}
    assert by_do[0.723].mean_response_size > \
        ref[(0.723, 2048, False)].mean_response_size * 1.1
    assert by_do[1.0].mean_response_size > \
        by_do[0.723].mean_response_size
