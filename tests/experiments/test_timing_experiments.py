"""Tests for the Fig 6/7/8 experiment machinery (small scale)."""

import math

import pytest

from repro.core.experiment import ExperimentConfig
from repro.experiments.harness import (PAPER_BROOT_RATE, root_zone_world,
                                       wildcard_root_zone, wildcard_zone)
from repro.experiments.timing import (figure7, figure8, replay_and_match)
from repro.netsim.jitter import TIMER_SLOP_MAX
from repro.util.stats import percentile, summarize
from repro.workloads.broot import broot16
from repro.workloads.synthetic import synthetic_trace

RTT = ExperimentConfig().rtt            # the client's round trip, seconds
ALIGNMENT = 0.00025                     # seconds; see the B-Root bounds


def single_querier_run(gap, duration):
    return replay_and_match(synthetic_trace(gap, duration=duration),
                            wildcard_zone(), client_instances=1,
                            queriers_per_instance=1)


@pytest.fixture(scope="module")
def syn_run():
    return single_querier_run(0.01, 5.0)


@pytest.fixture(scope="module")
def runs_by_gap():
    """syn-1..3: the 0.1 s (resonant), 10 ms and 1 ms interarrivals."""
    return {0.1: single_querier_run(0.1, 40.0),
            0.01: single_querier_run(0.01, 8.0),
            0.001: single_querier_run(0.001, 3.0)}


def test_all_queries_matched(syn_run):
    # 5s at 10ms = 500 queries, 10% warmup dropped.
    assert len(syn_run.errors) == 450


def test_errors_within_jitter_bound(syn_run):
    assert max(abs(e) for e in syn_run.errors) <= 0.0175


def test_error_quartiles_low_ms(syn_run):
    summary = syn_run.error_summary_ms()
    assert -5.0 < summary.p25 < 0
    assert 0 < summary.p75 < 5.0


def test_broot_replay_error_bounds():
    """Fig 6's first row: the bursty many-client trace through the
    default 2 x 3 queriers, not one querier on a fixed cadence.  Each
    query's error is bounded by the timer-slop clamp, widened by the
    median alignment (which moves every error by the run's median
    slop, a tenth of a millisecond at most in seeds 0-7) and, for a
    query that opened its TCP connection, by the handshake's round
    trip."""
    internet = root_zone_world()
    run = replay_and_match(broot16(internet, duration=6.0, mean_rate=500,
                                   clients=1000),
                           wildcard_root_zone(internet))
    summary = run.error_summary_ms()
    assert summary.count > 2000
    assert 0 < sum(run.opened) < summary.count
    for error, opened in zip(run.errors, run.opened):
        bound = TIMER_SLOP_MAX + ALIGNMENT + (RTT if opened else 0.0)
        assert abs(error) <= bound, (error, opened)
    assert -4.5 < summary.p25 < 0 < summary.p75 < 4.5


def test_resonance_widens_quartiles(runs_by_gap):
    quiet, resonant = runs_by_gap[0.01], runs_by_gap[0.1]
    q_width = quiet.error_summary_ms().p75 - quiet.error_summary_ms().p25
    r_width = (resonant.error_summary_ms().p75
               - resonant.error_summary_ms().p25)
    # The paper's ±8 ms anomaly at 0.1 s interarrival vs ±2.5 elsewhere.
    assert q_width * 1.8 < r_width < 20.0


def test_interarrival_cdf_close_to_original(syn_run):
    cdfs = figure7([syn_run])
    (cdf,) = cdfs
    orig_median = cdf.original[len(cdf.original) // 2][0]
    repl_median = cdf.replayed[len(cdf.replayed) // 2][0]
    assert repl_median == pytest.approx(orig_median, rel=0.15)


def test_interarrival_divergence_grows_as_gap_shrinks(runs_by_gap):
    """Fig 7's pattern: the replayed gaps' 10-90 % spread, relative to
    the gap, is tight at 100 ms, moderate at 10 ms and saturates at full
    jitter randomization at 1 ms (a shuffled arrival process has a
    spread of ~2.2x its mean gap)."""
    divergence = {}
    for gap, cdf in zip(runs_by_gap, figure7(list(runs_by_gap.values()))):
        replayed = [value for value, _ in cdf.replayed]
        divergence[gap] = (percentile(replayed, 90)
                           - percentile(replayed, 10)) / gap
        # The paper calls >= 10 ms 'quite close'; it reports divergence
        # itself below 1 ms, so only these medians are pinned.
        if gap >= 0.01:
            assert abs(percentile(replayed, 50) - gap) < gap * 0.25, gap
    assert divergence[0.1] < 0.6
    assert divergence[0.1] < divergence[0.01] < divergence[0.001]
    assert divergence[0.01] < 1.6
    assert 1.8 < divergence[0.001] < 3.0


def test_rate_runs_produce_differences():
    mean_rate = 500.0
    runs = figure8(trials=2, duration=8.0, mean_rate=mean_rate)
    for run in runs:
        assert len(run.per_second_diffs) >= 5
        # All seconds within ±2% at this scale; median near zero.
        assert run.fraction_within(0.02) == 1.0
        assert abs(summarize(run.per_second_diffs).median) < 0.0035
    # Fig 8's claim lives at 38 k q/s: the noise is queries jittered
    # across 1-second bucket boundaries, binomial, so sigma scales as
    # 1/sqrt(rate).  Projected there, the measured noise must put most
    # seconds within the paper's ±0.1 % (it reports 98-99 %).
    sigma = summarize([d for run in runs
                       for d in run.per_second_diffs]).stdev
    projected = sigma * math.sqrt(mean_rate / PAPER_BROOT_RATE)
    assert math.erf(0.001 / (projected * math.sqrt(2))) > 0.9
