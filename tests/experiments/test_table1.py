"""Tests for the Table 1 regenerator."""

import pytest

from repro.experiments.table1 import (PAPER_TABLE1, generate_all_traces,
                                      run)
from repro.trace.stats import trace_stats


@pytest.fixture(scope="module")
def stats():
    traces = generate_all_traces(duration=10.0, syn_duration=1.0)
    return {label: trace_stats(trace) for label, trace in traces.items()}


def test_all_paper_traces_have_analogues():
    traces = generate_all_traces(duration=4.0, syn_duration=1.0)
    assert set(PAPER_TABLE1) == set(traces)


def test_synthetic_interarrivals_match_table(stats):
    # Fixed interarrival, zero variance, exactly as Table 1 constructs
    # them (syn-0 at this duration is a single record: nothing to pin).
    for label, gap in (("syn-0", 1.0), ("syn-1", 0.1), ("syn-2", 0.01),
                       ("syn-3", 0.001), ("syn-4", 0.0001)):
        if stats[label].records >= 2:
            assert abs(stats[label].interarrival_mean - gap) < gap * 0.01
            assert stats[label].interarrival_stdev < gap * 0.01


def test_rows_render_with_paper_reference():
    rows = run(duration=4.0, syn_duration=1.0)
    rendered = [row.format() for row in rows]
    assert any("paper:" in line for line in rendered)
    assert len(rendered) == len(PAPER_TABLE1)


def test_rec17_burstiness_direction(stats):
    rec = stats["Rec-17"]
    # Table 1: sd (0.36) ~ 2x mean (0.18), from at most 91 clients.
    assert rec.interarrival_stdev > rec.interarrival_mean
    assert rec.clients <= 91


def test_broot_is_bursty_with_many_clients(stats):
    # Two orders of magnitude more clients than Rec-17; sd >= mean.
    broot = stats["B-Root-16"]
    assert broot.interarrival_stdev > broot.interarrival_mean
    assert broot.clients > 1000
