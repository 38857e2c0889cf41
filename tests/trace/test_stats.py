"""Tests for trace statistics (Table 1 quantities)."""

import math

import pytest

from repro.trace.record import QueryRecord, Trace
from repro.trace.stats import (interarrival_cdf, interarrivals,
                               load_concentration, per_second_rates,
                               queries_per_client, trace_stats)


def two_pass_moments(trace: Trace) -> tuple[float, float]:
    """The reference the streaming (Welford) pass is held to: mean and
    sample standard deviation of the sorted interarrival gaps, summed
    in two plain passes."""
    gaps = interarrivals(trace)
    if not gaps:
        return 0.0, 0.0
    mean = sum(gaps) / len(gaps)
    if len(gaps) == 1:
        return mean, 0.0
    return mean, math.sqrt(sum((g - mean) ** 2 for g in gaps)
                           / (len(gaps) - 1))


def fixed_gap_trace(gap=0.5, n=11):
    return Trace([QueryRecord(time=i * gap, src=f"10.0.0.{i % 3}",
                              qname="x.example.")
                  for i in range(n)], name="fixed")


def test_interarrivals_fixed_gap():
    gaps = interarrivals(fixed_gap_trace(gap=0.5))
    assert gaps == [pytest.approx(0.5)] * 10


def test_trace_stats_basic():
    stats = trace_stats(fixed_gap_trace(gap=0.5, n=11))
    assert stats.records == 11
    assert stats.duration == pytest.approx(5.0)
    assert stats.clients == 3
    assert stats.interarrival_mean == pytest.approx(0.5)
    assert stats.interarrival_stdev == pytest.approx(0.0, abs=1e-9)
    assert "records=" in stats.table1_row()


def test_trace_stats_empty():
    stats = trace_stats(Trace([], name="empty"))
    assert stats.records == 0
    assert stats.interarrival_mean == 0.0


def test_out_of_order_trace_has_its_sorted_duration():
    """``trace_stats`` took the duration as last minus first of the
    unsorted records (here -2.0 s) while its gaps came from the sorted
    ones; every statistic now reads one pass over the sorted trace."""
    trace = Trace([QueryRecord(time=t, src=s, qname="x.")
                   for t, s in ((5.0, "a"), (1.0, "b"), (3.0, "a"))])
    stats = trace_stats(trace)
    assert stats.duration == 4.0
    assert (stats.interarrival_mean, stats.interarrival_stdev) == \
        pytest.approx(two_pass_moments(trace))
    assert stats.records == 3 and stats.clients == 2
    assert queries_per_client(trace) == {"a": 2, "b": 1}


def test_per_second_rates():
    trace = Trace([QueryRecord(time=t, src="a", qname="x.")
                   for t in (0.1, 0.2, 0.9, 1.5, 3.1)])
    assert per_second_rates(trace) == [3, 1, 0, 1]


def test_queries_per_client():
    trace = Trace([QueryRecord(time=0, src=s, qname="x.")
                   for s in ("a", "a", "b")])
    assert queries_per_client(trace) == {"a": 2, "b": 1}


def test_load_concentration_skewed():
    # One whale client sends 90 of 100 queries.
    records = [QueryRecord(time=i, src="whale", qname="x.")
               for i in range(90)]
    records += [QueryRecord(time=100 + i, src=f"mouse{i}", qname="x.")
                for i in range(10)]
    concentration = load_concentration(Trace(records), top_fraction=0.1)
    assert concentration == pytest.approx(0.9)


def test_interarrival_cdf_monotone():
    cdf = interarrival_cdf(fixed_gap_trace())
    fractions = [f for _, f in cdf]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
