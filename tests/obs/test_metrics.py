"""Unit tests for the histogram and the Observer's volatile rows."""

import pytest

from repro.obs import Histogram, Observer


def test_volatile_gauge_excluded_by_default():
    """The Observer's wall-clock rows are declared volatile: out of the
    default snapshot, in the full one."""
    obs = Observer()
    obs.wall_time = 1.23
    obs.sim_time = 4.0
    snap = obs.snapshot()
    assert "wall_time" not in snap["scheduler"]
    assert snap["scheduler"]["sim_time"] == 4.0
    full = obs.snapshot(include_volatile=True)
    assert full["scheduler"]["wall_time"] == 1.23


def test_histogram_exact_stats():
    h = Histogram("h")
    for v in [1.0, 2.0, 3.0, 4.0]:
        h.record(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["min"] == 1.0
    assert snap["max"] == 4.0
    assert snap["mean"] == pytest.approx(2.5)


def test_histogram_quantiles_within_bucket_error():
    """Log buckets grow by 2**0.125 (~9%): quantiles must land within
    that relative error of the exact order statistic."""
    h = Histogram("h")
    values = [float(i) for i in range(1, 1001)]
    for v in values:
        h.record(v)
    for q, exact in [(0.50, 500.0), (0.90, 900.0), (0.99, 990.0)]:
        estimate = h.quantile(q)
        assert abs(estimate - exact) / exact < 0.10, (q, estimate)


def test_histogram_quantiles_clamped_to_observed_range():
    h = Histogram("h")
    h.record(7.0)
    assert h.quantile(0.0) == 7.0
    assert h.quantile(1.0) == 7.0
    snap = h.snapshot()
    assert snap["p50"] == 7.0
    assert snap["p99"] == 7.0


def test_histogram_zero_and_negative_values():
    h = Histogram("h")
    h.record(0.0)
    h.record(-1.0)  # clamped into the zero bucket
    h.record(1.0)
    snap = h.snapshot()
    assert snap["count"] == 3
    assert snap["min"] == -1.0
    assert h.quantile(0.25) == pytest.approx(-1.0)


def test_histogram_weighted_quantile():
    """Time-weighted: a value held 9x as long dominates the median."""
    h = Histogram("h")
    h.record(1.0, weight=9.0)
    h.record(100.0, weight=1.0)
    assert h.quantile(0.5) == pytest.approx(1.0, rel=0.10)
    assert h.quantile(0.95) == pytest.approx(100.0, rel=0.10)


def test_empty_histogram_snapshot():
    h = Histogram("h")
    snap = h.snapshot()
    assert snap["count"] == 0
    assert snap["p50"] == 0.0

