"""The quantile histogram behind every distribution a report carries.

Counts and gauges need no class: they are plain attributes, declared
once in a ``COUNTERS`` table (:mod:`repro.obs.report`).  A histogram is
the one instrument with state of its own, and the same constraints
shape it:

* **deterministic** — two runs with the same seed must produce
  byte-identical snapshots, so nothing here reads wall-clock time or
  iterates over unordered containers at snapshot time;
* **cheap** — log-bucketed, no per-sample storage.

Histograms support a *weight* per sample, which is how time-weighted
distributions (e.g. scheduler heap depth weighted by residence time)
are recorded.
"""

from __future__ import annotations

import math

# Geometric bucket layout: bucket i covers [BASE*GROWTH^i, BASE*GROWTH^(i+1)).
# BASE at 1 ns resolves sub-microsecond timing errors; GROWTH of 2^(1/8)
# gives ~9% relative quantile error over the whole range.
_BASE = 1e-9
_GROWTH = 2.0 ** 0.125
_LOG_GROWTH = math.log(_GROWTH)


class Histogram:
    """Log-bucketed distribution with interpolated p50/p90/p99.

    Values ≤ 0 land in a dedicated zero bucket (timing errors clamp at
    zero; depths and sizes are non-negative), everything else in a
    geometric bucket.  Quantiles interpolate linearly inside the bucket
    and are clamped to the exact observed min/max.
    """

    __slots__ = ("name", "count", "total_weight", "weighted_sum",
                 "min", "max", "_zero_weight", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_weight = 0.0
        self.weighted_sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._zero_weight = 0.0
        self._buckets: dict[int, float] = {}

    def record(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0.0:
            return
        self.count += 1
        self.total_weight += weight
        self.weighted_sum += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= _BASE:
            self._zero_weight += weight
            return
        index = int(math.floor(math.log(value / _BASE) / _LOG_GROWTH))
        self._buckets[index] = self._buckets.get(index, 0.0) + weight

    def mean(self) -> float:
        if self.total_weight == 0.0:
            return 0.0
        return self.weighted_sum / self.total_weight

    def quantile(self, q: float) -> float:
        """Weighted quantile, interpolated within the landing bucket."""
        if self.total_weight == 0.0 or self.min is None:
            return 0.0
        target = q * self.total_weight
        if target <= self._zero_weight:
            # Zero-bucket samples report the observed minimum (which may
            # be negative), keeping quantiles inside [min, max].
            return self.min
        seen = self._zero_weight
        for index in sorted(self._buckets):
            weight = self._buckets[index]
            if seen + weight >= target:
                lower = _BASE * _GROWTH ** index
                upper = lower * _GROWTH
                fraction = (target - seen) / weight
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            seen += weight
        return self.max if self.max is not None else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }
