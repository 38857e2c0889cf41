"""Metrics primitives: counters, gauges, and quantile histograms.

Design constraints (they shape everything here):

* **deterministic** — two runs with the same seed must produce
  byte-identical snapshots, so nothing in this module reads wall-clock
  time or iterates over unordered containers at snapshot time.  Metrics
  that *are* wall-clock derived (the scheduler's sim/wall ratio) are
  registered ``volatile`` and excluded from snapshots by default.
* **cheap** — histograms are log-bucketed (no per-sample storage), and
  components only touch the registry through an ``obs is not None``
  guard, so a run without observability pays a single attribute check
  per instrumented operation.

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


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


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


class MetricsRegistry:
    """Run-wide named metrics, created on first use.

    Names are dotted (``subsystem.metric``); the first segment is the
    grouping key used by snapshot assembly (scheduler, transport,
    server, replay).  Re-requesting a name returns the same instrument;
    requesting it as a different kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._volatile: set[str] = set()

    def _get(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, volatile: bool = False) -> Counter:
        """*volatile* counters hold wall-clock facts (pipeline worker
        seconds) that differ between runs whose snapshots must
        otherwise be byte-identical; like volatile gauges they only
        appear with ``include_volatile=True``."""
        if volatile:
            self._volatile.add(name)
        return self._get(name, Counter)

    def gauge(self, name: str, volatile: bool = False) -> Gauge:
        if volatile:
            self._volatile.add(name)
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self, include_volatile: bool = False) -> dict:
        """Flat ``{name: value}``, sorted by name.  Volatile metrics
        (wall-clock derived) are excluded unless asked for, keeping the
        default snapshot reproducible across runs."""
        out = {}
        for name in sorted(self._metrics):
            if not include_volatile and name in self._volatile:
                continue
            out[name] = self._metrics[name].snapshot()
        return out
