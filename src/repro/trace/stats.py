"""Trace statistics: the quantities Table 1 reports per trace.

For every trace the paper lists: start, duration, mean and standard
deviation of query inter-arrival time, number of distinct client IPs,
and total records.

:class:`StreamingStats` computes them: it consumes records one at a
time in O(clients) memory and supports order-preserving merge of partial
results, so ``ldp-trace-stats`` and :meth:`TracePipeline.stats` never
materialize a multi-gigabyte trace.  Interarrival moments use Welford's
algorithm (numerically stable single pass) and the standard
pairwise-merge formula, with the chunk-boundary gap added as one extra
sample at merge time.  :func:`trace_stats`, :func:`queries_per_client`
and :func:`load_concentration` are reads of one ``StreamingStats`` fed
an in-memory :class:`~repro.trace.record.Trace` in time order.

Streaming statistics assume the stream is time-ordered (trace files
are); out-of-order records are counted in ``out_of_order`` so callers
can flag interarrival numbers that should not be trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.trace.record import QueryRecord, Trace
from repro.util.stats import cdf_points


@dataclass(frozen=True)
class TraceStats:
    name: str
    records: int
    duration: float
    clients: int
    interarrival_mean: float
    interarrival_stdev: float

    def table1_row(self) -> str:
        """Format like a Table 1 row."""
        return (f"{self.name:<12} dur={self.duration:7.1f}s "
                f"inter-arrival={self.interarrival_mean:.6f}"
                f"±{self.interarrival_stdev:.6f}s "
                f"clients={self.clients:>8} records={self.records:>10}")


def interarrivals(trace: Trace) -> list[float]:
    records = trace.sorted().records
    return [b.time - a.time for a, b in zip(records, records[1:])]


def _streamed(trace: Trace) -> "StreamingStats":
    """One :class:`StreamingStats` over *trace* in time order."""
    stats = StreamingStats(trace.name)
    for record in trace.sorted():
        stats.update(record)
    return stats


def trace_stats(trace: Trace) -> TraceStats:
    return _streamed(trace).stats()


def per_second_rates(trace: Trace) -> list[int]:
    """Query counts per 1-second window, the Fig 8 measurement unit."""
    if not trace.records:
        return []
    ordered = trace.sorted().records
    t0 = ordered[0].time
    buckets: dict[int, int] = {}
    for record in ordered:
        second = int(record.time - t0)
        buckets[second] = buckets.get(second, 0) + 1
    hi = max(buckets)
    return [buckets.get(sec, 0) for sec in range(hi + 1)]


def queries_per_client(trace: Trace) -> dict[str, int]:
    """Per-client query counts (Fig 15c's CDF input)."""
    return _streamed(trace).client_counts


def load_concentration(trace: Trace, top_fraction: float = 0.01) -> float:
    """Fraction of total queries sent by the busiest *top_fraction* of
    clients (the paper: top 1% of clients send ~3/4 of the load)."""
    return _streamed(trace).load_concentration(top_fraction)


def interarrival_cdf(trace: Trace) -> list[tuple[float, float]]:
    return cdf_points(interarrivals(trace))


class StreamingStats:
    """Single-pass, mergeable trace statistics (Table 1 + mix rows).

    ``update()`` per record, or ``merge()`` partials computed over
    consecutive chunks of the same stream (merge order must follow
    stream order — the boundary interarrival gap is reconstructed from
    the left partial's last timestamp and the right's first).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.records = 0
        self.first_time: float | None = None
        self.last_time: float | None = None
        self.min_time: float | None = None
        self.max_time: float | None = None
        self.out_of_order = 0
        # Welford state over interarrival gaps (stream order).
        self.gap_count = 0
        self.gap_mean = 0.0
        self.gap_m2 = 0.0
        self.client_counts: dict[str, int] = {}
        self.proto_counts: dict[str, int] = {}
        self.do_count = 0

    # -- accumulation ------------------------------------------------------

    def _push_gap(self, gap: float) -> None:
        self.gap_count += 1
        delta = gap - self.gap_mean
        self.gap_mean += delta / self.gap_count
        self.gap_m2 += delta * (gap - self.gap_mean)

    def update(self, record: QueryRecord) -> None:
        time = record.time
        if self.records == 0:
            self.first_time = self.min_time = self.max_time = time
        else:
            if time < self.last_time:
                self.out_of_order += 1
            self._push_gap(time - self.last_time)
            if time < self.min_time:
                self.min_time = time
            if time > self.max_time:
                self.max_time = time
        self.last_time = time
        self.records += 1
        counts = self.client_counts
        counts[record.src] = counts.get(record.src, 0) + 1
        protos = self.proto_counts
        protos[record.proto] = protos.get(record.proto, 0) + 1
        self.do_count += record.do

    def merge(self, other: "StreamingStats") -> None:
        """Fold in the partial for the chunk that follows this one."""
        if other.records == 0:
            return
        if self.records == 0:
            self.first_time = other.first_time
            self.min_time = other.min_time
            self.max_time = other.max_time
            self.gap_count = other.gap_count
            self.gap_mean = other.gap_mean
            self.gap_m2 = other.gap_m2
        else:
            boundary = other.first_time - self.last_time
            if boundary < 0:
                self.out_of_order += 1
            self._push_gap(boundary)
            n_a, n_b = self.gap_count, other.gap_count
            if n_b:
                delta = other.gap_mean - self.gap_mean
                total = n_a + n_b
                self.gap_mean += delta * n_b / total
                self.gap_m2 += other.gap_m2 \
                    + delta * delta * n_a * n_b / total
                self.gap_count = total
            self.min_time = min(self.min_time, other.min_time)
            self.max_time = max(self.max_time, other.max_time)
        self.last_time = other.last_time
        self.records += other.records
        self.out_of_order += other.out_of_order
        for src, count in other.client_counts.items():
            self.client_counts[src] = \
                self.client_counts.get(src, 0) + count
        for proto, count in other.proto_counts.items():
            self.proto_counts[proto] = \
                self.proto_counts.get(proto, 0) + count
        self.do_count += other.do_count

    # -- results -----------------------------------------------------------

    @property
    def clients(self) -> int:
        return len(self.client_counts)

    @property
    def duration(self) -> float:
        if self.records < 2:
            return 0.0
        return self.max_time - self.min_time

    def interarrival_stdev(self) -> float:
        if self.gap_count < 2:
            return 0.0
        return math.sqrt(self.gap_m2 / (self.gap_count - 1))

    def do_fraction(self) -> float:
        return self.do_count / self.records if self.records else 0.0

    def proto_mix(self) -> dict[str, float]:
        if not self.records:
            return {}
        return {proto: count / self.records
                for proto, count in sorted(self.proto_counts.items())}

    def load_concentration(self, top_fraction: float = 0.01) -> float:
        counts = sorted(self.client_counts.values(), reverse=True)
        if not counts:
            return 0.0
        top_n = max(1, int(len(counts) * top_fraction))
        return sum(counts[:top_n]) / sum(counts)

    def stats(self) -> TraceStats:
        return TraceStats(
            name=self.name or "unnamed",
            records=self.records,
            duration=self.duration,
            clients=self.clients,
            interarrival_mean=self.gap_mean if self.gap_count else 0.0,
            interarrival_stdev=self.interarrival_stdev())
