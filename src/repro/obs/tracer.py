"""Low-overhead event tracing: a ring buffer of typed spans.

A span marks one stage of a query's journey through the replay
pipeline — ``controller.dispatch``, ``distributor.forward``,
``querier.send``, ``wire.transmit``, ``server.handle``,
``querier.response`` — with simulated start/end times and a short
free-form detail string.  The buffer is a fixed-capacity ring: when it
fills, the oldest spans are overwritten and counted as dropped, so
tracing a long run costs bounded memory and the tail of the run is
always available for inspection.

Per-kind counts are kept outside the ring, so aggregate span counts
survive overflow and stay exact.
"""

from __future__ import annotations


class TraceSpan:
    """One traced pipeline stage, in simulated time."""

    __slots__ = ("kind", "start", "end", "detail")

    def __init__(self, kind: str, start: float, end: float,
                 detail: str = ""):
        self.kind = kind
        self.start = start
        self.end = end
        self.detail = detail

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"TraceSpan({self.kind!r}, {self.start:.6f}"
                f"->{self.end:.6f}, {self.detail!r})")


class Tracer:
    """Fixed-capacity span ring buffer with exact per-kind counts."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.emitted = 0
        self._ring: list[TraceSpan | None] = [None] * capacity
        self._next = 0
        self._kind_counts: dict[str, int] = {}

    def emit(self, kind: str, start: float, end: float | None = None,
             detail: str = "") -> None:
        span = TraceSpan(kind, start, start if end is None else end,
                         detail)
        self._ring[self._next] = span
        self._next = (self._next + 1) % self.capacity
        self.emitted += 1
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1

    @property
    def dropped(self) -> int:
        """Spans overwritten by ring wrap-around."""
        return max(0, self.emitted - self.capacity)

    def spans(self) -> list[TraceSpan]:
        """Retained spans, oldest first."""
        if self.emitted < self.capacity:
            return [s for s in self._ring[:self._next] if s is not None]
        return ([s for s in self._ring[self._next:] if s is not None]
                + [s for s in self._ring[:self._next] if s is not None])

    def merge(self, other: "Tracer") -> None:
        """Fold *other*'s spans and counts in (a tracer another process
        kept over the same run and time base): the retained spans of
        both interleave by start time and the newest ``capacity`` stay;
        ``emitted`` and the per-kind counts add, so they stay exact."""
        spans = sorted(self.spans() + other.spans(),
                       key=lambda span: span.start)[-self.capacity:]
        self._ring = spans + [None] * (self.capacity - len(spans))
        self._next = len(spans) % self.capacity
        self.emitted += other.emitted
        for kind, count in other._kind_counts.items():
            self._kind_counts[kind] = self._kind_counts.get(kind, 0) + count

    def counts(self) -> dict[str, int]:
        """Exact emit counts per span kind (overflow-proof)."""
        return {kind: self._kind_counts[kind]
                for kind in sorted(self._kind_counts)}

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "kinds": self.counts(),
        }
