"""Simulated clock and event scheduler.

A deterministic event loop over one timer store: a binary min-heap of
``(time, seq, Event)`` entries.  Events run in the total order
``(time, seq)`` — ties break by insertion order — so every seeded run
is reproducible byte for byte.  DESIGN.md section 5 records why there
is no second store and when that is worth measuring again.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable

# How often the instrumented loop samples pending-event depth (must be
# a power of two minus one; used as a bitmask over events_processed).
_HEAP_SAMPLE_MASK = 0xFF


class Event:
    """A scheduled callback; cancel() prevents it from firing.

    A *daemon* event (periodic samplers, housekeeping) does not keep
    :meth:`Scheduler.run_until_idle` alive: once only daemon events
    remain, the simulation is considered idle.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "daemon")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 daemon: bool = False):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    """The simulation event loop."""

    # Read only by the frozen ledger (benchmarks/ledger/workloads.py),
    # which sums it with heap_scheduled.
    wheel_scheduled = 0

    def __init__(self) -> None:
        self.now = 0.0
        # (time, seq, Event): the (time, seq) prefix is unique, so
        # Events themselves are never compared.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self.events_processed = 0
        self._live = 0  # pending non-daemon events (cancelled included
        #                 until popped; they drain in time order)
        self.heap_scheduled = 0  # events ever scheduled
        # Observability handle (repro.obs.Observer); None means off and
        # every instrumented component skips its recording code.
        self.obs = None
        self.wall_time = 0.0  # wall seconds spent inside run() (obs only)

    def at(self, time: float, fn: Callable[..., Any], *args: Any,
           daemon: bool = False) -> Event:
        """Schedule *fn(*args)* at absolute simulated *time*."""
        if time < self.now:
            time = self.now
        event = Event(time, fn, args, daemon)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        self.heap_scheduled += 1
        if not daemon:
            self._live += 1
        return event

    def after(self, delay: float, fn: Callable[..., Any],
              *args: Any, daemon: bool = False) -> Event:
        """Schedule *fn(*args)* after *delay* simulated seconds."""
        return self.at(self.now + max(0.0, delay), fn, *args,
                       daemon=daemon)

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Process events until the heap drains, *until* is reached,
        or *max_events* have run.  The clock is left at the last event
        time, or at *until* if that came first and lies ahead of it:
        the clock never moves backwards."""
        if self.obs is None:
            self._run(until, max_events)
            return
        wall_start = time.perf_counter()
        try:
            self._run(until, max_events, self.obs)
        finally:
            self.wall_time += time.perf_counter() - wall_start
            self._record_obs(self.obs)

    def _run(self, until: float | None, max_events: int | None,
             obs=None) -> None:
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        heap_depth = obs.metrics.histogram("scheduler.heap_depth") \
            if obs is not None else None
        while heap:
            if max_events is not None and processed >= max_events:
                return
            if until is None and self._live == 0:
                return  # only daemon events remain: idle
            event_time, _, event = heap[0]
            if until is not None and event_time > until:
                break
            heappop(heap)
            if not event.daemon:
                self._live -= 1
            if event.cancelled:
                continue
            self.now = event_time
            event.fn(*event.args)
            self.events_processed += 1
            processed += 1
            if heap_depth is not None and \
                    (self.events_processed & _HEAP_SAMPLE_MASK) == 0:
                heap_depth.record(float(len(heap)))
        if until is not None and until > self.now:
            self.now = until

    def _record_obs(self, obs) -> None:
        metrics = obs.metrics
        metrics.gauge("scheduler.sim_time").set(self.now)
        metrics.gauge("scheduler.events_processed").set(
            float(self.events_processed))
        metrics.gauge("scheduler.pending_events").set(
            float(len(self._heap)))
        # Wall-clock-derived gauges are volatile: excluded from the
        # deterministic snapshot, available via include_volatile=True.
        metrics.gauge("scheduler.wall_time", volatile=True).set(
            self.wall_time)
        if self.wall_time > 0:
            metrics.gauge("scheduler.events_per_wall_sec",
                          volatile=True).set(
                self.events_processed / self.wall_time)
            metrics.gauge("scheduler.sim_wall_ratio", volatile=True).set(
                self.now / self.wall_time)

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        self.run(max_events=max_events)
