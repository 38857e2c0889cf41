"""Simulated clock and event scheduler.

A deterministic event loop over one timer store: a binary min-heap
whose entries are the :class:`Event` objects themselves.  Events run
in the total order ``(time, seq)`` — ties break by insertion order — so
every seeded run is reproducible byte for byte.  DESIGN.md section 5
records why there is no second store and when that is worth measuring
again.
"""

from __future__ import annotations

import heapq
import time
from operator import itemgetter
from typing import Any, Callable

# How often the instrumented loop samples pending-event depth (must be
# a power of two minus one; used as a bitmask over events_processed).
_HEAP_SAMPLE_MASK = 0xFF


class Event(list):
    """A scheduled callback; cancel() prevents it from firing.

    The event is its own heap entry, ``[time, seq, fn, args, daemon]``:
    lists order item by item and ``(time, seq)`` is unique, so nothing
    behind it is ever compared.  A *daemon* event (periodic samplers,
    housekeeping) does not keep :meth:`Scheduler.run_until_idle` alive:
    once only daemon events remain, the simulation is considered idle.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    args = property(itemgetter(3))      # survives cancel()
    daemon = property(itemgetter(4))

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        self[2] = None


class Scheduler:
    """The simulation event loop."""

    # Read only by the frozen ledger (benchmarks/ledger/workloads.py),
    # which sums it with heap_scheduled.
    wheel_scheduled = 0

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Event] = []
        self.events_processed = 0
        self._live = 0  # pending non-daemon events (cancelled included
        #                 until popped; they drain in time order)
        self.heap_scheduled = 0  # events ever scheduled; the next seq
        # Observability handle (repro.obs.Observer); None means off and
        # every instrumented component skips its recording code.
        self.obs = None
        self.wall_time = 0.0  # wall seconds spent inside run() (obs only)

    def at(self, time: float, fn: Callable[..., Any], *args: Any,
           daemon: bool = False) -> Event:
        """Schedule *fn(*args)* at absolute simulated *time*."""
        if time < self.now:
            time = self.now
        seq = self.heap_scheduled
        self.heap_scheduled = seq + 1
        event = Event((time, seq, fn, args, daemon))
        heapq.heappush(self._heap, event)
        if not daemon:
            self._live += 1
        return event

    def after(self, delay: float, fn: Callable[..., Any],
              *args: Any, daemon: bool = False) -> Event:
        """Schedule *fn(*args)* after *delay* simulated seconds.

        :meth:`at` written out again: most timers are set through here,
        and re-packing ``*args`` through a second frame cost a third of
        an event."""
        time = self.now + delay if delay > 0.0 else self.now
        seq = self.heap_scheduled
        self.heap_scheduled = seq + 1
        event = Event((time, seq, fn, args, daemon))
        heapq.heappush(self._heap, event)
        if not daemon:
            self._live += 1
        return event

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
        heap_depth = obs.heap_depth if obs is not None else None
        while heap:
            if max_events is not None and processed >= max_events:
                return
            if until is None and self._live == 0:
                return  # only daemon events remain: idle
            event_time, _, fn, args, daemon = heap[0]
            if until is not None and event_time > until:
                break
            heappop(heap)
            if not daemon:
                self._live -= 1
            if fn is None:      # cancelled
                continue
            self.now = event_time
            fn(*args)
            self.events_processed += 1
            processed += 1
            if heap_depth is not None and \
                    (self.events_processed & _HEAP_SAMPLE_MASK) == 0:
                heap_depth.record(float(len(heap)))
        if until is not None and until > self.now:
            self.now = until

    def _record_obs(self, obs) -> None:
        obs.sim_time = self.now
        obs.events_processed = float(self.events_processed)
        obs.pending_events = float(len(self._heap))
        # Wall-clock-derived rows are volatile (Observer.COUNTERS):
        # excluded from the deterministic snapshot.
        obs.wall_time = self.wall_time
        if self.wall_time > 0:
            obs.events_per_wall_sec = self.events_processed / self.wall_time
            obs.sim_wall_ratio = self.now / self.wall_time

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Run until only daemon events remain.  *max_events* is a
        runaway guard, not a budget: reaching it with live events still
        pending raises :class:`RuntimeError` instead of returning as if
        the simulation were done (use :meth:`run` for a budget)."""
        self.run(max_events=max_events)
        if self._live:
            pending = sum(1 for event in self._heap
                          if not event[4] and event[2] is not None)
            if pending:
                raise RuntimeError(
                    f"run_until_idle hit its max_events cap "
                    f"({max_events:,}) with {pending:,} live events "
                    "still pending; raise max_events to run a longer "
                    "simulation to completion")
