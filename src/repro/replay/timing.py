"""Replay timing: the ΔT scheduling rule of §2.6.

On the time-sync broadcast a querier latches the first query's trace
time t̄₁ and the current real time t₁.  For query qᵢ arriving from the
distribution tree at real time tᵢ with trace timestamp t̄ᵢ, the timer
delay is

    ΔTᵢ = Δt̄ᵢ − Δtᵢ = (t̄ᵢ − t̄₁) − (tᵢ − t₁)

which removes whatever input-processing and distribution latency has
already accumulated: the send falls at the absolute instant
t₁ + (t̄ᵢ − t̄₁) (:meth:`ReplayTimer.instant`).  If input falls behind
(ΔTᵢ ≤ 0) the query is sent immediately, without a timer event.

§2.6's Reader pre-loads "a window of queries to avoid falling behind
real time".  Every reader of the input stream — a controller's Reader,
or a direct-mode distributor — admits a record only once its ΔT instant
is within :data:`READ_HORIZON` of now, so the querier timers hold what
is due within the horizon, not the trace.  It refills in whole windows:
it sleeps until its read-ahead falls to half the horizon, then reads up
to the horizon again, so every record the horizon holds back is read at
least ``READ_HORIZON / 2`` before its instant.
"""

from __future__ import annotations

# Trace time a reader admits ahead of now (seconds): a bound on what a
# timed replay keeps in flight, not a tuning knob.  At B-Root's ~2,000
# queries/s it keeps at most ~500 ΔT timers armed.
READ_HORIZON = 1.0


def horizon_wake(instant: float) -> float:
    """When a reader holding back a record due at *instant* reads
    again: once its read-ahead has fallen to half the horizon."""
    return instant - READ_HORIZON / 2


class ReplayTimer:
    """Tracks trace time against real time for one querier."""

    def __init__(self) -> None:
        self.trace_t1: float | None = None
        self.real_t1: float | None = None

    @property
    def synchronized(self) -> bool:
        return self.trace_t1 is not None

    def sync(self, trace_t1: float, real_t1: float) -> None:
        """Process the controller's time-synchronization broadcast."""
        self.trace_t1 = trace_t1
        self.real_t1 = real_t1

    def instant(self, trace_ti: float) -> float:
        """The real time trace time *trace_ti* falls due: t₁ + (t̄ᵢ − t̄₁)."""
        return self.real_t1 + (trace_ti - self.trace_t1)

    def delay_for(self, trace_ti: float, real_ti: float) -> float:
        """ΔTᵢ, clamped at zero (send immediately when behind)."""
        if not self.synchronized:
            raise RuntimeError("delay_for before time synchronization")
        relative_trace = trace_ti - self.trace_t1
        relative_real = real_ti - self.real_t1
        return max(0.0, relative_trace - relative_real)
