"""Host send-path timing model: the jitter a real OS adds.

A pure discrete-event simulator fires timers exactly on schedule, so the
timing errors the paper measures (Fig 6-8) would all be zero and the
validation experiments would be vacuous.  Instead the error sources the
paper identifies are modelled explicitly, with a seeded RNG:

* **timer slop** — application+kernel timer latency: a Laplace-distributed
  perturbation (quartiles land within a few ms, matching Fig 6's
  +/-2.5 ms boxes), truncated at +/-17 ms (the paper's observed min/max).
* **timer resonance** — the paper sees a distinctly larger +/-8 ms
  quartile error exactly at 0.1 s interarrivals and attributes it to "an
  interaction between application and kernel-level timers at this
  specific timescale" (§4.2).  Timers whose requested delay falls in that
  band get an extra perturbation.
* **send-path occupancy** — each send occupies the sending process for a
  small random service time (syscall + copy).  At 0.1 ms interarrivals
  the service time is comparable to the gap, which is exactly why the
  paper's Fig 7 CDF diverges for sub-ms interarrivals while 10 ms+ traces
  replay faithfully.

All three mechanisms and their constants are calibration points recorded
in DESIGN.md §5.
"""

from __future__ import annotations

import math
import random

# docs/MODEL.md's calibration constants (seconds).
TIMER_SLOP_SCALE = 0.0032
TIMER_SLOP_MAX = 0.017
RESONANCE_BAND = (0.05, 0.2)
RESONANCE_SCALE = 0.008


class SendPathModel:
    """Per-process timing imperfections, deterministic under a seed."""

    def __init__(self, seed: int = 0, send_cost_mean: float = 11e-6):
        # Timer slop and send service times draw from streams of their
        # own, so neither kind of draw shifts the other: a record's slop
        # depends only on its place among the process's timers, not on
        # how many sends happened before its timer was armed (a reader
        # hands records over as they fall due).  The seed's own stream
        # goes to the kind of draw the process makes first — its timers
        # in a timed replay, its sends in a fast one — and the other
        # kind to a stream derived from the seed, so a process that
        # draws one kind only draws what a single stream gave it.
        self._seeds = iter((seed, f"{seed}/second"))
        self._timers: random.Random | None = None
        self._sends: random.Random | None = None
        self.send_cost_mean = send_cost_mean
        self._busy_until = 0.0

    # -- timers ------------------------------------------------------------

    def _laplace(self, scale: float) -> float:
        if self._timers is None:
            self._timers = random.Random(next(self._seeds))
        u = self._timers.random() - 0.5
        return -scale * math.copysign(math.log1p(-2 * abs(u)), u)

    def timer_slop(self, requested_delay: float,
                   interval: float | None = None) -> float:
        """Extra latency added to a timer of *requested_delay* seconds;
        may be negative (early fires happen when a prior tick overshot).

        *interval* is the gap since the process's previous timer fire:
        the paper's ±8 ms anomaly appears when timers recur at the
        0.1 s timescale (§4.2), so the resonance keys on the recurrence
        interval when known, falling back to the requested delay."""
        slop = self._laplace(TIMER_SLOP_SCALE)
        lo, hi = RESONANCE_BAND
        probe = interval if interval is not None else requested_delay
        if lo <= probe <= hi:
            slop += self._laplace(RESONANCE_SCALE)
        return max(-TIMER_SLOP_MAX, min(TIMER_SLOP_MAX, slop))

    # -- send occupancy ------------------------------------------------------

    def send_service_time(self) -> float:
        """Random per-send processing time (syscall, copy, checksum)."""
        if self._sends is None:
            self._sends = random.Random(next(self._seeds))
        return self._sends.expovariate(1.0 / self.send_cost_mean)

    def occupy(self, now: float) -> float:
        """Serialize a send through this process: returns the actual time
        the packet leaves, accounting for queueing behind earlier sends."""
        start = max(now, self._busy_until)
        self._busy_until = start + self.send_service_time()
        return start


class NullSendPath(SendPathModel):
    """A perfect host: zero jitter, zero send cost (useful in unit tests)."""

    def __init__(self) -> None:
        super().__init__(seed=0)

    def timer_slop(self, requested_delay: float,
                   interval: float | None = None) -> float:
        return 0.0

    def send_service_time(self) -> float:
        return 0.0

    def occupy(self, now: float) -> float:
        return now
