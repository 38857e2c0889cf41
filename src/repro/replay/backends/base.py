"""The replay-backend protocol: one engine API, two substrates.

A :class:`ReplayBackend` executes a replay of a query trace against an
authoritative identity and returns a
:class:`~repro.replay.engine.ReplayReport`.  Two implementations ship:

* :class:`~repro.replay.backends.sim.SimBackend` — the deterministic
  discrete-event simulator (byte-identical reports for identical
  seeds); the engine behind every paper-figure experiment;
* :class:`~repro.replay.backends.live.LiveBackend` — real ``asyncio``
  UDP/TCP loopback sockets driven in wall-clock time (LDplayer's
  actual operating mode: real binaries, real sockets), statistically
  but not bitwise reproducible.

Both emit the same ``ReplayReport``/observer metric schema — the live
backend adds volatile-only gauges (wall-clock qps, socket errors) that
are excluded from deterministic snapshots — so experiments, the trace
pipeline feed, and report tooling run unmodified on either.  Select
with ``ReplayConfig(backend="sim"|"live")`` or ``ldp-replay
--backend``; see docs/BACKENDS.md for the backend matrix and the
determinism scope of each.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.replay.engine import ReplayReport


class ReplayBackend(ABC):
    """Executes replays of query traces; see the module docstring."""

    #: Registry key (the ``ReplayConfig.backend`` value selecting it).
    name: ClassVar[str] = ""

    @abstractmethod
    def run(self, trace, *, extra_time: float | None = None,
            until: float | None = None) -> "ReplayReport":
        """Replay *trace* (a Trace, TracePipeline, or record iterable)
        to completion and return the report.

        *extra_time*/*until* override the values carried in
        ``ReplayConfig`` for this run only."""
