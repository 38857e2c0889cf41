"""The deterministic simulator backend: the discrete-event
:class:`~repro.replay.engine.ReplayEngine` behind the
:class:`~repro.replay.backends.base.ReplayBackend` face.  ``run``
delegates to ``ReplayEngine.run``, so the report is the engine's own.
"""

from __future__ import annotations

from repro.replay.backends.base import ReplayBackend


class SimBackend(ReplayBackend):
    """Replay through an existing :class:`ReplayEngine` (and its
    simulator); deterministic and byte-identical for identical seeds."""

    name = "sim"

    def __init__(self, engine):
        self.engine = engine

    def run(self, trace, *, extra_time=None, until=None,
            resume_from=None):
        return self.engine.run(trace, extra_time=extra_time, until=until,
                               resume_from=resume_from)
