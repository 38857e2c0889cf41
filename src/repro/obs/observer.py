"""The Observer: one handle bundling a metrics registry and a tracer.

A simulation owns at most one Observer, attached to its scheduler
(``Simulator(observe=True)`` or ``ReplayConfig(observe=True)``).  Every
instrumented component reaches it the same way::

    obs = host.scheduler.obs
    if obs is not None:
        obs.metrics.counter("transport.udp.datagrams_out").inc()

so a run without observability pays one ``is not None`` check per
instrumented operation and allocates nothing.  What a component merely
*counts* is not recorded here at all: it lives in an attribute the
component declares (``COUNTERS``) and every report collects
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

SNAPSHOT_VERSION = 2


class Observer:
    """Metrics + tracing for one simulation run."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()

    def snapshot(self, include_volatile: bool = False) -> dict:
        """Grouped snapshot: ``{subsystem: {metric: value}}`` plus the
        trace summary.  Deterministic unless *include_volatile* pulls in
        wall-clock-derived gauges."""
        grouped = group_metrics(
            self.metrics.snapshot(include_volatile=include_volatile))
        # Merge, don't overwrite: trace.* metrics (the pipeline
        # counters) share the "trace" group with the tracer summary.
        grouped.setdefault("trace", {}).update(self.tracer.snapshot())
        grouped["meta"] = {"version": SNAPSHOT_VERSION}
        return grouped


def group_metrics(flat: dict) -> dict:
    """Split flat dotted names on their first segment:
    ``transport.udp.bytes_out`` -> ``{"transport": {"udp.bytes_out": v}}``."""
    grouped: dict[str, dict] = {}
    for name, value in flat.items():
        subsystem, _, rest = name.partition(".")
        grouped.setdefault(subsystem, {})[rest or subsystem] = value
    return grouped
