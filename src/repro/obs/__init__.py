"""repro.obs: run-wide observability (metrics, tracing, run reports).

LDplayer's evaluation (§4) is about *measuring* replay fidelity —
timing error, achieved rate, server CPU and memory — so the simulator
carries a uniform observability layer:

* :class:`MetricsRegistry` — counters, gauges, and log-bucketed
  histograms with p50/p90/p99, named ``subsystem.metric``;
* :class:`Tracer` — a fixed-capacity ring buffer of typed
  :class:`TraceSpan` records following a query through
  controller -> distributor -> wire -> server -> response;
* :class:`Observer` — the single per-simulation handle bundling both,
  attached to the scheduler and reached by every component through a
  null check (off by default, near-zero cost when off).

Opt in with ``ReplayConfig(observe=True)`` (or
``Simulator(observe=True)``); read the results from
``ReplayReport.metrics()`` / ``ReplayReport.to_json()``.  Metric names,
span kinds, and the JSON schema are documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import Observer, group_metrics
from repro.obs.report import to_canonical_json
from repro.obs.tracer import Tracer, TraceSpan

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Observer",
    "Tracer", "TraceSpan", "group_metrics", "to_canonical_json",
]
