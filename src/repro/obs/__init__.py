"""repro.obs: run-wide observability (metrics, tracing, run reports).

LDplayer's evaluation (§4) is about *measuring* replay fidelity —
timing error, achieved rate, server CPU and memory — so the simulator
carries a uniform observability layer:

* **declared counters** — every count a component keeps lives in one
  plain attribute, declared once in the class's ``COUNTERS`` mapping
  and summed into every report by :func:`collect`, observed or not
  (:mod:`repro.obs.report`);
* :class:`Observer` — the single per-simulation handle, attached to
  the scheduler and reached by every component through a null check
  (off by default, near-zero cost when off).  What an observed run
  records is its attributes, declared once in its ``COUNTERS`` and
  ``HISTOGRAMS`` tables: per-transport traffic, scheduler gauges, and
  log-bucketed :class:`Histogram` distributions with p50/p90/p99;
* :class:`Tracer` — a fixed-capacity ring buffer of typed
  :class:`TraceSpan` records following a query through
  controller -> distributor -> wire -> server -> response.

Counters are in every report; opt in to the recorded part with
``ReplayConfig(observe=True)`` (or ``Simulator(observe=True)``); read
the results from
``ReplayReport.metrics()`` / ``ReplayReport.to_json()``.  Metric names,
span kinds, and the JSON schema are documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.metrics import Histogram
from repro.obs.observer import Observer, group_metrics
from repro.obs.report import (collect, counter_state, restore_counters,
                              to_canonical_json, volatile, zero_counters)
from repro.obs.tracer import Tracer, TraceSpan

__all__ = [
    "Histogram", "Observer", "Tracer", "TraceSpan", "collect",
    "counter_state", "group_metrics", "restore_counters",
    "to_canonical_json", "volatile", "zero_counters",
]
