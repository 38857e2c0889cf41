"""The Observer: what an observed run records, declared once, plus a tracer.

A simulation owns at most one Observer, attached to its scheduler
(``Simulator(observe=True)`` or ``ReplayConfig(observe=True)``).  Every
recorded row is one attribute of it, declared in :attr:`Observer.COUNTERS`
(counts and gauges) or :attr:`Observer.HISTOGRAMS` (distributions), and
every instrumented component reaches it the same way::

    obs = host.scheduler.obs
    if obs is not None:
        obs.udp_datagrams_out += 1

so a run without observability pays one ``is not None`` check per
instrumented operation and allocates nothing, and an observed one an
attribute increment.  What a component merely *counts* is not recorded
here at all: it lives in an attribute the component declares
(``COUNTERS``) and every report collects (:mod:`repro.obs.report`);
per-query numbers are read off the results (``ReplayReport.metrics``).
"""

from __future__ import annotations

from repro.obs.metrics import Histogram
from repro.obs.report import collect, volatile, zero_counters
from repro.obs.tracer import Tracer

SNAPSHOT_VERSION = 3


class Observer:
    """Recorded metrics + tracing for one simulation run."""

    # Counts and gauges, attribute -> metric name; a volatile(...) row
    # is a wall-clock fact, reported only with include_volatile=True.
    COUNTERS = {
        "udp_datagrams_in": "transport.udp.datagrams_in",
        "udp_datagrams_out": "transport.udp.datagrams_out",
        "udp_bytes_in": "transport.udp.bytes_in",
        "udp_bytes_out": "transport.udp.bytes_out",
        "tcp_connects": "transport.tcp.connects",
        "tcp_accepts": "transport.tcp.accepts",
        "tcp_established_total": "transport.tcp.established_total",
        "tcp_closes": "transport.tcp.closes",
        "tcp_segments_out": "transport.tcp.segments_out",
        "tcp_bytes_in": "transport.tcp.bytes_in",
        "tcp_bytes_out": "transport.tcp.bytes_out",
        "tcp_fin_retransmits_seen": "transport.tcp.fin_retransmits_seen",
        "tls_handshakes": "transport.tls.handshakes",
        "tls_records_out": "transport.tls.records_out",
        "tls_bytes_out": "transport.tls.bytes_out",
        "wire_bytes": "transport.wire.bytes",
        "server_queries_udp": "server.queries_udp",
        "server_queries_tcp": "server.queries_tcp",
        "server_queries_tls": "server.queries_tls",
        "server_queries_quic": "server.queries_quic",
        "view_selections": "server.view_selections",
        "view_misses": "server.view_misses",
        "pauses": "server.pauses",
        "pause_overflow": "server.pause_overflow",
        "meta_zones": "server.meta_zones",
        "meta_view_addresses": "server.meta_view_addresses",
        "pipeline_records_in": "trace.pipeline_records_in",
        "pipeline_records_out": "trace.pipeline_records_out",
        "pipeline_chunks": "trace.pipeline_chunks",
        "pipeline_skipped": "trace.pipeline_skipped",
        "pipeline_worker_seconds": volatile("trace.pipeline_worker_seconds"),
        "sim_time": "scheduler.sim_time",
        "events_processed": "scheduler.events_processed",
        "pending_events": "scheduler.pending_events",
        "wall_time": volatile("scheduler.wall_time"),
        "events_per_wall_sec": volatile("scheduler.events_per_wall_sec"),
        "sim_wall_ratio": volatile("scheduler.sim_wall_ratio"),
        "dispatch_lag": volatile("replay.dispatch_lag"),
        "wall_seconds": volatile("replay.wall_seconds"),
        "wall_qps": volatile("replay.wall_qps"),
    }
    # Per-event distributions, attribute -> metric name; sites call
    # ``obs.<attribute>.record(value)``.
    HISTOGRAMS = {
        "transit_time": "transport.wire.transit_time",
        "distributor_queue_lag": "replay.distributor_queue_lag",
        "heap_depth": "scheduler.heap_depth",
    }

    def __init__(self):
        zero_counters(self)
        for attr, name in self.HISTOGRAMS.items():
            setattr(self, attr, Histogram(name))
        self.tracer = Tracer()

    def snapshot(self, include_volatile: bool = False) -> dict:
        """Grouped snapshot: ``{subsystem: {metric: value}}`` plus the
        trace summary.  Every declared row is there, zero (or an empty
        histogram) when idle.  Deterministic unless *include_volatile*
        pulls in wall-clock rows."""
        flat = collect((Observer,), (self,), include_volatile)
        for attr, name in self.HISTOGRAMS.items():
            flat[name] = getattr(self, attr).snapshot()
        grouped = group_metrics(flat)
        # Merge, don't overwrite: the trace.pipeline_* rows share the
        # "trace" group with the tracer summary.
        grouped["trace"].update(self.tracer.snapshot())
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
