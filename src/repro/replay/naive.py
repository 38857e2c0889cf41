"""Naive replay baseline (dnsperf/tcpreplay-style).

The paper's related-work systems "do not carefully track timing" — they
replay each record after its nominal offset without compensating for
accumulated input-processing delay, from a single host and a single
socket, with no same-source stickiness.  This baseline exists so the
evaluation can show what LDplayer's ΔT tracking buys: the naive
replayer's queries drift late by the accumulated input delay, and its
single socket destroys per-source connection semantics.

It is a feeder of the one :class:`~repro.replay.querier.Querier`: the
client protocol (ids, matching, accounting) is the querier's, and what
makes the baseline naive is the schedule it feeds and the host seam it
gives the querier — one UDP socket for every source, as the live
backend's ``_LoopHost`` gives its queriers.
"""

from __future__ import annotations

from repro.netsim.host import Host
from repro.netsim.jitter import SendPathModel
from repro.replay.querier import Querier, Results
from repro.trace.pipeline import as_trace

PER_RECORD_INPUT_DELAY = 40e-6  # unpipelined parse+build per record


class _OneSocketHost:
    """The querier's host seam over *host*: its clock, a modelled send
    path, and the same UDP socket for every emulated source."""

    def __init__(self, host: Host):
        self.name = host.name
        self.scheduler = host.scheduler
        self.sendpath = SendPathModel(seed=1)
        self._sock = host.udp_socket()

    def udp_socket(self):
        return self._sock


class NaiveReplayer:
    """Single-host, single-socket, no-time-correction replayer."""

    def __init__(self, host: Host, server_addr: str):
        self.host = host
        self.querier = Querier(_OneSocketHost(host), server_addr,
                               name=f"naive@{host.name}")

    @property
    def results(self) -> Results:
        return self.querier.results

    def run(self, trace) -> Results:
        """*trace* may be a Trace, a TracePipeline, or any iterable of
        records.  Every record goes out over the one UDP socket,
        whatever its original transport."""
        records = as_trace(trace).sorted().records
        if not records:
            return self.results
        scheduler = self.host.scheduler
        sendpath = self.querier.sendpath
        t0 = records[0].time
        cumulative_input = 0.0
        for record in records:
            cumulative_input += PER_RECORD_INPUT_DELAY
            # No compensation: nominal offset PLUS accumulated delay.
            offset = (record.time - t0) + cumulative_input
            slop = sendpath.timer_slop(offset)
            if record.proto != "udp":
                record = record.with_(proto="udp")
            scheduler.after(max(0.0, offset + slop), self.querier.send,
                            record, scheduler.now + offset)
        return self.results
