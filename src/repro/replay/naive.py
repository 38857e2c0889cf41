"""Naive replay baseline (dnsperf/tcpreplay-style).

The paper's related-work systems "do not carefully track timing" — they
replay each record after its nominal offset without compensating for
accumulated input-processing delay, from a single host and a single
socket, with no same-source stickiness.  This baseline exists so the
evaluation can show what LDplayer's ΔT tracking buys: the naive
replayer's queries drift late by the accumulated input delay, and its
single socket destroys per-source connection semantics.
"""

from __future__ import annotations

from repro.dns.constants import DNS_PORT
from repro.dns.message import Message
from repro.dns.wire import WireError
from repro.netsim.host import Host
from repro.netsim.jitter import SendPathModel
from repro.replay.querier import QueryResult
from repro.trace.pipeline import as_trace

PER_RECORD_INPUT_DELAY = 40e-6  # unpipelined parse+build per record


class NaiveReplayer:
    """Single-host, single-socket, no-time-correction replayer."""

    def __init__(self, host: Host, server_addr: str):
        self.host = host
        self.server_addr = server_addr
        self.sendpath = SendPathModel(seed=1)
        self.results: list[QueryResult] = []
        self._pending: dict[int, QueryResult] = {}
        self._sock = host.udp_socket()
        self._sock.on_datagram = self._on_response
        self._seq = 0

    def run(self, trace) -> list[QueryResult]:
        """*trace* may be a Trace, a TracePipeline, or any iterable of
        records."""
        records = as_trace(trace).sorted().records
        if not records:
            return []
        t0 = records[0].time
        cumulative_input = 0.0
        for record in records:
            cumulative_input += PER_RECORD_INPUT_DELAY
            # No compensation: nominal offset PLUS accumulated delay.
            offset = (record.time - t0) + cumulative_input
            slop = self.sendpath.timer_slop(offset)
            self.host.scheduler.after(max(0.0, offset + slop),
                                      self._send, record,
                                      self.host.scheduler.now + offset)
        return self.results

    def _send(self, record, scheduled: float) -> None:
        self._seq = (self._seq + 1) & 0xFFFF
        message = record.to_message()
        message.msg_id = self._seq
        result = QueryResult(record=record,
                             send_time=self.host.scheduler.now,
                             scheduled_time=scheduled)
        self.results.append(result)
        self._pending[self._seq] = result
        self._sock.sendto(message.to_wire(), self.server_addr, DNS_PORT)

    def _on_response(self, payload: bytes, src: str, sport: int) -> None:
        try:
            message = Message.from_wire(payload)
        except WireError:
            return
        result = self._pending.pop(message.msg_id, None)
        if result is not None:
            result.response_time = self.host.scheduler.now
            result.response_size = len(payload)
            result.rcode = message.rcode
