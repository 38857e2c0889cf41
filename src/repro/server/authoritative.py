"""Authoritative DNS server application (simulated-backend transports).

Binds UDP and TCP (and optionally TLS) on a simulated host, serves one
or more zones — optionally behind split-horizon views — and implements
the response-building rules the zone lookup demands: referrals without
AA, NXDOMAIN with the SOA, glue in additional, EDNS echo, UDP
truncation, and DNSSEC records when the query sets DO.

The answering logic itself lives in the transport-independent
:class:`~repro.server.responder.DnsResponder`; this class adds the
simulated transports, the resource meter, the worker-pool model, and
the pause/resume fault hooks.  The live backend
(:mod:`repro.replay.backends.live`) serves the same responder over real
``asyncio`` sockets.

This is the stand-in for BIND/NSD in the paper's experiments; the
"optimization" that makes a naive multi-zone server wrong for hierarchy
emulation (§2.4: deepest-matching zone answers directly, skipping
referral round trips) is faithfully present — that is precisely what the
views + proxies exist to defeat.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable

from repro.dns.constants import DNS_PORT, QUIC_PORT, TLS_PORT
from repro.dns.zone import Zone
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.host import Host
from repro.netsim.quic import QuicServer
from repro.netsim.tls import TlsConnection
from repro.server.responder import DnsResponder, QueryLogEntry
from repro.server.views import ViewSelector

__all__ = ["AuthoritativeServer", "QueryLogEntry", "WorkerPool",
           "TLS_PORT", "QUIC_PORT"]


class WorkerPool:
    """Optional processing-delay model: the paper runs NSD with 16
    worker processes (§5.2.1).  When enabled, each query occupies the
    earliest-free worker for its service time, so responses queue once
    offered load exceeds capacity — the mechanism that makes overload
    (e.g. the DoS what-if) degrade latency instead of being free."""

    def __init__(self, workers: int = 16):
        self.workers = workers
        self._free_at = [0.0] * workers

    def admit(self, now: float, service_time: float) -> float:
        """Returns when the response is ready to send."""
        index = min(range(self.workers), key=lambda i: self._free_at[i])
        start = max(now, self._free_at[index])
        done = start + service_time
        self._free_at[index] = done
        return done


class AuthoritativeServer(DnsResponder):
    """A DNS server process bound to a simulated host."""

    COUNTERS = {**DnsResponder.COUNTERS,
                "_pause_dropped": "server.pause_dropped"}

    def __init__(self, host: Host, zones: list[Zone] | None = None,
                 views: ViewSelector | None = None,
                 tcp_idle_timeout: float | None = 20.0,
                 nagle: bool = True,
                 worker_pool: WorkerPool | None = None,
                 log_queries: bool = False,
                 answer_cache: bool = True,
                 overload=None):
        self.host = host
        super().__init__(zones=zones, views=views,
                         log_queries=log_queries,
                         answer_cache=answer_cache, overload=overload)
        self.tcp_idle_timeout = tcp_idle_timeout
        self.nagle = nagle
        self.worker_pool = worker_pool
        # Admission drain: one scheduled event at a time pulls queued
        # queries at worker-pool pace (see _schedule_drain).
        self._drain_pending = False
        # Pause/resume hook (netsim.faults ServerPause): while paused,
        # arriving queries are buffered like a SIGSTOP'd process's
        # socket backlog and handled on resume; past the limit they are
        # dropped like an overflowing kernel buffer.
        self.paused = False
        self.pause_backlog_limit = 4096
        self._pause_backlog: list[Callable[[], None]] = []
        host.apps.append(self)
        # Loading zones costs memory, like a real server's zone DB: each
        # (view, zone) pair is charged, each distinct zone sized once.
        loaded = Counter(z for v in self.views.views for z in v.zones)
        self._zone_memory = sum(z.estimated_memory() * copies
                                for z, copies in loaded.items())
        host.meter.alloc(host.meter.cost.server_base + self._zone_memory)
        self._udp = host.udp_socket(DNS_PORT)
        self._udp.on_datagram = self._on_udp
        host.tcp_listen(DNS_PORT, partial(self._on_stream_connection, "tcp"))
        host.tcp_listen(TLS_PORT, partial(self._on_stream_connection, "tls"))
        self.quic_server = QuicServer(
            host, QUIC_PORT, self._on_quic_connection,
            idle_timeout=self.tcp_idle_timeout)

    # -- backend hooks (see DnsResponder) -------------------------------

    def _now(self) -> float:
        return self.host.scheduler.now

    def _obs(self):
        return self.host.scheduler.obs

    # -- transports -----------------------------------------------------

    def _on_udp(self, payload: bytes, src: str, sport: int) -> None:
        if self.paused:
            self._buffer_while_paused(
                lambda: self._on_udp(payload, src, sport))
            return
        if self.admission_queue is not None:
            # Graceful degradation: triage costs one packet's CPU, the
            # full query cost is only paid when the queue drains —
            # that is what makes soft-limit REFUSED cheap under flood.
            self.host.meter.charge_cpu(
                self.host.meter.cost.generic_packet)
            status, refusal = self.admission_offer(
                payload, (payload, src, sport))
            if status == "refused":
                if refusal is not None:
                    self._udp.sendto(refusal, src, sport)
                return
            self._schedule_drain()
            return
        self.host.meter.charge_cpu(self.host.meter.cost.udp_query)
        self._serve_udp(payload, src, sport)

    def _serve_udp(self, payload: bytes, src: str, sport: int) -> None:
        wire = self.reply_wire("udp", payload, src, sport)
        if wire is not None:
            if self.worker_pool is not None:
                ready = self.worker_pool.admit(
                    self.host.scheduler.now,
                    self.host.meter.cost.udp_query)
                self.host.scheduler.at(ready, self._udp.sendto, wire,
                                       src, sport)
            else:
                self._udp.sendto(wire, src, sport)

    def _schedule_drain(self) -> None:
        """Keep exactly one drain event in flight, timed to when the
        worker pool next frees up — queued queries are processed at
        pool pace, not arrival pace."""
        if self._drain_pending or not self.admission_queue:
            return
        self._drain_pending = True
        now = self.host.scheduler.now
        ready = now
        if self.worker_pool is not None:
            ready = max(now, min(self.worker_pool._free_at))
        self.host.scheduler.at(ready, self._drain_admitted)

    def _drain_admitted(self) -> None:
        self._drain_pending = False
        if self.paused or not self.admission_queue:
            return
        payload, src, sport = self.admission_pop()
        self.host.meter.charge_cpu(self.host.meter.cost.udp_query)
        self._serve_udp(payload, src, sport)
        self._schedule_drain()

    def _on_stream_connection(self, proto: str, conn) -> None:
        """Accept a TCP or TLS connection; what differs between the two
        (session, per-query CPU cost, send target) is bound here, once."""
        conn.nagle = self.nagle
        if self.tcp_idle_timeout is not None:
            conn.set_idle_timeout(self.tcp_idle_timeout)
        session = TlsConnection.server(conn) if proto == "tls" else conn
        cost = self.host.meter.cost
        session.on_data = LengthPrefixFramer(partial(
            self._on_stream_message, proto, conn, session.send,
            cost.tls_query if proto == "tls" else cost.tcp_query)).feed

    def _on_stream_message(self, proto: str, conn, send, cost: float,
                           wire: bytes) -> None:
        if self.paused:
            self._buffer_while_paused(partial(
                self._on_stream_message, proto, conn, send, cost, wire))
            return
        self.host.meter.charge_cpu(cost)
        out = self.reply_wire(proto, wire, conn.raddr, conn.rport)
        if out is not None and conn.state == "ESTABLISHED":
            send(frame_message(out))

    def _on_quic_connection(self, conn) -> None:
        def on_stream(stream_id: int, framed: bytes) -> None:
            # Each DoQ stream carries one length-prefixed message.
            framer = LengthPrefixFramer(
                lambda wire: self._quic_reply(conn, stream_id, wire))
            framer.feed(framed)

        conn.on_stream_data = on_stream

    def _quic_reply(self, conn, stream_id: int, wire: bytes) -> None:
        if self.paused:
            self._buffer_while_paused(
                lambda: self._quic_reply(conn, stream_id, wire))
            return
        self.host.meter.charge_cpu(self.host.meter.cost.tls_query)
        out = self.reply_wire("quic", wire, conn.peer_addr,
                               conn.peer_port)
        if out is not None:
            conn.send_stream(stream_id, frame_message(out))

    # -- pause / resume (fault injection) -------------------------------

    def pause(self) -> None:
        """Stop handling queries; arrivals buffer up to the backlog
        limit (SIGSTOP semantics, driven by netsim.faults)."""
        self.paused = True
        obs = self._obs()
        if obs is not None:
            obs.pauses += 1

    def resume(self, drop_backlog: bool = False) -> None:
        """Handle (or with *drop_backlog*, discard) everything buffered
        while paused, then return to normal operation."""
        self.paused = False
        backlog, self._pause_backlog = self._pause_backlog, []
        if drop_backlog:
            self._pause_dropped += len(backlog)
            self._schedule_drain()
            return
        for thunk in backlog:
            thunk()
        self._schedule_drain()

    def _buffer_while_paused(self, thunk: Callable[[], None]) -> None:
        if len(self._pause_backlog) >= self.pause_backlog_limit:
            self._pause_dropped += 1
            obs = self._obs()
            if obs is not None:
                obs.pause_overflow += 1
            return
        self._pause_backlog.append(thunk)

    # -- instrumentation ------------------------------------------------

    def close(self) -> None:
        self.host.meter.free(self.host.meter.cost.server_base
                             + self._zone_memory)
