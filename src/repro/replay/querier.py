"""Queriers: the processes that actually talk DNS to the server (§2.6).

A querier owns network sockets on its client-instance host and replays
the query records routed to it:

* **per-source sockets** — all queries from the same original source IP
  use the same socket/connection while it is open; new sources open new
  sockets.  The server therefore "observes queries from the same set of
  host addresses but with a range of different port numbers, which
  emulates different queries from the same sources";
* **connection reuse** — TCP connections, TLS sessions and QUIC
  connections are kept per source and reused until the server's idle
  timeout closes them; the next query from that source pays a fresh
  handshake (QUIC's rides 0-RTT once the source holds a ticket);
* **timing** — each record is scheduled with the ΔT rule plus the
  host's modelled timer slop, and the send serializes through the
  querier process's send-path occupancy (jitter.py);
* **latency measurement** — every query is matched to its response
  (message id per socket) and its latency recorded, feeding Fig 15;
* **resilience** (opt-in via :class:`ResilienceConfig`) — per-query
  timeouts, exponential-backoff UDP retransmission with the same
  message id (RFC 1035 §4.2.1 semantics), TC-bit fallback to TCP
  (RFC 7766), and one reconnect-and-resend for stream channels (TCP,
  TLS and QUIC alike) that die with queries outstanding.  Degradation
  is recorded on the :class:`QueryResult`
  (``attempts``/``timed_out``/``fell_back``) instead of silently
  stranding queries.

Configuration rides in a single keyword-only :class:`QuerierConfig`.

This is the only client protocol implementation: the querier talks to
the world through a narrow host seam — ``host.scheduler`` (``now``,
``after``, ``at``, ``obs``), ``host.sendpath``, ``host.udp_socket()``
(``sendto``, ``on_datagram``), ``host.tcp_connect()`` (``send``,
``close``, ``state``, ``nagle``, ``on_data``, ``on_closed``) and
``host.name`` — which the simulator's :class:`~repro.netsim.host.Host`
implements on the DES and :mod:`repro.replay.backends.live` implements
on asyncio sockets (docs/BACKENDS.md).  QUIC, simulated only, opens
its sessions from a :class:`~repro.netsim.quic.QuicClient` on the host.

Supervision hooks (see :mod:`repro.replay.supervisor`): a querier can
:meth:`crash`, after which it marks every awaiting-response query
``failed_over``, stops sending, and parks records routed to it as
*orphans* for the supervisor to re-dispatch to a surviving querier.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from repro.dns.constants import (DNS_PORT, EDNS_COOKIE, QUIC_PORT,
                                 TLS_PORT)
from repro.dns.message import (Edns, Message, get_edns_option, read_header,
                               set_edns_option)
from repro.dns.wire import WireError
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.host import Host
from repro.netsim.jitter import SendPathModel
from repro.netsim.quic import QuicClient
from repro.netsim.tls import TlsConnection
from repro.obs.report import zero_counters
from repro.replay.timing import ReplayTimer
from repro.server.overload import client_cookie
from repro.trace.record import QueryRecord


@dataclass(frozen=True)
class ResilienceConfig:
    """Client-side fault tolerance knobs (off when ``None`` is passed).

    ``timeout`` is the wait after the first send; each further wait is
    multiplied by ``backoff``.  ``max_retries`` counts UDP
    retransmissions beyond the first send, so a query is attempted at
    most ``1 + max_retries`` times before it is marked ``timed_out``."""

    timeout: float = 2.0
    max_retries: int = 3
    backoff: float = 2.0
    tcp_fallback: bool = True     # TC bit -> retry the query over TCP

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(
                f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")

    def wait_for(self, attempt: int) -> float:
        """Timeout after send *attempt* (1-based): t * b^(attempt-1)."""
        return self.timeout * self.backoff ** (attempt - 1)


@dataclass
class QuerierConfig:
    """All per-querier knobs in one object:
    ``Querier(host, addr, config=QuerierConfig(...))``."""

    jitter_seed: int | None = None
    dns_port: int = DNS_PORT
    nagle: bool = True
    resilience: ResilienceConfig | None = None
    # RFC 7873: attach a COOKIE option to every query (per emulated
    # source), learning the server cookie from each source's responses.
    cookies: bool = False
    # ReplayConfig.fast (§2.6: "disable time tracking and replay as
    # fast as possible"): records are sent as they arrive, no ΔT timers.
    fast: bool = False


@dataclass(slots=True)
class QueryResult:
    record: QueryRecord
    send_time: float
    scheduled_time: float
    response_time: float | None = None
    response_size: int = 0
    rcode: int | None = None
    attempts: int = 1             # sends performed (retransmits included)
    timed_out: bool = False       # gave up after exhausting the policy
    fell_back: bool = False       # TC bit moved the query from UDP to TCP
    failed_over: bool = False     # was awaiting a response when its
    #                               querier crashed (answer lost)

    @property
    def latency(self) -> float | None:
        if self.response_time is None:
            return None
        return self.response_time - self.send_time

    @property
    def answered(self) -> bool:
        return self.response_time is not None


@dataclass(slots=True)
class _Inflight:
    """Retransmission bookkeeping for one pending query."""

    wire: bytes                   # datagram (UDP) or framed bytes (stream)
    timer: object | None = None   # scheduler Event for the timeout
    resent: bool = False          # stream reconnect-resend already spent

    def cancel(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


@dataclass(eq=False)
class _Channel:
    """One socket or connection and the queries awaiting a response on
    it.  Every transport keeps the same two tables keyed by message id,
    so a channel's pending keys are exactly the ids its next query must
    avoid."""

    session: object      # UdpSocket, TcpConnection, TlsConnection or
    #                      QuicConnection
    conn: object = None  # the kernel's TcpConnection under a TCP or TLS
    #                      session (QUIC lives in the process: None)
    key: tuple = ()      # (src, proto) of a stream channel
    pending: dict[int, QueryResult] = field(default_factory=dict)
    inflight: dict[int, _Inflight] = field(default_factory=dict)
    established: bool = True
    backlog: list[bytes] = field(default_factory=list)


def attach_cookie(message, src: str,
                  server_cookies: dict[str, bytes]) -> None:
    """RFC 7873 client side: put a COOKIE option on *message* — the
    deterministic client cookie for the emulated *src*, plus the server
    cookie previously learned from that source's responses (none on
    first contact)."""
    if message.edns is None:
        message.edns = Edns()
    cookie = client_cookie(src)
    server = server_cookies.get(src)
    if server is not None:
        cookie += server
    message.edns.options = set_edns_option(
        message.edns.options, EDNS_COOKIE, cookie)


def learn_cookie(message, src: str,
                 server_cookies: dict[str, bytes]) -> None:
    """Remember the server cookie echoed in a response so *src*'s next
    query can prove it received this one (RFC 7873 §5.3)."""
    if message.edns is None:
        return
    data = get_edns_option(message.edns.options, EDNS_COOKIE)
    if data is not None and 16 <= len(data) <= 40:
        server_cookies[src] = data[8:]


class Querier:
    """One querier process on a client-instance host."""

    # Declared counters (repro.obs.report): attribute -> report name.
    COUNTERS = {
        "sent": "replay.queries_sent",
        "responses": "replay.responses",
        "unanswered_at_close": "replay.unanswered_at_close",
        # Resilience accounting (zero without a ResilienceConfig).
        "timeouts": "replay.timed_out",
        "retransmits": "replay.retransmits",
        "tcp_fallbacks": "replay.tcp_fallbacks",
        "reconnects": "replay.reconnects",
        "recovered": "replay.recovered",
        "malformed": "replay.malformed_responses",
        # Queries that were awaiting a response when this querier
        # crashed (repro.replay.supervisor).
        "failed_over": "replay.failed_over",
    }

    def __init__(self, host: Host, server_addr: str, name: str = "",
                 config: QuerierConfig | None = None):
        self.config = config = config or QuerierConfig()
        self.host = host
        self.server_addr = server_addr
        self.name = name or f"querier@{host.name}"
        self.dns_port = config.dns_port
        self.nagle = config.nagle
        self.resilience = config.resilience
        self.cookies = config.cookies
        self.fast = config.fast
        # Server cookies learned per emulated source (RFC 7873 §5.2),
        # one per source for the querier's lifetime: a source's first
        # query carries its client cookie alone.
        self._server_cookies: dict[str, bytes] = {}
        self.timer = ReplayTimer()
        self.sendpath = (SendPathModel(seed=config.jitter_seed)
                         if config.jitter_seed is not None
                         else host.sendpath)
        self.results: list[QueryResult] = []
        zero_counters(self)
        # Supervision state (repro.replay.supervisor): orphans are
        # records routed here after (or scheduled before) the crash,
        # awaiting re-dispatch.
        self.crashed = False
        self._orphans: list[QueryRecord] = []
        # Timer events of the records handed over by the distributor
        # whose ΔT send has not fired yet — the D->Q queue bounded by
        # supervision — in arrival order, so crash() can cancel and
        # orphan the whole backlog at once.  Keyed by a per-querier
        # sequence number: a trace may hand over one record object many
        # times, and each hand-over is its own send.
        self._send_timers: dict[int, object] = {}
        self._send_seq = 0
        # One channel per socket.  The simulated host opens a socket
        # per source; a host may instead hand every source the same
        # one (thousands of emulated sources over one real socket), so
        # the sources of a socket share its channel and its id space.
        self._udp_channels: dict[str, _Channel] = {}       # by src
        self._udp_by_socket: dict[object, _Channel] = {}
        # TCP, TLS and QUIC channels, by (src, proto).
        self._streams: dict[tuple[str, str], _Channel] = {}
        # One QUIC client per emulated source: per-source sockets AND
        # per-source session-ticket state (a source's 0-RTT eligibility
        # must not leak to other sources).
        self._quic_clients: dict[str, QuicClient] = {}
        # Called with each result as it becomes terminal (see _settle):
        # how a feeder bounds the queries it keeps in flight.
        self.on_settled: Callable[[QueryResult], None] | None = None
        # How long a query without a resilience policy may wait before
        # it is given up as unanswered.  None on the DES, where a run
        # ends at a known time and what is still open is accounted at
        # close; a wall-clock driver sets it so that a lost reply can
        # neither wedge the replay nor be accepted arbitrarily late.
        self.give_up_after: float | None = None
        self._msg_seq = 0
        self._last_scheduled: float | None = None
        # Online invariant hook (repro.check.invariants): when the
        # engine runs with ReplayConfig(check=True) this points at the
        # InvariantChecker, which validates each message-id allocation.
        self.check = None

    # -- control plane ------------------------------------------------------

    def handle_sync(self, trace_t1: float) -> None:
        # First sync wins: with split input streams several controllers
        # broadcast; re-syncing would shift the timing baseline mid-run.
        if not self.timer.synchronized:
            self.timer.sync(trace_t1, self.host.scheduler.now)

    def handle_record(self, record: QueryRecord) -> None:
        """A record arrives from the distributor: schedule its send
        by the ΔT rule — or, in fast mode, send it at once."""
        if self.crashed:
            self._orphans.append(record)
            return
        now = self.host.scheduler.now
        if self.fast:
            self.send(record, scheduled=now)
            return
        if not self.timer.synchronized:
            # Defensive: sync on first record if the broadcast was lost.
            self.timer.sync(record.time, now)
        delay = self.timer.delay_for(record.time, now)
        target = now + delay
        interval = (target - self._last_scheduled
                    if self._last_scheduled is not None else None)
        self._last_scheduled = target
        if delay <= 0.0:
            self.send(record, scheduled=now)
            return
        slop = self.sendpath.timer_slop(delay, interval=interval)
        self._send_seq = seq = self._send_seq + 1
        self._send_timers[seq] = self.host.scheduler.after(
            max(0.0, delay + slop), self._send_later, record, target, seq)

    def backlog_depth(self) -> int:
        """Records delivered by the distributor whose ΔT-scheduled
        send has not fired yet (the D->Q queue)."""
        return len(self._send_timers)

    # -- sending ------------------------------------------------------------------

    def _send_later(self, record: QueryRecord, scheduled: float,
                    seq: int) -> None:
        """A ΔT timer fired: leave the backlog, send."""
        del self._send_timers[seq]
        self.send(record, scheduled)

    def send(self, record: QueryRecord, scheduled: float) -> None:
        """Send *record* now (through the send path's occupancy);
        *scheduled* is when it was due.  Entry point for a feeder that
        paces the trace itself."""
        if self.crashed:
            # A send scheduled before the crash: the record was never
            # on the wire, so it is re-dispatchable, not failed_over.
            self._orphans.append(record)
            return
        actual = self.sendpath.occupy(self.host.scheduler.now)
        if actual > self.host.scheduler.now:
            self.host.scheduler.at(actual, self._send_now, record,
                                   scheduled)
        else:
            self._send_now(record, scheduled)

    def _next_msg_id(self, taken) -> int:
        """Advance the id sequence, skipping ids still pending for the
        same destination socket/channel: a wrapped id colliding with an
        in-flight query would complete the wrong QueryResult."""
        for _ in range(0x10000):
            self._msg_seq = (self._msg_seq + 1) & 0xFFFF
            if self._msg_seq not in taken:
                return self._msg_seq
        raise RuntimeError(f"{self.name}: 65536 queries pending on one "
                           "socket; no free message id")

    def _taken_ids(self, record: QueryRecord):
        """The ids pending on the channel *record* will go out on."""
        if record.proto == "udp":
            channel = self._udp_channel_for(record.src)
        else:
            channel = self._streams.get((record.src, record.proto))
        return channel.pending.keys() if channel is not None else ()

    def _query_wire(self, record: QueryRecord, msg_id: int) -> bytes:
        """The one place query bytes are made.  A question that repeats
        is encoded once (:meth:`QueryRecord.query_wire`); only the
        COOKIE option, which varies per source and over time, needs a
        :class:`Message` built per send."""
        if not self.cookies:
            return record.query_wire(msg_id)
        message = record.to_message()
        message.msg_id = msg_id
        attach_cookie(message, record.src, self._server_cookies)
        return message.to_wire()

    def _send_now(self, record: QueryRecord, scheduled: float) -> None:
        if self.crashed:
            self._orphans.append(record)
            return
        # A datagram's channel is resolved once, here, for the id
        # scan and the send alike.
        udp = (self._udp_channel_for(record.src)
               if record.proto == "udp" else None)
        msg_id = self._next_msg_id(udp.pending.keys() if udp is not None
                                   else self._taken_ids(record))
        wire = self._query_wire(record, msg_id)
        if self.check is not None:
            self.check.on_msg_id(self, record, msg_id)
            self.check.on_query_wire(self, record, msg_id, wire)
        now = self.host.scheduler.now
        result = QueryResult(record, now, scheduled)
        self.results.append(result)
        self.sent += 1
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.tracer.emit("querier.send", scheduled, now,
                            detail=record.proto)
        if udp is not None:
            self._send_udp(udp, wire, msg_id, result)
        else:
            self._send_framed(self._channel_for(record.src, record.proto),
                              wire, msg_id, result)

    # -- crash / failover (repro.replay.supervisor) -------------------------------

    def crash(self) -> None:
        """The querier process dies.

        Every query awaiting a response is marked ``failed_over`` (its
        answer, if any, is lost with the process); retry timers are
        cancelled so a dead querier never retransmits; stream
        connections are abandoned.  Records that were routed here but
        not yet sent become orphans for the supervisor to re-dispatch —
        without supervision they simply strand, which is the pre-
        supervision behavior the regression tests pin."""
        if self.crashed:
            return
        self.crashed = True
        # ΔT timers for records not yet on the wire: cancel each and
        # orphan its record now, so the supervisor's one-shot drain at
        # detection time sees the whole backlog — waiting for the
        # timers to fire into the crashed guard would orphan them too
        # late to re-dispatch.
        for event in self._send_timers.values():
            event.cancel()
            self._orphans.append(event.args[0])
        self._send_timers.clear()
        for channel in self._channels():
            for result in channel.pending.values():
                self._fail_over_result(result)
            for inflight in channel.inflight.values():
                inflight.cancel()
            channel.pending.clear()
            channel.inflight.clear()
        for channel in self._streams.values():
            # Abandon, don't "recover": the process owning the session
            # is gone.  The kernel closes a TCP connection (FIN); QUIC
            # state died with the process, so its peer is told nothing.
            channel.session.on_closed = None
            if channel.conn is not None:
                channel.conn.on_closed = None
                channel.conn.close()
        self._streams.clear()

    def _fail_over_result(self, result: QueryResult) -> None:
        result.failed_over = True
        self.failed_over += 1

    def take_orphans(self) -> list[QueryRecord]:
        """Drain the records stranded by a crash (for re-dispatch)."""
        orphans, self._orphans = self._orphans, []
        return orphans

    # -- pending tables and the terminal transition -----------------------------------

    def _expect(self, channel: _Channel, msg_id: int, result: QueryResult,
                wire: bytes, on_timeout, *args) -> None:
        """Enter *result* in *channel*'s tables under *msg_id* and, when
        anything bounds its wait, start the clock: *on_timeout* fires
        with *args* unless the entry is resolved first."""
        channel.pending[msg_id] = result
        wait = (self.resilience.wait_for(result.attempts)
                if self.resilience is not None else self.give_up_after)
        if wait is not None:
            inflight = channel.inflight[msg_id] = _Inflight(wire=wire)
            inflight.timer = self.host.scheduler.after(
                wait, on_timeout, *args)

    def _resolve(self, channel: _Channel,
                 msg_id: int) -> QueryResult | None:
        """Take *msg_id* out of *channel*'s tables and stop its clock;
        returns the result that was pending under it, if any."""
        inflight = channel.inflight.pop(msg_id, None)
        if inflight is not None:
            inflight.cancel()
        return channel.pending.pop(msg_id, None)

    def _settle(self, result: QueryResult, rcode: int | None = None,
                size: int = 0, body: Message | None = None) -> None:
        """The one place a result becomes terminal.  With *rcode* it is
        answered (*body* is the decoded response when cookies are on,
        to learn the server cookie from); without, the wait is over and
        no answer came — a timeout when a resilience policy was
        exhausted, unanswered at close when there is none.  Either way
        it never strands."""
        if rcode is not None:
            if result.attempts > 1 or result.fell_back:
                self.recovered += 1
            result.response_time = self.host.scheduler.now
            result.response_size = size
            result.rcode = rcode
            self.responses += 1
            if body is not None:
                learn_cookie(body, result.record.src, self._server_cookies)
            obs = self.host.scheduler.obs
            if obs is not None:
                obs.tracer.emit("querier.response", result.send_time,
                                result.response_time,
                                detail=result.record.proto)
        elif self.resilience is not None:
            result.timed_out = True
            self.timeouts += 1
        else:
            self.unanswered_at_close += 1
        if self.on_settled is not None:
            self.on_settled(result)

    def _give_up_all(self, channel: _Channel) -> None:
        """*channel* is gone: nothing pending on it can be answered."""
        for msg_id in list(channel.pending):
            self._settle(self._resolve(channel, msg_id))

    def _decode(self, wire: bytes) \
            -> tuple[int, bool, int, Message | None] | None:
        """Read a response: ``(msg_id, tc, rcode, body)``, or None when
        the process is dead or the wire is no response — shorter than a
        header, or QR clear (a reflected query) — which is counted in
        ``malformed``, never swallowed.

        Matching needs the 12-byte header only
        (:func:`repro.dns.message.read_header`, whose docstring covers
        the extended rcode); *body* is the decoded message when cookies
        are on, else None.  Under ``check=True`` the invariant checker
        decodes every accepted response and compares."""
        if self.crashed:
            return None
        try:
            header = msg_id, is_response, tc, rcode = read_header(wire)
            body = Message.from_wire(wire) if self.cookies else None
        except WireError:       # no whole header, or (cookies) a bad body
            is_response = False
        if not is_response:
            self.malformed += 1
            return None
        if self.check is not None:
            self.check.on_response(self, wire, header)
        return msg_id, tc, rcode, body

    # -- UDP ---------------------------------------------------------------------------

    def _udp_channel_for(self, src: str) -> _Channel:
        channel = self._udp_channels.get(src)
        if channel is None:
            sock = self.host.udp_socket()
            channel = self._udp_by_socket.get(sock)
            if channel is None:
                channel = self._udp_by_socket[sock] = _Channel(sock)
                sock.on_datagram = partial(self._on_udp_response, channel)
            self._udp_channels[src] = channel
        return channel

    def _send_udp(self, channel: _Channel, wire: bytes, msg_id: int,
                  result: QueryResult) -> None:
        self._expect(channel, msg_id, result, wire,
                     self._udp_timeout, channel, msg_id)
        channel.session.sendto(wire, self.server_addr, self.dns_port)

    def _udp_timeout(self, channel: _Channel, msg_id: int) -> None:
        result = channel.pending[msg_id]
        policy = self.resilience
        if policy is not None and result.attempts <= policy.max_retries:
            # Retransmit the same datagram — same message id, so a late
            # response to any attempt still matches (RFC 1035 §4.2.1).
            result.attempts += 1
            self.retransmits += 1
            inflight = channel.inflight[msg_id]
            inflight.timer = self.host.scheduler.after(
                policy.wait_for(result.attempts),
                self._udp_timeout, channel, msg_id)
            channel.session.sendto(inflight.wire, self.server_addr,
                                   self.dns_port)
            return
        self._settle(self._resolve(channel, msg_id))

    def _on_udp_response(self, channel: _Channel, payload: bytes,
                         _addr: str, _port: int) -> None:
        response = self._decode(payload)
        if response is None:
            return
        msg_id, tc, rcode, body = response
        result = channel.pending.get(msg_id)
        if result is None:
            return
        if (tc and self.resilience is not None
                and self.resilience.tcp_fallback and not result.fell_back):
            self._fall_back_to_tcp(channel, msg_id, result)
            return
        self._resolve(channel, msg_id)
        self._settle(result, rcode, len(payload), body)

    def _fall_back_to_tcp(self, udp: _Channel, msg_id: int,
                          result: QueryResult) -> None:
        """The UDP answer was truncated: retry this query over the
        source's TCP channel (RFC 7766), keeping the original
        send_time so the measured latency includes the fallback."""
        wire = udp.inflight[msg_id].wire
        self._resolve(udp, msg_id)
        result.fell_back = True
        self.tcp_fallbacks += 1
        channel = self._channel_for(result.record.src, "tcp")
        if msg_id in channel.pending:
            # The id is busy on the TCP channel: re-id the query (the
            # id lives in the first two wire bytes).
            msg_id = self._next_msg_id(channel.pending.keys())
            wire = msg_id.to_bytes(2, "big") + wire[2:]
            if self.check is not None:
                self.check.on_msg_id(self, result.record.with_(
                    proto="tcp"), msg_id, scan=False)
                self.check.on_query_wire(self, result.record, msg_id, wire)
        self._send_framed(channel, wire, msg_id, result)

    # -- TCP / TLS / QUIC -------------------------------------------------------------------

    def _channel_for(self, src: str, proto: str) -> _Channel:
        key = (src, proto)
        channel = self._streams.get(key)
        if channel is not None and channel.session.state in (
                "ESTABLISHED", "SYN_SENT", "SYN_RCVD"):
            return channel
        if channel is not None:
            # Dead without a close callback: reap, never reconnect.
            del self._streams[key]
            self._give_up_all(channel)
        channel = self._open_channel(proto, key)
        self._streams[key] = channel
        return channel

    def _open_channel(self, proto: str, key: tuple) -> _Channel:
        """A fresh channel for *key* on a new connection: TCP, TLS over
        TCP, or QUIC from the source's client (whose first send decides
        0-RTT).  Every session offers the same seam: ``send``,
        ``on_data``, ``on_closed``, ``state`` and ``close``."""
        tls = proto == "tls"
        if proto == "quic":
            client = self._quic_clients.get(key[0])
            if client is None:
                client = self._quic_clients[key[0]] = QuicClient(self.host)
            conn, session = None, client.open(self.server_addr, QUIC_PORT)
        else:
            conn = self.host.tcp_connect(
                self.server_addr, TLS_PORT if tls else self.dns_port)
            conn.nagle = self.nagle
            session = TlsConnection.client(conn) if tls else conn
        channel = _Channel(session, conn=conn, key=key,
                           established=not tls)
        session.on_data = LengthPrefixFramer(
            lambda wire: self._on_stream_response(channel, wire)).feed
        session.on_closed = lambda: self._on_channel_closed(channel)
        if tls:
            session.on_established = lambda: self._flush_tls(channel)
        return channel

    def _flush_tls(self, channel: _Channel) -> None:
        channel.established = True
        for framed in channel.backlog:
            channel.session.send(framed)
        channel.backlog.clear()

    def _send_framed(self, channel: _Channel, wire: bytes, msg_id: int,
                     result: QueryResult) -> None:
        framed = frame_message(wire)
        # The timer resolves the channel by key when it fires: a
        # reconnect may have moved this query to a fresh channel.
        self._expect(channel, msg_id, result, framed,
                     self._stream_timeout, channel.key, msg_id)
        if channel.established:
            channel.session.send(framed)
        else:
            channel.backlog.append(framed)

    def _stream_timeout(self, key: tuple, msg_id: int) -> None:
        channel = self._streams.get(key)
        if channel is None:
            return
        result = self._resolve(channel, msg_id)
        if result is None:
            return
        self._settle(result)
        if channel.session.state != "ESTABLISHED":
            # Connect timeout: the handshake is wedged (neither the
            # fabric's TCP nor QUIC retransmits), so abandon the
            # connection; its close triggers the reconnect path for
            # whatever else is pending on the channel.
            channel.session.close()

    def _on_stream_response(self, channel: _Channel, wire: bytes) -> None:
        response = self._decode(wire)
        if response is None:
            return
        msg_id, _tc, rcode, body = response
        result = self._resolve(channel, msg_id)
        if result is not None:
            self._settle(result, rcode, len(wire), body)

    def _on_channel_closed(self, channel: _Channel) -> None:
        if self._streams.get(channel.key) is not channel:
            return      # already reaped, and maybe replaced, at a send
        del self._streams[channel.key]
        if self.resilience is not None and channel.pending:
            self._recover_channel(channel)
        else:
            self._give_up_all(channel)

    def _recover_channel(self, channel: _Channel) -> None:
        """The channel died with queries outstanding: re-send each of
        them once on a fresh channel; queries that already spent their
        reconnect are accounted as timed out."""
        key = channel.key
        fresh: _Channel | None = None
        for msg_id, result in list(channel.pending.items()):
            inflight = channel.inflight.pop(msg_id)
            inflight.cancel()
            if inflight.resent:
                self._settle(result)
                continue
            if fresh is None:
                fresh = self._channel_for(*key)
            inflight.resent = True
            result.attempts += 1
            self.reconnects += 1
            fresh.pending[msg_id] = result
            fresh.inflight[msg_id] = inflight
            # Restart the per-query clock for the fresh attempt.
            inflight.timer = self.host.scheduler.after(
                self.resilience.wait_for(result.attempts),
                self._stream_timeout, key, msg_id)
            if fresh.established:
                fresh.session.send(inflight.wire)
            else:
                fresh.backlog.append(inflight.wire)
        channel.pending.clear()

    # -- stats -----------------------------------------------------------------------------------

    def latencies(self) -> list[float]:
        return [r.latency for r in self.results if r.latency is not None]

    def answered_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.answered) \
            / len(self.results)

    def _channels(self):
        return chain(self._udp_by_socket.values(),
                     self._streams.values())

    def pending_results(self):
        """Every result awaiting a response, across every transport."""
        for channel in self._channels():
            yield from channel.pending.values()

    def pending_count(self) -> int:
        """Queries currently awaiting a response across every
        transport — zero after a drained resilient run (nothing may
        strand)."""
        return sum(len(channel.pending) for channel in self._channels())
