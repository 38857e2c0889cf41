"""The live backend: replay over real asyncio loopback sockets.

This is LDplayer's actual operating mode — real sockets, real kernel,
wall-clock time — where the simulator backend is the deterministic
model of it.  One :class:`LiveDnsServer` binds a UDP endpoint (a raw
socket drained per event-loop wake-up, :class:`_UdpEndpoint`) and a
TCP stream server on the *same* port number (retrying across
ephemeral ports until a pair is free) and serves the shared
:class:`~repro.server.responder.DnsResponder` answering core — the
same views, answer cache, and response-building rules the simulated
:class:`~repro.server.authoritative.AuthoritativeServer` runs, so the
two backends answer identically by construction.

The client side is the simulator's own
:class:`~repro.replay.querier.Querier` — message ids, retransmission,
TC fallback, reconnect, cookies and result accounting exist once, in
``replay/querier.py`` — running over an asyncio implementation of the
host seam it talks through (:class:`_LoopHost`: a loop-clock scheduler,
one shared UDP socket, LRU-capped stream connections).  What is
live-only is what is about wall-clock I/O: the server's sockets, and
:class:`LiveQuerier`'s feed loop, which paces records with the §2.6 ΔT
rule (:class:`~repro.replay.timing.ReplayTimer`) against the event
loop's monotonic clock and bounds the queries in flight.  Same-source
records stick to one querier (``supervisor.partition``, the sim's
split-input rule).

The report is the ordinary :class:`~repro.replay.engine.ReplayReport`
with the same metric schema as the sim backend; what only wall-clock
I/O has (``replay.wall_qps``, socket-error counts, the deadline flag)
is *volatile*, so default snapshots keep the shared shape.  Determinism
scope: the sim backend is byte-identical per seed; the live backend is
statistically reproducible only (see docs/BACKENDS.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import time
from collections import deque
from dataclasses import dataclass

from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.jitter import NullSendPath
from repro.netsim.resources import ResourceMeter
from repro.obs import Observer, volatile, zero_counters
from repro.replay.backends.base import ReplayBackend
from repro.replay.querier import Querier
from repro.replay.supervisor import partition
from repro.server.responder import DnsResponder
from repro.trace.pipeline import as_trace

_READ_CHUNK = 65536
_MAX_DATAGRAM = 65535   # the largest UDP payload: no read truncates
_UDP_BUF = 1 << 22      # ask for 4 MiB; the kernel clamps to rmem_max
_TCP_CONNECTION_CAP = 64    # open stream connections per querier
_SHUTDOWN_GRACE = 1.0       # server drain window per connection at close
BIND_ATTEMPTS = 8           # draws for a port free on both UDP and TCP


def _grow_udp_buffers(sock: socket.socket) -> None:
    """Time-compressed replays burst far above the default UDP socket
    buffer (a few hundred datagrams on stock Linux); ask for more so
    loopback loss starts at the kernel's ceiling, not the default."""
    with contextlib.suppress(OSError):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _UDP_BUF)
    with contextlib.suppress(OSError):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _UDP_BUF)


class _UdpEndpoint:
    """One UDP socket on the event loop, behind the host seam's
    datagram interface: ``sendto(payload, dst, dport)`` and an
    ``on_datagram(payload, src, sport)`` slot.  The server binds one;
    each querier's host connects one to the server, so the destination
    its ``sendto`` is given is implied.

    A raw non-blocking socket under ``loop.add_reader``: one wake-up
    reads every datagram the kernel has queued, until ``EAGAIN``, where
    an asyncio datagram transport spends a selector pass, a ``Handle``
    and a protocol call on each.  That transport's contracts hold:

    * a recv or send ``OSError`` counts once in the owner's
      ``socket_errors`` (a connected socket reports an ICMP refusal as
      ``ConnectionRefusedError``); the datagram is lost;
    * a send that would block (``EAGAIN``) is queued and flushed in
      order once the socket is writable (``loop.add_writer``), neither
      dropped nor counted;
    * after :meth:`close` a send is a silent no-op — a retransmit timer
      may outlive the socket when the run deadline cuts a replay short.
    """

    def __init__(self, owner, *, local: tuple[str, int] | None = None,
                 remote: tuple[str, int] | None = None):
        # An address literal needs no getaddrinfo, whose resolver
        # libraries alone add ~0.6 MB to the process.
        address = local or remote
        family = socket.AF_INET6 if ":" in address[0] else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            if local is not None:
                sock.bind(address)
            else:
                sock.connect(address)
        except OSError:
            sock.close()
            raise
        _grow_udp_buffers(sock)
        self.on_datagram = None     # set before the loop can deliver one
        self.port: int = sock.getsockname()[1]
        self._owner = owner
        self._sock: socket.socket | None = sock
        self._fd = sock.fileno()
        self._connected = remote is not None
        self._backlog: deque[tuple[bytes, str, int]] = deque()
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(self._fd, self._read_ready)

    def _read_ready(self) -> None:
        while self._sock is not None:      # on_datagram may close us
            try:
                data, addr = self._sock.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:        # drained
                return
            except OSError:
                self._owner.socket_errors += 1
                return
            self.on_datagram(data, addr[0], addr[1])

    def sendto(self, payload: bytes, dst: str, dport: int) -> None:
        if self._sock is None:
            return
        if not self._backlog:
            try:
                self._send(payload, dst, dport)
                return
            except BlockingIOError:
                self._loop.add_writer(self._fd, self._write_ready)
            except OSError:
                self._owner.socket_errors += 1
                return
        self._backlog.append((payload, dst, dport))

    def _send(self, payload: bytes, dst: str, dport: int) -> None:
        if self._connected:
            self._sock.send(payload)
        else:
            self._sock.sendto(payload, (dst, dport))

    def _write_ready(self) -> None:
        backlog = self._backlog
        while backlog:
            try:
                self._send(*backlog[0])
            except BlockingIOError:
                return
            except OSError:
                self._owner.socket_errors += 1
            backlog.popleft()
        self._loop.remove_writer(self._fd)

    def close(self) -> None:
        """Take the socket off the loop and close it.  A datagram still
        queued for send is dropped: only a run's teardown closes, once
        every query has settled or the deadline has cut the run."""
        if self._sock is None:
            return
        self._loop.remove_reader(self._fd)
        self._loop.remove_writer(self._fd)
        self._sock.close()
        self._sock = None
        self._backlog.clear()


@dataclass(frozen=True)
class LiveReplayConfig:
    """Live-backend tuning, carried in ``ReplayConfig.live``.

    ``speed`` divides trace time: 2.0 replays a trace twice as fast as
    recorded (the ΔT rule then paces against the compressed
    timeline).  ``query_timeout`` bounds how long an *unresilient*
    query may wait before it is accounted unanswered — the live analogue
    of stranding at close — so a lossy run can never wedge the replay.
    ``run_deadline`` is a wall-clock hard stop for the whole replay
    (CI safety net); ``None`` trusts the per-query timeouts."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral (with UDP/TCP pair retry)
    speed: float = 1.0
    query_timeout: float = 5.0
    max_inflight: int = 256       # per querier
    run_deadline: float | None = None


class LiveDnsServer:
    """A :class:`DnsResponder` behind real UDP + TCP loopback sockets.

    Both transports share one port number.  With ``port=0`` the kernel
    picks the UDP port and the TCP listener must then land on the same
    number — when another process holds it, the pair is abandoned and
    a fresh ephemeral port is tried, up to :data:`BIND_ATTEMPTS` times.  A
    fixed port that is busy raises immediately (retrying could not
    help)."""

    COUNTERS = {"socket_errors": volatile("replay.socket_errors")}

    def __init__(self, responder: DnsResponder, host: str = "127.0.0.1",
                 port: int = 0, meter: ResourceMeter | None = None,
                 clock=None):
        self.responder = responder
        self.host = host
        self.requested_port = port
        self.meter = meter if meter is not None else ResourceMeter()
        self._clock = clock
        self.port: int | None = None
        self.established = 0          # TCP connections accepted
        zero_counters(self)
        self._udp: _UdpEndpoint | None = None
        self._tcp_server = None
        self._writers: set[asyncio.StreamWriter] = set()
        # Admission drain (set when the responder has an overload
        # admission queue): one call_soon callback at a time pops one
        # queued query per event-loop turn, so arrivals — and their
        # cheap shed/refuse triage — interleave with the expensive
        # full-service path instead of queueing behind it.  Each
        # wake-up triages every datagram the kernel holds before the
        # next pop, so a burst deeper than ``soft_limit`` is refused.
        self._drain_pending = False

    def datagram_received(self, data: bytes, src: str, sport: int) -> None:
        """One UDP query, one answer: called once per datagram the
        endpoint drains."""
        self.meter.count_in(self.now(), len(data))
        if self.responder.admission_queue is not None:
            # Graceful degradation (docs/RESILIENCE.md): arrival triage
            # only; the full parse/lookup/encode cost is paid when the
            # bounded queue drains between event-loop turns.
            self.offer_admission(data, src, sport)
            return
        out = self.responder.reply_wire("udp", data, src, sport)
        if out is not None:
            self.meter.count_out(self.now(), len(out))
            self._udp.sendto(out, src, sport)

    # -- admission control (responder overload config) ------------------

    def offer_admission(self, data: bytes, src: str, sport: int) -> None:
        status, refusal = self.responder.admission_offer(
            data, (data, src, sport))
        if status == "refused":
            if refusal is not None:
                self.meter.count_out(self.now(), len(refusal))
                self._udp.sendto(refusal, src, sport)
            return
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_pending or not self.responder.admission_queue:
            return
        self._drain_pending = True
        asyncio.get_running_loop().call_soon(self._drain_admitted)

    def _drain_admitted(self) -> None:
        self._drain_pending = False
        if not self.responder.admission_queue:
            return
        data, src, sport = self.responder.admission_pop()
        out = self.responder.reply_wire("udp", data, src, sport)
        if out is not None:
            self.meter.count_out(self.now(), len(out))
            self._udp.sendto(out, src, sport)
        self._schedule_drain()

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    async def start(self) -> "LiveDnsServer":
        last_exc: OSError | None = None
        for _ in range(BIND_ATTEMPTS):
            try:
                udp = _UdpEndpoint(
                    self, local=(self.host, self.requested_port))
            except OSError as exc:
                if self.requested_port != 0:
                    raise
                last_exc = exc
                continue
            udp.on_datagram = self.datagram_received
            port = udp.port
            try:
                self._tcp_server = await asyncio.start_server(
                    self._serve_connection, self.host, port)
            except OSError as exc:
                # The UDP-chosen ephemeral port is taken on TCP by
                # someone else: release the pair and draw again.
                udp.close()
                if self.requested_port != 0:
                    raise
                last_exc = exc
                continue
            self._udp = udp
            self.port = port
            return self
        raise OSError(
            f"no free UDP+TCP port pair on {self.host} after "
            f"{BIND_ATTEMPTS} attempts") from last_exc

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.established += 1
        self.meter.established += 1
        self._writers.add(writer)
        peer = writer.get_extra_info("peername") or (self.host, 0)
        framer = LengthPrefixFramer(
            lambda wire: self._answer_stream(writer, wire, peer))
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                self.meter.count_in(self.now(), len(data))
                # feed() invokes the answer callback once per complete
                # message, however the segments split or coalesced.
                framer.feed(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.socket_errors += 1
        finally:
            self._writers.discard(writer)
            self.meter.established -= 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _answer_stream(self, writer: asyncio.StreamWriter, wire: bytes,
                       peer) -> None:
        out = self.responder.reply_wire("tcp", wire, peer[0], peer[1])
        if out is not None and not writer.is_closing():
            framed = frame_message(out)
            self.meter.count_out(self.now(), len(framed))
            writer.write(framed)

    async def aclose(self, grace: float = _SHUTDOWN_GRACE) -> None:
        """Graceful shutdown: stop accepting, flush every reply already
        queued on open connections (in-flight queries are answered
        synchronously as their bytes arrive, so draining the write
        buffers completes them), then tear the sockets down."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            with contextlib.suppress(Exception):
                await self._tcp_server.wait_closed()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.drain(), grace)
            writer.close()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.wait_closed(), grace)
        if self._udp is not None:
            self._udp.close()
        self._tcp_server = None


class _LoopScheduler:
    """``host.scheduler`` on the event loop's clock: the ``now`` /
    ``after`` / ``at`` / ``obs`` slice of the simulator's scheduler the
    querier uses.  Times are seconds since ``epoch``, as the sim's are
    seconds since zero; the handles returned have ``cancel()``."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 obs: Observer | None):
        self._loop = loop
        self.epoch = loop.time()
        self.obs = obs

    @property
    def now(self) -> float:
        return self._loop.time() - self.epoch

    def after(self, delay: float, fn, *args):
        return self._loop.call_later(delay, fn, *args)

    def at(self, time: float, fn, *args):
        return self._loop.call_at(time + self.epoch, fn, *args)


class _LoopTcpConnection(asyncio.Protocol):
    """``host.tcp_connect()``: usable at once like the simulated
    connection — bytes sent during the handshake go out when it
    completes — and reporting the same state names."""

    def __init__(self, host: "_LoopHost"):
        self.host = host
        self.state = "SYN_SENT"
        self.nagle = True         # seam slot; asyncio sets TCP_NODELAY
        self.on_data = None       # set by the querier on connect
        self.on_closed = None
        self._transport = None
        self._unsent: list[bytes] = []

    async def open(self, addr: str, port: int) -> None:
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: self, addr, port)
        except OSError:
            self.host.socket_errors += 1
            self.connection_lost(None)

    def connection_made(self, transport) -> None:
        if self.state == "CLOSED":          # closed while connecting
            transport.abort()
            return
        self._transport = transport
        self.state = "ESTABLISHED"
        transport.writelines(self._unsent)
        self._unsent.clear()

    def data_received(self, data: bytes) -> None:
        self.on_data(data)

    def connection_lost(self, exc) -> None:
        if exc is not None:
            self.host.socket_errors += 1
        self.state = "CLOSED"
        self.host.streams.pop(self, None)
        callback, self.on_closed = self.on_closed, None
        if callback is not None:
            callback()

    def send(self, data: bytes) -> None:
        if self.state == "CLOSED":
            raise RuntimeError("send on CLOSED connection")
        self.host.streams[self] = self.host.streams.pop(self)  # LRU
        if self._transport is None:
            self._unsent.append(data)
        else:
            self._transport.write(data)

    def close(self) -> None:
        """Active close; ``on_closed`` fires once the transport is
        down (after the handshake, if one is still in progress)."""
        if self.state == "CLOSED":
            return
        self.state = "CLOSED"
        self.host.streams.pop(self, None)
        if self._transport is not None:
            self._transport.close()

    def evict(self) -> None:
        """Close without telling the owner.  Losing a connection to
        the cap or to shutdown is not a channel death: the cap only
        takes connections with nothing pending, and at shutdown
        nothing pending may be re-sent, so stragglers run into their
        timeouts."""
        self.on_closed = None
        self.close()


class _LoopHost:
    """The querier's host seam (:mod:`repro.replay.querier`) on asyncio
    sockets.  One per querier: a single UDP socket shared by all its
    emulated sources, and its stream connections, least recently used
    first, each mapped to the querier's channel on it — what
    :meth:`LiveQuerier._open_channel` reads to hold them to
    :data:`_TCP_CONNECTION_CAP`."""

    def __init__(self, name: str, scheduler: _LoopScheduler,
                 server: tuple[str, int]):
        self.name = name
        self.scheduler = scheduler
        self.sendpath = NullSendPath()
        self.socket_errors = 0
        self.streams: dict[_LoopTcpConnection, object] = {}  # LRU order
        self._server = server
        self._udp: _UdpEndpoint | None = None
        self._handshakes: set[asyncio.Task] = set()

    def start(self) -> None:
        self._udp = _UdpEndpoint(self, remote=self._server)

    def udp_socket(self) -> _UdpEndpoint:
        return self._udp

    def tcp_connect(self, addr: str, port: int) -> _LoopTcpConnection:
        conn = _LoopTcpConnection(self)
        task = asyncio.get_running_loop().create_task(
            conn.open(addr, port))
        self._handshakes.add(task)
        task.add_done_callback(self._handshakes.discard)
        self.streams[conn] = None   # the querier fills in its channel
        return conn

    async def aclose(self) -> None:
        if self._udp is not None:
            self._udp.close()
        for conn in list(self.streams):
            conn.evict()
        handshakes = list(self._handshakes)
        for task in handshakes:
            task.cancel()
        await asyncio.gather(*handshakes, return_exceptions=True)


class LiveQuerier(Querier):
    """The one :class:`~repro.replay.querier.Querier`, fed in wall-clock
    time.  The protocol is inherited whole; what is added is what the
    simulator's controller and distributor do on the DES: pace the
    records (ΔT against the loop clock), bound the queries in flight,
    and wait for the last one to settle."""

    COUNTERS = {**Querier.COUNTERS,
                "socket_errors": volatile("replay.socket_errors")}

    @property
    def socket_errors(self) -> int:
        return self.host.socket_errors

    def _open_channel(self, proto: str, key: tuple):
        """Make room under :data:`_TCP_CONNECTION_CAP` first, closing
        the least recently used connections *with nothing pending*.  A
        connection with a query outstanding is never closed for the
        cap — that query could only wait out ``query_timeout`` — so
        when the server is further behind than the cap a querier holds
        up to ``max(_TCP_CONNECTION_CAP, max_inflight)`` connections."""
        streams = self.host.streams
        excess = len(streams) + 1 - _TCP_CONNECTION_CAP
        if excess > 0:
            idle = [conn for conn, channel in streams.items()
                    if not channel.pending]
            for conn in idle[:excess]:
                conn.evict()
        channel = super()._open_channel(proto, key)
        streams[channel.conn] = channel
        return channel

    async def replay(self, records, live: LiveReplayConfig) -> None:
        clock = self.host.scheduler
        window = max(1, live.max_inflight)
        slots = asyncio.Semaphore(window)
        self.on_settled = lambda _result: slots.release()
        self.give_up_after = live.query_timeout
        self.host.start()
        try:
            for record in records:
                due = now = clock.now
                if not self.fast:
                    scaled = record.time / live.speed
                    if not self.timer.synchronized:
                        self.timer.sync(scaled, now)
                    delay = self.timer.delay_for(scaled, now)
                    due = now + delay
                    if delay > 0:
                        await asyncio.sleep(delay)
                # Bounding in-flight queries also backpressures pacing
                # once the server falls behind, like the sim's bounded
                # distributor->querier queues.  A free slot is taken
                # without yielding to the loop, which keeps the window
                # full in fast mode.
                await slots.acquire()
                self.send(record, due)
            for _ in range(window):     # all slots back: all settled
                await slots.acquire()
        finally:
            await self.host.aclose()


class _LiveClock:
    """Duck-types the ``.now`` the report reads off the simulator."""

    def __init__(self, now: float = 0.0):
        self.now = now


class _LiveHost:
    """Duck-types the ``.meter`` host slot with real measurements."""

    def __init__(self, name: str = "live-server"):
        self.name = name
        self.meter = ResourceMeter(cores=os.cpu_count() or 1)


class LiveBackend(ReplayBackend):
    """Replay a trace over real loopback sockets in wall-clock time."""

    name = "live"
    COUNTERS = {"deadline_hit": volatile("replay.deadline_hit")}

    def __init__(self, zones=None, *, config=None,
                 log_queries: bool = False, answer_cache: bool = True,
                 overload=None):
        from repro.replay.engine import ReplayConfig, _validate_config
        self.config = config = config or ReplayConfig(backend="live")
        _validate_config(config, "LiveBackend")
        self.live = config.live or LiveReplayConfig()
        self.observer = Observer() if config.observe else None
        self.host = _LiveHost()
        self.clock: _LoopScheduler | None = None
        self.responder = DnsResponder(
            zones=zones, log_queries=log_queries, answer_cache=answer_cache,
            clock=self._wall_now, observer=self.observer,
            overload=overload)
        self.server: LiveDnsServer | None = None
        self.queriers: list[LiveQuerier] = []
        self.deadline_hit = False     # a flag; reported as 0 or 1

    def _wall_now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- running ------------------------------------------------------------

    def run(self, trace, *, extra_time=None, until=None,
            resume_from=None):
        """Replay *trace* over loopback sockets and report.

        *extra_time* has no live meaning (the run drains by waiting
        for every query to settle, each bounded by its timeout) and is
        accepted for API parity.  *until* truncates the trace at that
        timestamp, matching the sim's stop-the-clock semantics."""
        from repro.replay.engine import _validate_run
        del extra_time
        records = as_trace(trace, self.observer).sorted().records
        until = self.config.until if until is None else until
        if until is not None:
            records = [r for r in records if r.time <= until]
        _validate_run(self.config, records, resume_from)
        return asyncio.run(self._replay(records))

    async def _replay(self, records):
        from repro.replay.engine import ReplayReport
        loop = asyncio.get_running_loop()
        self.clock = clock = _LoopScheduler(loop, self.observer)
        meter = self.host.meter
        live = self.live
        server = LiveDnsServer(
            self.responder, host=live.host, port=live.port, meter=meter,
            clock=self._wall_now)
        await server.start()
        self.server = server
        config = self.config
        n = config.client_instances * config.queriers_per_instance
        self.queriers = [
            LiveQuerier(
                _LoopHost(f"live-client-{i}", clock,
                          (live.host, server.port)),
                live.host, name=f"live-querier-{i}",
                config=config.querier_config(dns_port=server.port))
            for i in range(n)]
        checker, violations = None, []
        if config.check:
            from repro.check.invariants import (InvariantChecker,
                                                InvariantViolation)
            checker = InvariantChecker(
                self.queriers, [(self.host.name, self.responder)],
                config, clock).attach()

            def keep_violation(loop, context) -> None:
                # A violation raised in a socket callback reaches the
                # loop, not the feed: keep it, raise it after the drain.
                exc = context.get("exception")
                if isinstance(exc, InvariantViolation):
                    violations.append(exc)
                else:
                    loop.default_exception_handler(context)
            loop.set_exception_handler(keep_violation)
        # Same-source records stick to one querier, like the sim's
        # split input; unsticky, they are dealt round robin.
        parts = (partition(records, n) if config.sticky_sources
                 else [records[i::n] for i in range(n)])
        cpu_start = time.process_time()
        clock.epoch = loop.time()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(
                    querier.replay(part, live)
                    for querier, part in zip(self.queriers, parts)
                    if part)),
                live.run_deadline)
        except asyncio.TimeoutError:
            self.deadline_hit = True
        finally:
            await server.aclose()
        elapsed = clock.now
        meter.charge_cpu(time.process_time() - cpu_start)
        meter.memory = self._rss_bytes()
        meter.take_sample(elapsed)
        if self.observer is not None:
            # Wall-clock gauges: volatile, so the default snapshot keeps
            # the sim's shape.
            self.observer.wall_seconds = elapsed
            self.observer.wall_qps = (sum(q.sent for q in self.queriers)
                                      / elapsed if elapsed > 0 else 0.0)
        if violations:
            raise violations[0]
        if checker is not None and not self.deadline_hit:
            # A deadline hit cancels the feeds mid-flight, so accounting
            # is allowed to be incomplete then.
            checker.final(expected_results=len(records))
        return ReplayReport.gather(
            self.queriers, _LiveClock(elapsed), self.host, self.observer,
            [*self.queriers, self.responder, server, self])

    @staticmethod
    def _rss_bytes() -> int:
        try:
            import resource
            # Linux reports ru_maxrss in KiB.
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
                * 1024
        except Exception:
            return 0
