"""The live backend: replay over real asyncio loopback sockets.

This is LDplayer's actual operating mode — real sockets, real kernel,
wall-clock time — where the simulator backend is the deterministic
model of it.  One :class:`LiveDnsServer` binds a UDP endpoint (a raw
socket drained in bounded batches per event-loop wake-up,
:class:`_UdpEndpoint`) and a TCP stream server on the *same* port
number (retrying across ephemeral ports until a pair is free) and
serves the shared :class:`~repro.server.responder.DnsResponder`
answering core — the same views, answer cache, and response-building
rules the simulated
:class:`~repro.server.authoritative.AuthoritativeServer` runs, so the
two backends answer identically by construction.

As in the paper's Figure 5, the server is not the client: each run
forks the server into a process of its own (:class:`_ServerProcess`),
which inherits the built responder whole and hands its books back when
the run stops, so the replay client and the server each have a core.

The client side is the simulator's own
:class:`~repro.replay.querier.Querier` — message ids, retransmission,
TC fallback, reconnect, cookies and result accounting exist once, in
``replay/querier.py`` — running over an asyncio implementation of the
host seam it talks through (:class:`_LoopHost`: a loop-clock scheduler,
one shared UDP socket, LRU-capped stream connections).  What is
live-only is what is about wall-clock I/O: the server's sockets, and
the one reader, :meth:`LiveBackend._read` — the sim's direct mode
(Figure 4) in wall-clock time, which places each source through the
sim's own :class:`~repro.replay.supervisor.Pins` tiers.

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
import signal
import socket
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.jitter import NullSendPath
from repro.netsim.resources import ResourceMeter
from repro.obs import (Observer, counter_state, restore_counters, volatile,
                       zero_counters)
from repro.replay.backends.base import ReplayBackend
from repro.replay.querier import Querier
from repro.replay.supervisor import Pins
from repro.replay.timing import ReplayTimer
from repro.server.responder import DnsResponder
from repro.trace.pipeline import as_trace

_READ_CHUNK = 65536
_MAX_DATAGRAM = 65535   # the largest UDP payload: no read truncates
_DRAIN_BATCH = 64       # datagrams read per wake-up; the rest wait a turn
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
    reads what the kernel has queued, until ``EAGAIN`` or
    :data:`_DRAIN_BATCH` datagrams, where an asyncio datagram transport
    spends a selector pass, a ``Handle`` and a protocol call on each.
    That transport's contracts hold:

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
        # Bounded: a peer in another process can keep the socket
        # non-empty, and an unbounded drain would then starve every
        # other callback.  A socket left non-empty stays readable, so
        # the loop calls back after one turn.
        for _ in range(_DRAIN_BATCH):
            if self._sock is None:         # on_datagram may close us
                return
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
    max_inflight: int = 256       # per querier, pooled over the run
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
        # wake-up triages up to a batch of the datagrams the kernel
        # holds before the next pop, so a burst deeper than
        # ``soft_limit`` is refused.
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
    """The one :class:`~repro.replay.querier.Querier`, fed by the
    backend's reader (:meth:`LiveBackend._read`).  The protocol is
    inherited whole; what is added is the cap on its open stream
    connections and its count of socket errors."""

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
        up to ``max(_TCP_CONNECTION_CAP, window)`` connections."""
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


class _InstancePins(Pins):
    """Instance i's pin table over its queriers, seeded as the sim's
    ``Distributor.pins``; live injects no faults, so it never crashes."""

    crashed = False


class _LiveHost:
    """Duck-types the ``.meter`` host slot with real measurements."""

    def __init__(self, name: str = "live-server"):
        self.name = name
        self.meter = ResourceMeter(cores=os.cpu_count() or 1)


def _readable(conn) -> asyncio.Future:
    """A future done once *conn* has a message or end of file to read,
    awaited on the running loop rather than blocking it.  The reader
    goes at once, so the next call on the same pipe arms its own; one
    cancelled before it fired stays until the next call replaces it."""
    loop = asyncio.get_running_loop()
    fd = conn.fileno()
    ready = loop.create_future()

    def on_ready() -> None:
        loop.remove_reader(fd)
        if not ready.done():
            ready.set_result(None)
    loop.add_reader(fd, on_ready)
    return ready


async def _receive(conn):
    await _readable(conn)
    return conn.recv()


def _keep_violations(loop: asyncio.AbstractEventLoop) -> list:
    """Collect each ``InvariantViolation`` raised in *loop*'s
    callbacks.  A violation raised in a socket callback reaches the
    loop, not the feed: keep it, so the run raises it after the drain."""
    from repro.check.invariants import InvariantViolation
    violations: list = []

    def keep_violation(loop, context) -> None:
        exc = context.get("exception")
        if isinstance(exc, InvariantViolation):
            violations.append(exc)
        else:
            loop.default_exception_handler(context)
    loop.set_exception_handler(keep_violation)
    return violations


def _fold_observer(observer: Observer, served: Observer) -> None:
    """Add what the server process recorded to the parent's observer.
    The serving side writes counters and spans, no histogram."""
    for attr in Observer.COUNTERS:
        setattr(observer, attr,
                getattr(observer, attr) + getattr(served, attr))
    observer.tracer.merge(served.tracer)


class _ServerProcess:
    """The parent's handle on the forked server of one run.

    The fork happens before the parent's event loop starts, so no loop
    and no thread is copied; the child inherits the built backend —
    responder, zones, views, answer cache, overload state, checker
    hooks, and whatever a test patched — with nothing pickled in.  It
    binds the backend's :class:`LiveDnsServer`, sends the port, takes
    the parent's replay epoch (both loops read ``time.monotonic``), and
    serves until told to stop; then it closes the server and sends its
    books back (:meth:`LiveBackend._serve`).  The child leaves through
    ``os._exit``, so it never runs the parent's ``atexit`` hooks or
    test teardown.  Its end of the pipe closes when it dies, which is
    how the parent learns of a crash mid-run."""

    def __init__(self, backend: "LiveBackend"):
        # Imported here: a process that never runs live pays nothing.
        from multiprocessing.connection import Pipe
        ours, theirs = Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            ours.close()
            self._child(backend, theirs)
        theirs.close()
        self.conn = ours
        self.status: int | None = None
        self.stopped = False
        try:
            reply = self.conn.recv()      # the port, or why binding failed
        except EOFError:
            raise self.died() from None
        except BaseException:
            self.reap()
            raise
        if isinstance(reply, OSError):
            self.reap()
            raise reply
        self.port: int = reply

    @staticmethod
    def _child(backend: "LiveBackend", conn):
        # The parent owns the run: an interrupt reaches it, and it
        # stops this process.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        code = 0
        try:
            asyncio.run(backend._serve(conn))
        except BaseException:       # never unwind into the parent's frames
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)

    async def ask(self, message):
        """Send *message* and await the reply; a server process that is
        gone by then raises :meth:`died`."""
        try:
            self.conn.send(message)
            return await _receive(self.conn)
        except (EOFError, OSError):
            raise self.died() from None

    async def stop(self) -> dict:
        """Tell the server to close and take back its books.  Called
        once the querier hosts are closed, so the server reads every
        stream's end of file before it stops."""
        state = await self.ask("stop")
        self.stopped = True
        return state

    def died(self) -> RuntimeError:
        code = self.reap()
        how = (f"was killed by {signal.Signals(-code).name}" if code < 0
               else f"exited with status {code}")
        return RuntimeError(
            f"the live server process (pid {self.pid}) {how} mid-run")

    def reap(self) -> int:
        """Wait for the child and return its exit code (negative: the
        signal).  A child that has not handed its books back is on an
        error path and is killed first."""
        if self.status is None:
            if not self.stopped:
                os.kill(self.pid, signal.SIGKILL)   # a zombie ignores it
            _, status = os.waitpid(self.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
            self.conn.close()
        return self.status


class LiveBackend(ReplayBackend):
    """Replay a trace over real loopback sockets in wall-clock time.

    Each :meth:`run` serves from a forked process (:class:`_ServerProcess`)
    and takes the server's books back when it stops, so after a run
    ``responder``, ``server`` and ``host.meter`` read as an in-process
    server's would: counters and the query log accumulate over runs,
    while answer-cache entries and rate-limit buckets start each run
    from this process's state, as on a restarted server."""

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
        self.server_pid: int | None = None
        self.queriers: list[LiveQuerier] = []
        self.deadline_hit = False     # a flag; reported as 0 or 1

    def _wall_now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- running ------------------------------------------------------------

    def run(self, trace, *, extra_time=None, until=None):
        """Replay *trace* over loopback sockets and report.

        *extra_time* has no live meaning (the run drains by waiting
        for every query to settle, each bounded by its timeout) and is
        accepted for API parity.  *until* keeps the records at most
        that many seconds of trace time (not divided by ``speed``) after
        the first one, t̄₁, from which the sim's clock counts too."""
        from repro.replay.engine import _validate_run
        del extra_time
        records = as_trace(trace, self.observer).sorted().records
        until = self.config.until if until is None else until
        if until is not None and records:
            first = records[0].time
            records = [r for r in records if r.time - first <= until]
        _validate_run(self.config, records)
        live = self.live
        self.server = LiveDnsServer(
            self.responder, host=live.host, port=live.port,
            meter=self.host.meter, clock=self._wall_now)
        served = _ServerProcess(self)
        try:
            self.server_pid, self.server.port = served.pid, served.port
            return asyncio.run(self._replay(records, served))
        finally:
            served.reap()

    async def _serve(self, conn) -> None:
        """The server process's whole run (see :class:`_ServerProcess`)."""
        loop = asyncio.get_running_loop()
        self.clock = _LoopScheduler(loop, None)
        server, responder = self.server, self.responder
        try:
            await server.start()
        except OSError as exc:
            conn.send(exc)
            return
        conn.send(server.port)
        served = None
        if self.observer is not None:
            # What this process records is the server's share alone.
            responder._observer = served = Observer()
        violations = []
        if self.config.check:
            from repro.check.invariants import InvariantChecker
            InvariantChecker((), [(self.host.name, responder)], self.config,
                             self.clock).attach()
            violations = _keep_violations(loop)
        logged = len(responder.query_log)
        try:
            self.clock.epoch = await _receive(conn)
            cpu_start = time.process_time()
            conn.send(None)
            await _receive(conn)            # stop
        except EOFError:
            return                          # the parent is gone
        await server.aclose()
        # Let the connection handlers finish: each settles its count in
        # the meter on the way out.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=_SHUTDOWN_GRACE)
        meter = self.host.meter
        meter.charge_cpu(time.process_time() - cpu_start)
        meter.memory = self._rss_bytes()
        cache = responder.answer_cache
        conn.send({
            "responder": counter_state(responder),
            "answer_cache": (counter_state(cache) if cache is not None
                             else None),
            "query_log": responder.query_log[logged:],
            "admission_queue": responder.admission_queue,
            "server": counter_state(server),
            "established": server.established,
            "meter": vars(meter),
            "observer": served,
            "violations": violations[:1],
        })

    def _restore(self, state: dict) -> None:
        """Take the server process's books (:meth:`_serve`) as ours."""
        responder, server = self.responder, self.server
        restore_counters(responder, state["responder"])
        if responder.answer_cache is not None:
            restore_counters(responder.answer_cache, state["answer_cache"])
        responder.query_log += state["query_log"]
        responder.admission_queue = state["admission_queue"]
        restore_counters(server, state["server"])
        server.established = state["established"]
        vars(self.host.meter).update(state["meter"])
        if self.observer is not None:
            _fold_observer(self.observer, state["observer"])

    async def _replay(self, records, served: _ServerProcess):
        from repro.replay.engine import ReplayReport
        loop = asyncio.get_running_loop()
        self.clock = clock = _LoopScheduler(loop, self.observer)
        live = self.live
        server = self.server
        config = self.config
        tiers = [_InstancePins([
            LiveQuerier(_LoopHost(f"live-client-{i}.{q}", clock,
                                  (live.host, server.port)),
                        live.host, name=f"live-querier-{i}.{q}",
                        config=config.querier_config(dns_port=server.port))
            for q in range(config.queriers_per_instance)],
            config.seed + i, config.sticky_sources)
            for i in range(config.client_instances)]
        self.queriers = [querier for tier in tiers for querier in tier.members]
        checker, violations = None, []
        if config.check:
            from repro.check.invariants import InvariantChecker
            checker = InvariantChecker(
                self.queriers, [(self.host.name, self.responder)],
                config, clock).attach()
            violations = _keep_violations(loop)
        clock.epoch = loop.time()
        await served.ask(clock.epoch)       # the server's clock, too
        # Instances drawn with config.seed, as the sim's direct mode
        # draws them: a source lands on querier i.q on both backends.
        feed = asyncio.create_task(
            self._read(records, Pins(tiers, config.seed).member_for))
        lost = _readable(served.conn)       # only a dead server speaks now
        try:
            await asyncio.wait((feed, lost), timeout=live.run_deadline,
                               return_when=asyncio.FIRST_COMPLETED)
            if feed.done():
                feed.result()
            else:
                feed.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await feed
                if lost.done():
                    raise served.died()
                self.deadline_hit = True
        finally:
            lost.cancel()
        # The hosts are closed; let their transports finish closing, so
        # the server reads each stream's end before it is told to stop.
        await asyncio.sleep(0)
        state = await served.stop()
        self._restore(state)
        elapsed = clock.now
        self.host.meter.take_sample(elapsed)
        if self.observer is not None:
            # Wall-clock gauges: volatile, so the default snapshot keeps
            # the sim's shape.
            self.observer.wall_seconds = elapsed
            self.observer.wall_qps = (sum(q.sent for q in self.queriers)
                                      / elapsed if elapsed > 0 else 0.0)
        violations += state["violations"]
        if violations:
            raise violations[0]
        if checker is not None and not self.deadline_hit:
            # A deadline hit cancels the feed mid-flight, so accounting
            # is allowed to be incomplete then.
            checker.final(expected_results=len(records))
        return ReplayReport.gather(
            self.queriers, SimpleNamespace(now=elapsed), self.host,
            self.observer, [*self.queriers, self.responder, server, self])

    async def _read(self, records, instance_for) -> None:
        """The one reader, the sim's direct mode in wall-clock time: one
        :class:`ReplayTimer` synced on the trace's first record (§2.6's
        t̄₁) paces every record by ΔT against the loop clock, scaled by
        ``speed``; *instance_for* places its source.  The window is the
        run's, ``max_inflight`` per querier pooled, and holds pacing back
        once the server falls behind."""
        live, clock, fast = self.live, self.clock, self.config.fast
        window = max(1, live.max_inflight) * len(self.queriers)
        slots = asyncio.Semaphore(window)
        timer = ReplayTimer()
        try:
            for querier in self.queriers:
                querier.on_settled = lambda _result: slots.release()
                querier.give_up_after = live.query_timeout
                querier.host.start()
            if records:
                timer.sync(records[0].time / live.speed, clock.now)
            for record in records:
                due = now = clock.now
                if not fast:
                    delay = timer.delay_for(record.time / live.speed, now)
                    due = now + delay
                    if delay > 0:
                        await asyncio.sleep(delay)
                # A free slot is taken without yielding to the loop,
                # which keeps the window full in fast mode.
                await slots.acquire()
                src = record.src
                instance_for(src).member_for(src).send(record, due)
            for _ in range(window):     # all slots back: all settled
                await slots.acquire()
        finally:
            for querier in self.queriers:
                await querier.host.aclose()

    @staticmethod
    def _rss_bytes() -> int:
        import resource     # POSIX, as the fork of the server is
        # Linux reports ru_maxrss in KiB.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
