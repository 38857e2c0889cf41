"""Simulated QUIC transport for DNS-over-QUIC (RFC 9250) experiments.

The paper's opening what-if list includes QUIC ("What if all DNS
requests were made over QUIC, TCP or TLS?") but its evaluation covers
only TCP and TLS; this module supplies the missing arm so the §5.2
experiments can be re-run with a modern transport.

Modelled mechanics (the ones that change the answers):

* **combined transport+crypto handshake** — one round trip: the client
  Initial (padded to 1200 B per RFC 9000 §8.1) elicits the server's
  handshake flight, and the client's first request rides with its
  Finished, so a fresh query costs ~2 RTT (vs 2 for TCP, 4 for TLS);
* **0-RTT resumption** — a client holding a session ticket sends the
  request inside its first flight: a *resumed* fresh connection costs
  1 RTT, like plain UDP;
* **stream multiplexing over UDP** — each query is its own stream:
  no Nagle, no delayed-ACK interaction, no head-of-line blocking;
* **no TIME_WAIT** — close is immediate (CONNECTION_CLOSE), so the
  server-side connection-state population differs structurally from
  TCP;
* **memory/CPU** — per-connection session state (like TLS) charged to
  the meter; handshake crypto cost on the server, amortized by the
  idle timeout exactly as for TLS.

Packets are framed as: u32 connection id, u8 packet type, u16 stream
id, payload; carried in ordinary simulated UDP datagrams.
"""

from __future__ import annotations

import itertools
import struct
from functools import partial
from typing import Callable

from repro.netsim.host import Host
from repro.netsim.tcp import CLOSED, ESTABLISHED, SYN_SENT

INITIAL = 1          # client hello (padded to 1200 B)
HANDSHAKE = 2        # server's crypto flight
FINISHED = 3         # client completes; may carry first request
ONE_RTT = 4          # application data
CLOSE = 5            # CONNECTION_CLOSE
TICKET = 6           # NewSessionTicket (enables 0-RTT next time)

INITIAL_SIZE = 1200
HANDSHAKE_FLIGHT_SIZE = 1350
_HEADER = struct.Struct("!IBH")

_conn_ids = itertools.count(1)


def _frame(conn_id: int, ptype: int, stream_id: int,
           payload: bytes = b"", pad_to: int = 0) -> bytes:
    data = _HEADER.pack(conn_id, ptype, stream_id) + payload
    if pad_to and len(data) < pad_to:
        data += b"\x00" * (pad_to - len(data))
    return data


def _parse(datagram: bytes) -> tuple[int, int, int, bytes]:
    conn_id, ptype, stream_id = _HEADER.unpack_from(datagram)
    return conn_id, ptype, stream_id, datagram[_HEADER.size:]


class QuicConnection:
    """One endpoint of a QUIC connection."""

    def __init__(self, host: Host, sock, peer_addr: str, peer_port: int,
                 conn_id: int, is_client: bool):
        self.host = host
        self.sock = sock
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.conn_id = conn_id
        self.is_client = is_client
        self.established = False
        self.closed = False
        self.on_established: Callable[[], None] | None = None
        self.on_stream_data: Callable[[int, bytes], None] | None = None
        # Stream-agnostic data callback: the session seam's (see send).
        self.on_data: Callable[[bytes], None] | None = None
        self.on_closed: Callable[[], None] | None = None
        # Session tickets held, by peer; a client's connections share
        # their client's set.
        self.tickets: set[tuple[str, int]] = set()
        # Drops this connection from its endpoint's table on close.
        self._forget: Callable[[], None] | None = None
        self._started = not is_client
        self._next_stream = 0 if is_client else 1
        self._early_data: list[tuple[int, bytes]] = []
        self._mem_held = 0
        self._idle_timeout: float | None = None
        self._last_activity = host.scheduler.now

    # -- client side ------------------------------------------------------

    @property
    def state(self) -> str:
        """The connection's state in
        :class:`~repro.netsim.tcp.TcpConnection`'s netstat vocabulary,
        which the querier's stream channels read."""
        return (CLOSED if self.closed else
                ESTABLISHED if self.established else SYN_SENT)

    def connect(self, early: bytes | None = None) -> None:
        """Send the Initial.  An *early* request rides in it as 0-RTT
        data when this client holds a session ticket for the peer;
        without one it waits for the handshake."""
        self._started = True
        meter = self.host.meter
        meter.charge_cpu(meter.cost.tls_handshake / 4)
        body = b""
        if early is not None:
            stream = self.open_stream()
            if (self.peer_addr, self.peer_port) in self.tickets:
                body = _frame(self.conn_id, ONE_RTT, stream, early)
            else:
                self._early_data.append((stream, early))
        # 0-RTT data is bundled after the Initial's crypto frame.
        self._send_raw(_frame(self.conn_id, INITIAL, 0, body,
                              pad_to=INITIAL_SIZE))

    def send(self, payload: bytes) -> None:
        """The stream-session seam TCP and TLS connections offer:
        *payload* goes out on a stream of its own.  A connection from
        :meth:`QuicClient.open` sends its Initial with the first
        payload, so a session ticket decides 0-RTT (:meth:`connect`)."""
        if not self._started:
            self.connect(payload)
        else:
            self.send_stream(self.open_stream(), payload)

    def open_stream(self) -> int:
        stream = self._next_stream
        self._next_stream += 2
        return stream

    def send_stream(self, stream_id: int, payload: bytes) -> None:
        if self.closed:
            raise RuntimeError("send on closed QUIC connection")
        if not self.established:
            self._early_data.append((stream_id, payload))
            return
        self._send_raw(_frame(self.conn_id, ONE_RTT, stream_id, payload))

    def close(self) -> None:
        if self.closed:
            return
        self._send_raw(_frame(self.conn_id, CLOSE, 0))
        self._become_closed()

    def set_idle_timeout(self, timeout: float | None) -> None:
        self._idle_timeout = timeout
        if timeout is not None:
            self.host.scheduler.after(timeout, self._idle_check)

    def _idle_check(self) -> None:
        if self.closed or self._idle_timeout is None:
            return
        idle = self.host.scheduler.now - self._last_activity
        if idle >= self._idle_timeout - 1e-9:
            self.close()
        else:
            self.host.scheduler.after(self._idle_timeout - idle,
                                      self._idle_check)

    # -- shared ---------------------------------------------------------------

    def _send_raw(self, datagram: bytes) -> None:
        self._last_activity = self.host.scheduler.now
        self.sock.sendto(datagram, self.peer_addr, self.peer_port)

    def _become_established(self) -> None:
        if self.established:
            return
        self.established = True
        meter = self.host.meter
        self._mem_held = meter.cost.tcp_connection // 2 \
            + meter.cost.tls_session
        meter.alloc(self._mem_held)
        meter.established += 1
        if self.on_established is not None:
            self.on_established()
        for stream_id, payload in self._early_data:
            self._send_raw(_frame(self.conn_id, ONE_RTT, stream_id,
                                  payload))
        self._early_data.clear()

    def _become_closed(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._mem_held:
            self.host.meter.free(self._mem_held)
            self.host.meter.established -= 1
            self._mem_held = 0
        if self._forget is not None:
            self._forget()
        if self.on_closed is not None:
            callback, self.on_closed = self.on_closed, None
            callback()

    def handle(self, ptype: int, stream_id: int, payload: bytes) -> None:
        self._last_activity = self.host.scheduler.now
        meter = self.host.meter
        if ptype == HANDSHAKE and self.is_client:
            meter.charge_cpu(meter.cost.tls_handshake / 4)
            self._become_established()
            self._send_raw(_frame(self.conn_id, FINISHED, 0))
        elif ptype == TICKET and self.is_client:
            self.tickets.add((self.peer_addr, self.peer_port))
        elif ptype == ONE_RTT:
            if self.on_stream_data is not None:
                self.on_stream_data(stream_id, payload)
            elif self.on_data is not None:
                self.on_data(payload)
        elif ptype == CLOSE:
            self._become_closed()


class QuicClient:
    """Client endpoint: one UDP socket, its connections, and the session
    tickets they share."""

    def __init__(self, host: Host):
        self.host = host
        self.sock = host.udp_socket()
        self.sock.on_datagram = self._on_datagram
        self._conns: dict[int, QuicConnection] = {}
        self.tickets: set[tuple[str, int]] = set()

    def open(self, addr: str, port: int) -> QuicConnection:
        """A connection to *addr*:*port* whose Initial waits for its
        first :meth:`QuicConnection.send`."""
        conn_id = next(_conn_ids)
        conn = QuicConnection(self.host, self.sock, addr, port, conn_id,
                              is_client=True)
        conn.tickets = self.tickets
        conn._forget = partial(self._conns.pop, conn_id, None)
        self._conns[conn_id] = conn
        return conn

    def connect(self, addr: str, port: int) -> QuicConnection:
        """A connection to *addr*:*port* that handshakes now."""
        conn = self.open(addr, port)
        conn.connect()
        return conn

    def has_ticket(self, addr: str, port: int) -> bool:
        return (addr, port) in self.tickets

    def _on_datagram(self, payload: bytes, src: str, sport: int) -> None:
        conn_id, ptype, stream_id, body = _parse(payload)
        conn = self._conns.get(conn_id)
        if conn is not None:
            conn.handle(ptype, stream_id, body)


class QuicServer:
    """Server endpoint: accepts connections on one UDP port."""

    def __init__(self, host: Host, port: int,
                 on_connection: Callable[[QuicConnection], None],
                 idle_timeout: float | None = None):
        self.host = host
        self.port = port
        self.on_connection = on_connection
        self.idle_timeout = idle_timeout
        self.sock = host.udp_socket(port)
        self.sock.on_datagram = self._on_datagram
        self._conns: dict[tuple[str, int, int], QuicConnection] = {}

    def _on_datagram(self, payload: bytes, src: str, sport: int) -> None:
        conn_id, ptype, stream_id, body = _parse(payload)
        key = (src, sport, conn_id)
        conn = self._conns.get(key)
        meter = self.host.meter
        if conn is None:
            if ptype != INITIAL:
                return
            conn = QuicConnection(self.host, self.sock, src, sport,
                                  conn_id, is_client=False)
            self._conns[key] = conn
            conn._forget = partial(self._conns.pop, key, None)
            # Server does its handshake crypto now (one round).
            meter.charge_cpu(meter.cost.tls_handshake)
            conn._become_established()
            if self.idle_timeout is not None:
                conn.set_idle_timeout(self.idle_timeout)
            self.on_connection(conn)
            conn._send_raw(_frame(conn_id, HANDSHAKE, 0,
                                  pad_to=HANDSHAKE_FLIGHT_SIZE))
            conn._send_raw(_frame(conn_id, TICKET, 0))
            # 0-RTT data bundled in the Initial is processed immediately.
            if body:
                self._process_bundled(conn, body)
            return
        if ptype == ONE_RTT and conn.on_stream_data is not None:
            conn.handle(ptype, stream_id, body)
        elif ptype in (FINISHED, CLOSE):
            conn.handle(ptype, stream_id, body)

    def _process_bundled(self, conn: QuicConnection, body: bytes) -> None:
        """0-RTT frames bundled in an Initial.  Stream payloads are
        2-byte length-prefixed DNS messages (RFC 9250), so each frame's
        extent is exact and the Initial's zero padding is ignored."""
        pos = 0
        while pos + _HEADER.size + 2 <= len(body):
            _, ptype, stream_id = _HEADER.unpack_from(body, pos)
            if ptype != ONE_RTT:
                break
            (msg_len,) = struct.unpack_from("!H", body,
                                            pos + _HEADER.size)
            end = pos + _HEADER.size + 2 + msg_len
            if msg_len == 0 or end > len(body):
                break
            payload = body[pos + _HEADER.size:end]
            if conn.on_stream_data is not None:
                conn.on_stream_data(stream_id, payload)
            pos = end

    def connection_count(self) -> int:
        return len(self._conns)
