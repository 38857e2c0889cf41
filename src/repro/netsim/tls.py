"""Simulated TLS 1.2 session layer over a :class:`TcpConnection`.

The handshake is carried as real framed bytes over the simulated TCP
stream, so its latency cost — two round trips on top of TCP's one —
emerges mechanistically rather than being hard-coded; the message sizes
approximate a certificate-bearing TLS 1.2 exchange.  Application data
pays a per-record overhead (header + MAC + padding).  Session state
memory and handshake crypto CPU are charged to the host meters
(the +30 % memory and TLS CPU deltas of §5.2).

Records are framed as: 1-byte content type, 2-byte length, body.
Content types mirror TLS: 0x16 handshake, 0x17 application data.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.netsim.tcp import TcpConnection

HANDSHAKE = 0x16
APPDATA = 0x17

CLIENT_HELLO_SIZE = 230
SERVER_FLIGHT_SIZE = 2890     # ServerHello + Certificate chain + Done
CLIENT_FLIGHT2_SIZE = 140     # ClientKeyExchange + CCS + Finished
SERVER_FLIGHT2_SIZE = 70      # CCS + Finished
RECORD_OVERHEAD = 29          # header(5) + MAC/padding(24)

# Handshake phase markers (first byte of handshake record body).
_MSG_CLIENT_HELLO = 1
_MSG_SERVER_FLIGHT = 2
_MSG_CLIENT_FLIGHT2 = 3
_MSG_SERVER_FLIGHT2 = 4


class TlsConnection:
    """A TLS session bound to one TCP connection endpoint."""

    def __init__(self, tcp: TcpConnection, is_client: bool):
        self.tcp = tcp
        self.is_client = is_client
        self.established = False
        self.on_established: Callable[[], None] | None = None
        self.on_data: Callable[[bytes], None] | None = None
        self.on_closed: Callable[[], None] | None = None
        self._recv_buf = bytearray()
        self._mem_held = 0
        self._closed = False
        tcp.on_data = self._on_tcp_data
        self._chain_tcp_close(tcp)

    # -- client / server entry points ---------------------------------------

    @classmethod
    def client(cls, tcp: TcpConnection) -> "TlsConnection":
        """Wrap a client TCP connection; the handshake starts as soon as
        TCP establishes (or immediately if it already has)."""
        tls = cls(tcp, is_client=True)
        if tcp.state == "ESTABLISHED":
            tls._start_client_handshake()
        else:
            previous = tcp.on_established

            def kickoff():
                if previous is not None:
                    previous()
                tls._start_client_handshake()

            tcp.on_established = kickoff
        return tls

    @classmethod
    def server(cls, tcp: TcpConnection) -> "TlsConnection":
        return cls(tcp, is_client=False)

    # -- handshake -----------------------------------------------------------

    def _start_client_handshake(self) -> None:
        self._send_record(HANDSHAKE, _MSG_CLIENT_HELLO, CLIENT_HELLO_SIZE)

    def _handle_handshake(self, marker: int) -> None:
        meter = self.tcp.host.meter
        if not self.is_client and marker == _MSG_CLIENT_HELLO:
            self._send_record(HANDSHAKE, _MSG_SERVER_FLIGHT,
                              SERVER_FLIGHT_SIZE)
        elif self.is_client and marker == _MSG_SERVER_FLIGHT:
            meter.charge_cpu(meter.cost.tls_handshake / 4)
            self._send_record(HANDSHAKE, _MSG_CLIENT_FLIGHT2,
                              CLIENT_FLIGHT2_SIZE)
        elif not self.is_client and marker == _MSG_CLIENT_FLIGHT2:
            # Server does its private-key operation here.
            meter.charge_cpu(meter.cost.tls_handshake)
            self._send_record(HANDSHAKE, _MSG_SERVER_FLIGHT2,
                              SERVER_FLIGHT2_SIZE)
            self._session_up()
        elif self.is_client and marker == _MSG_SERVER_FLIGHT2:
            self._session_up()

    def _session_up(self) -> None:
        self.established = True
        obs = self.tcp.host.scheduler.obs
        if obs is not None:
            obs.tls_handshakes += 1
        meter = self.tcp.host.meter
        self._mem_held = meter.cost.tls_session
        meter.alloc(self._mem_held)
        if self.on_established is not None:
            self.on_established()

    # -- application data -------------------------------------------------------

    @property
    def state(self) -> str:
        """The TCP connection's state: a session lives as long as it."""
        return self.tcp.state

    def send(self, data: bytes) -> None:
        if not self.established:
            raise RuntimeError("TLS send before handshake completion")
        obs = self.tcp.host.scheduler.obs
        if obs is not None:
            obs.tls_records_out += 1
            obs.tls_bytes_out += len(data)
        record = struct.pack("!BH", APPDATA,
                             len(data) + RECORD_OVERHEAD - 5)
        self.tcp.send(record + data + b"\x00" * (RECORD_OVERHEAD - 5))

    def close(self) -> None:
        self._release()
        self.tcp.close()

    # -- record layer --------------------------------------------------------------

    def _send_record(self, ctype: int, marker: int, size: int) -> None:
        body_len = max(1, size - 3)
        body = bytes([marker]) + b"\x00" * (body_len - 1)
        self.tcp.send(struct.pack("!BH", ctype, body_len) + body)

    def _on_tcp_data(self, data: bytes) -> None:
        self._recv_buf += data
        while len(self._recv_buf) >= 3:
            ctype, length = struct.unpack_from("!BH", self._recv_buf)
            if len(self._recv_buf) < 3 + length:
                return
            body = bytes(self._recv_buf[3:3 + length])
            del self._recv_buf[:3 + length]
            if ctype == HANDSHAKE:
                self._handle_handshake(body[0])
            elif ctype == APPDATA:
                payload = body[:length - (RECORD_OVERHEAD - 5)]
                if self.on_data is not None:
                    self.on_data(payload)

    # -- teardown --------------------------------------------------------------------

    def _chain_tcp_close(self, tcp: TcpConnection) -> None:
        previous = tcp.on_closed

        def closed():
            self._release()
            if previous is not None:
                previous()
            # The session is over: drop the application's callbacks (a
            # cycle back to this session) as the TCP connection does.
            on_closed = self.on_closed
            self.on_data = self.on_established = self.on_closed = None
            if on_closed is not None:
                on_closed()

        tcp.on_closed = closed

    def _release(self) -> None:
        if self._mem_held and not self._closed:
            self.tcp.host.meter.free(self._mem_held)
        self._closed = True
        self._mem_held = 0
