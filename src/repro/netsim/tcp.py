"""Simulated TCP: enough mechanism to reproduce the paper's §5.2 results.

What is modelled (because the experiments depend on it):

* three-way handshake — fresh connections cost one RTT before data
  (Fig 15's "2 RTT for fresh TCP query" median);
* MSS segmentation — large responses span several segments;
* Nagle + delayed ACK — the sender holds a small segment while another
  unacknowledged small segment is in flight, and receivers delay pure
  ACKs; their interaction produces the multi-RTT tail latencies the
  paper observed and attributed to Nagle (§5.2.4);
* FIN close handshake with TIME_WAIT on the active closer — the idle-
  timeout-closing server accumulates TIME_WAIT entries (Fig 13c/14c);
* per-connection memory and per-segment/handshake CPU charged to the
  host's resource meter (Figs 11, 13a, 14a);
* application-level idle timeout, the experiments' independent variable.

What is deliberately absent: sequence numbers, retransmission, and flow
control — the fabric is loss-free and in-order, and none of the paper's
measurements exercise loss recovery.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.packet import Packet, TcpInfo

MSS = 1460
TIME_WAIT_DURATION = 60.0   # Linux: 60 s
DELAYED_ACK = 0.040         # Linux delayed-ACK timer

# Connection states (netstat vocabulary).
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"
CLOSED = "CLOSED"

# Segment flags: TcpInfo is frozen, so every segment shares these.
SEG_DATA = TcpInfo()
SEG_ACK = TcpInfo(ack=True)
SEG_SYN = TcpInfo(syn=True)
SEG_SYN_ACK = TcpInfo(syn=True, ack=True)
SEG_FIN_ACK = TcpInfo(fin=True, ack=True)


class TcpConnection:
    """One endpoint of a TCP connection."""

    def __init__(self, host, laddr: str, lport: int, raddr: str, rport: int,
                 is_client: bool, acceptor: Callable | None = None):
        self.host = host
        self.laddr = laddr
        self.lport = lport
        self.raddr = raddr
        self.rport = rport
        self.is_client = is_client
        self.nagle = True
        self.state = CLOSED
        self.acceptor = acceptor
        self.on_established: Callable[[], None] | None = None
        self.on_data: Callable[[bytes], None] | None = None
        self.on_closed: Callable[[], None] | None = None
        self._send_buf = bytearray()
        self._inflight = 0              # bytes sent, not yet ACKed
        self._small_in_flight = False   # one of them a sub-MSS segment
        self._recv_segs_unacked = 0
        self._delayed_ack_event = None
        self._idle_timeout: float | None = None
        self._idle_event = None
        self._last_activity = host.scheduler.now
        self._mem_held = 0

    # -- lifecycle -------------------------------------------------------

    def open(self) -> None:
        """Client side: begin the three-way handshake."""
        self.state = SYN_SENT
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.tcp_connects += 1
        self.host.meter.charge_cpu(self.host.meter.cost.tcp_handshake)
        self._emit(SEG_SYN)

    def send(self, data: bytes) -> None:
        """Queue application bytes on the stream."""
        if self.state in (TIME_WAIT, CLOSED, LAST_ACK, FIN_WAIT):
            raise RuntimeError(f"send on {self.state} connection")
        self._send_buf += data
        if self.state == ESTABLISHED:
            self._pump()

    def close(self) -> None:
        """Active close: send FIN and await the peer's."""
        if self.state in (CLOSED, TIME_WAIT, FIN_WAIT, LAST_ACK):
            return
        if self.state in (SYN_SENT, SYN_RCVD):
            self._become_closed()
            return
        # Flush anything Nagle was holding; then FIN.
        if self._send_buf:
            self._transmit_data(bytes(self._send_buf), ack=False)
            self._send_buf.clear()
        self.state = FIN_WAIT
        self._emit_acking(SEG_FIN_ACK)

    def set_idle_timeout(self, timeout: float | None) -> None:
        """Close the connection after *timeout* seconds of inactivity
        (the server-side knob of Figs 11/13/14)."""
        self._idle_timeout = timeout
        if timeout is not None and self._idle_event is None \
                and self.state in (ESTABLISHED, SYN_RCVD, SYN_SENT):
            self._idle_event = self.host.scheduler.after(
                timeout, self._idle_check)

    def _idle_check(self) -> None:
        self._idle_event = None
        if self.state != ESTABLISHED or self._idle_timeout is None:
            return
        idle_for = self.host.scheduler.now - self._last_activity
        if idle_for >= self._idle_timeout - 1e-9:
            self.close()
        else:
            self._idle_event = self.host.scheduler.after(
                self._idle_timeout - idle_for, self._idle_check)

    # -- segment handling -----------------------------------------------------

    def handle_segment(self, packet: Packet) -> None:
        info = packet.tcp or SEG_DATA
        host = self.host
        host.meter.cpu_busy += host.meter.cost.tcp_segment
        self._last_activity = host.scheduler.now

        if info.rst:
            self._become_closed()
            return

        if info.syn and not info.ack:
            # Passive open.
            if self.state == CLOSED:
                self.state = SYN_RCVD
                obs = host.scheduler.obs
                if obs is not None:
                    obs.tcp_accepts += 1
                self.host.meter.charge_cpu(
                    self.host.meter.cost.tcp_handshake)
                self._emit(SEG_SYN_ACK)
            return

        if info.syn and info.ack:
            # Client's handshake completes.
            if self.state == SYN_SENT:
                # The SYN+ACK is owed an ACK.  It rides on the first
                # segment out (what on_established sends, or data
                # queued before the handshake) and goes bare only if
                # there is none.
                self._recv_segs_unacked = 1
                self._become_established()
                self._pump()
                if self._recv_segs_unacked:
                    self._emit_acking(SEG_ACK)
            return

        if info.fin:
            self._handle_fin(info)
            return

        # Plain ACK and/or data.
        if info.ack:
            self._handle_ack()
        if packet.payload:
            self._handle_data(packet.payload)

    def _handle_ack(self) -> None:
        if self.state == SYN_RCVD:
            self._become_established()
            if self.acceptor is not None:
                self.acceptor(self)
        elif self.state == LAST_ACK:
            self._become_closed()
        elif self.state == ESTABLISHED:
            self._inflight = 0
            self._small_in_flight = False
            self._pump()
        elif self.state == FIN_WAIT:
            # ACK of our FIN without their FIN yet: keep waiting.
            self._inflight = 0

    def _handle_data(self, payload: bytes) -> None:
        if self.state == SYN_RCVD:
            # Data piggybacked on the handshake ACK.
            self._become_established()
            if self.acceptor is not None:
                self.acceptor(self)
        if self.state != ESTABLISHED:
            return
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.tcp_bytes_in += len(payload)
        self._recv_segs_unacked += 1
        if self._recv_segs_unacked >= 2:
            self._emit_acking(SEG_ACK)  # ACK every second segment
        if self.on_data is not None:
            self.on_data(payload)
        # Arm the delayed ACK only if the application's reply (or a
        # close) did not already carry it.
        if self._recv_segs_unacked and self._delayed_ack_event is None:
            self._delayed_ack_event = self.host.scheduler.after(
                DELAYED_ACK, self._fire_delayed_ack)

    def _handle_fin(self, info: TcpInfo) -> None:
        if self.state == ESTABLISHED:
            # Passive close: ACK their FIN and send ours in one segment.
            if info.ack:
                self._inflight = 0
            self.state = LAST_ACK
            self._emit_acking(SEG_FIN_ACK)
            self._notify_closed_app()
        elif self.state == FIN_WAIT:
            self._emit_acking(SEG_ACK)
            self._become_time_wait()
        elif self.state == TIME_WAIT:
            # Retransmitted FIN; re-ACK.
            obs = self.host.scheduler.obs
            if obs is not None:
                obs.tcp_fin_retransmits_seen += 1
            self._emit(SEG_ACK)

    # -- state transitions ------------------------------------------------------

    def _become_established(self) -> None:
        self.state = ESTABLISHED
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.tcp_established_total += 1
        self.host._register_tcp(self)
        meter = self.host.meter
        self._mem_held = meter.cost.tcp_connection
        meter.alloc(self._mem_held)
        meter.established += 1
        if self._idle_timeout is not None and self._idle_event is None:
            self._idle_event = self.host.scheduler.after(
                self._idle_timeout, self._idle_check)
        if self.on_established is not None:
            self.on_established()

    def _become_time_wait(self) -> None:
        meter = self.host.meter
        if self.state == ESTABLISHED or self._mem_held:
            meter.free(self._mem_held)
            meter.established -= 1
            obs = self.host.scheduler.obs
            if obs is not None:
                obs.tcp_closes += 1
        self._mem_held = meter.cost.time_wait_entry
        meter.alloc(self._mem_held)
        meter.time_wait += 1
        self.state = TIME_WAIT
        self._notify_closed_app()
        self.host.scheduler.after(TIME_WAIT_DURATION, self._time_wait_expire)

    def _time_wait_expire(self) -> None:
        if self.state != TIME_WAIT:
            return
        self.host.meter.free(self._mem_held)
        self._mem_held = 0
        self.host.meter.time_wait -= 1
        self.state = CLOSED
        self.host._unregister_tcp(self)

    def _become_closed(self) -> None:
        meter = self.host.meter
        if self._mem_held:
            meter.free(self._mem_held)
            self._mem_held = 0
            if self.state in (ESTABLISHED, FIN_WAIT, LAST_ACK):
                meter.established -= 1
                obs = self.host.scheduler.obs
                if obs is not None:
                    obs.tcp_closes += 1
            elif self.state == TIME_WAIT:
                meter.time_wait -= 1
        self.state = CLOSED
        self.host._unregister_tcp(self)
        self._notify_closed_app()

    def _notify_closed_app(self) -> None:
        if self.on_closed is not None:
            callback, self.on_closed = self.on_closed, None
            callback()

    # -- transmission ------------------------------------------------------------

    def _pump(self) -> None:
        """Move bytes from the send buffer to the wire, honouring MSS
        and (if enabled) Nagle's algorithm, in Minshall's form: a
        partial segment waits only while an earlier partial segment is
        unACKed, so the tail of a large write leaves with its body."""
        while self._send_buf:
            if len(self._send_buf) >= MSS:
                chunk = bytes(self._send_buf[:MSS])
                del self._send_buf[:MSS]
                self._transmit_data(chunk, ack=True)
                continue
            # Partial segment.
            if self.nagle and self._small_in_flight:
                break  # hold until the small segment is ACKed
            chunk = bytes(self._send_buf)
            self._send_buf.clear()
            self._transmit_data(chunk, ack=True)

    def _transmit_data(self, chunk: bytes, ack: bool) -> None:
        self._inflight += len(chunk)
        if len(chunk) < MSS:
            self._small_in_flight = True
        self._last_activity = self.host.scheduler.now
        # Data segments carry the ACK for anything we owe.
        self._emit_acking(SEG_ACK if ack else SEG_DATA, chunk)

    def _emit_acking(self, info: TcpInfo, payload: bytes = b"") -> None:
        """Emit a segment that settles every ACK owed to the peer."""
        if self._delayed_ack_event is not None:
            self._delayed_ack_event.cancel()
            self._delayed_ack_event = None
        self._recv_segs_unacked = 0
        self._emit(info, payload)

    def _emit(self, info: TcpInfo, payload: bytes = b"") -> None:
        host = self.host
        obs = host.scheduler.obs
        if obs is not None:
            obs.tcp_segments_out += 1
            obs.tcp_bytes_out += len(payload)
        host.meter.cpu_busy += host.meter.cost.tcp_segment
        host.send_packet(Packet(self.laddr, self.lport, self.raddr,
                                self.rport, "tcp", payload, info))

    # -- delayed ACK ---------------------------------------------------------------

    def _fire_delayed_ack(self) -> None:
        self._delayed_ack_event = None
        if self._recv_segs_unacked > 0 and self.state in (ESTABLISHED,
                                                          FIN_WAIT):
            self._recv_segs_unacked = 0
            self._emit(SEG_ACK)

    def __repr__(self) -> str:
        return (f"TcpConnection({self.laddr}:{self.lport} -> "
                f"{self.raddr}:{self.rport}, {self.state})")
