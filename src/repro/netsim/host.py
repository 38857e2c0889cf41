"""Hosts: network endpoints with sockets, filters, and resource meters.

A host owns one or more IP addresses, a UDP socket table, a TCP endpoint
table, and two filter chains.  The egress/ingress filters model the
iptables-mangle + TUN mechanism of §2.4: a filter receives a packet and
returns it (possibly rewritten), returns a different packet, or consumes
it by returning ``None``.  The proxies in :mod:`repro.proxy` are
implemented as such filters, exactly mirroring Figure 2.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.clock import Scheduler
from repro.netsim.jitter import NullSendPath
from repro.netsim.packet import Packet
from repro.netsim.resources import CostModel, ResourceMeter

PacketFilter = Callable[[Packet], Packet | None]


class Host:
    """A simulated machine attached to the network fabric."""

    def __init__(self, scheduler: Scheduler, name: str,
                 addrs: list[str] | None = None, cores: int = 8,
                 cost: CostModel | None = None):
        self.scheduler = scheduler
        self.name = name
        self.addrs: list[str] = list(addrs or [])
        self.network = None  # set by Network.attach
        self.link = None     # uplink; set by Network.attach / set_link
        self.meter = ResourceMeter(cores=cores, cost=cost)
        # A perfect send path; a querier models its own process's
        # (QuerierConfig.jitter_seed).
        self.sendpath = NullSendPath()
        # Applications (servers, resolvers) bound to this host register
        # here so scenario machinery (netsim.faults ServerPause) can
        # find them by host name and drive their pause()/resume() hooks.
        self.apps: list[object] = []
        self.egress_filters: list[PacketFilter] = []
        self.ingress_filters: list[PacketFilter] = []
        self._udp_socks: dict[int, "UdpSocket"] = {}
        self._tcp_listeners: dict[int, Callable] = {}
        self._tcp_conns: dict[tuple, "TcpConnection"] = {}
        self._tcp_ports_in_use: dict[int, int] = {}
        self._next_ephemeral = 32768

    # -- addressing --------------------------------------------------------

    @property
    def addr(self) -> str:
        if not self.addrs:
            raise RuntimeError(f"host {self.name} has no address")
        return self.addrs[0]

    def add_address(self, addr: str) -> None:
        if addr not in self.addrs:
            self.addrs.append(addr)
            if self.network is not None:
                self.network.register_address(addr, self)

    def ephemeral_port(self) -> int:
        """Allocate a client port; wraps at 65535 like a real ephemeral
        range (the §2.6 'typical 65 k ports' resource limit)."""
        for _ in range(65536 - 32768):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 32768
            if (port not in self._udp_socks
                    and not self._tcp_ports_in_use.get(port)):
                return port
        raise RuntimeError(f"host {self.name}: ephemeral ports exhausted")

    # -- send path ------------------------------------------------------------

    def send_packet(self, packet: Packet) -> None:
        """Run egress filters then hand the packet to the fabric."""
        for flt in self.egress_filters:
            packet = flt(packet)
            if packet is None:
                return
        if self.network is None:
            raise RuntimeError(f"host {self.name} not attached to a network")
        self.network.transmit(packet, self)

    def receive(self, packet: Packet, size: int) -> None:
        """Fabric delivery entry point (the event ``Network.transmit``
        schedules; *size* is the wire size it charged the sender):
        account the arrival, ingress filters, then demux."""
        self.network.delivered += 1
        meter = self.meter          # ResourceMeter.count_in
        second = int(self.scheduler.now)
        meter.bytes_in[second] = meter.bytes_in.get(second, 0) + size
        meter.packets_in[second] = meter.packets_in.get(second, 0) + 1
        for flt in self.ingress_filters:
            packet = flt(packet)
            if packet is None:
                return
        meter.cpu_busy += meter.cost.generic_packet
        if packet.proto == "udp":
            sock = self._udp_socks.get(packet.dport)
            if sock is not None:
                sock._deliver(packet)
            return
        if packet.proto == "tcp":
            self._demux_tcp(packet)

    # -- UDP ---------------------------------------------------------------------

    def udp_socket(self, port: int = 0) -> "UdpSocket":
        from repro.netsim.udp import UdpSocket
        if port == 0:
            port = self.ephemeral_port()
        if port in self._udp_socks:
            raise RuntimeError(f"{self.name}: UDP port {port} in use")
        sock = UdpSocket(self, port)
        self._udp_socks[port] = sock
        return sock

    def _close_udp(self, port: int) -> None:
        self._udp_socks.pop(port, None)

    # -- TCP -----------------------------------------------------------------------

    def tcp_listen(self, port: int, on_connection: Callable) -> None:
        """Register an acceptor: ``on_connection(conn)`` fires for each
        inbound connection once it is established."""
        if port in self._tcp_listeners:
            raise RuntimeError(f"{self.name}: TCP port {port} in use")
        self._tcp_listeners[port] = on_connection

    def tcp_connect(self, raddr: str, rport: int,
                    laddr: str | None = None) -> "TcpConnection":
        from repro.netsim.tcp import TcpConnection
        laddr = laddr or self.addr
        lport = self.ephemeral_port()
        conn = TcpConnection(self, laddr, lport, raddr, rport,
                             is_client=True)
        self._register_tcp(conn)
        conn.open()
        return conn

    def _register_tcp(self, conn: "TcpConnection") -> None:
        key = (conn.laddr, conn.lport, conn.raddr, conn.rport)
        if key not in self._tcp_conns:
            self._tcp_conns[key] = conn
            self._tcp_ports_in_use[conn.lport] = \
                self._tcp_ports_in_use.get(conn.lport, 0) + 1

    def _unregister_tcp(self, conn: "TcpConnection") -> None:
        key = (conn.laddr, conn.lport, conn.raddr, conn.rport)
        if self._tcp_conns.pop(key, None) is not None:
            remaining = self._tcp_ports_in_use.get(conn.lport, 0) - 1
            if remaining > 0:
                self._tcp_ports_in_use[conn.lport] = remaining
            else:
                self._tcp_ports_in_use.pop(conn.lport, None)

    def _demux_tcp(self, packet: Packet) -> None:
        key = (packet.dst, packet.dport, packet.src, packet.sport)
        conn = self._tcp_conns.get(key)
        if conn is not None:
            conn.handle_segment(packet)
            return
        if packet.tcp is not None and packet.tcp.syn and not packet.tcp.ack:
            acceptor = self._tcp_listeners.get(packet.dport)
            if acceptor is not None:
                from repro.netsim.tcp import TcpConnection
                conn = TcpConnection(self, packet.dst, packet.dport,
                                     packet.src, packet.sport,
                                     is_client=False, acceptor=acceptor)
                self._register_tcp(conn)
                conn.handle_segment(packet)
        # Anything else (e.g. stray FIN for a closed connection) is dropped,
        # as a real stack would answer with RST; nothing in our experiments
        # depends on RSTs.

    # -- introspection ----------------------------------------------------------------

    def tcp_connection_count(self, state: str | None = None) -> int:
        if state is None:
            return len(self._tcp_conns)
        return sum(1 for c in self._tcp_conns.values() if c.state == state)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, addrs={self.addrs})"
