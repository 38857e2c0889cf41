"""UDP sockets: connectionless datagram endpoints."""

from __future__ import annotations

from typing import Callable

from repro.netsim.packet import Packet


class UdpSocket:
    """A bound UDP port on a host."""

    def __init__(self, host, port: int):
        self.host = host
        self.port = port
        self.on_datagram: Callable[[bytes, str, int], None] | None = None
        self.closed = False

    def sendto(self, payload: bytes, dst: str, dport: int,
               src: str | None = None) -> None:
        if self.closed:
            raise RuntimeError("send on closed UDP socket")
        host = self.host
        obs = host.scheduler.obs
        if obs is not None:
            obs.udp_datagrams_out += 1
            obs.udp_bytes_out += len(payload)
        if not src:
            # host.addr without the property's frame; the property
            # raises for a host that has no address.
            src = host.addrs[0] if host.addrs else host.addr
        host.send_packet(Packet(src, self.port, dst, dport, "udp", payload))

    def _deliver(self, packet: Packet) -> None:
        if self.closed or self.on_datagram is None:
            return
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.udp_datagrams_in += 1
            obs.udp_bytes_in += len(packet.payload)
        self.on_datagram(packet.payload, packet.src, packet.sport)

    def close(self) -> None:
        self.closed = True
        self.host._close_udp(self.port)
