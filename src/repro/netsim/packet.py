"""Packets: the unit the simulated network moves between hosts.

Sizes include Ethernet + IP + transport headers so bandwidth numbers are
comparable with what the paper measured on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

ETHER_HEADER = 14
IP_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20

UDP_OVERHEAD = ETHER_HEADER + IP_HEADER + UDP_HEADER
TCP_OVERHEAD = ETHER_HEADER + IP_HEADER + TCP_HEADER
# Wire bytes around the payload, by Packet.proto.
OVERHEAD = {"udp": UDP_OVERHEAD, "tcp": TCP_OVERHEAD}


@dataclass(slots=True)
class TcpInfo:
    """Transport metadata for TCP segments (simplified: no seq numbers,
    the simulated network is loss-free and in-order)."""

    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False

    def flags(self) -> str:
        bits = [name.upper() for name in ("syn", "ack", "fin", "rst")
                if getattr(self, name)]
        return "+".join(bits) or "DATA"


@dataclass(slots=True)
class Packet:
    src: str
    sport: int
    dst: str
    dport: int
    proto: str = "udp"  # "udp" or "tcp"
    payload: bytes = b""
    tcp: TcpInfo | None = None
    # Set by a Tun on what its handler hands back, so no Tun on the
    # host captures the packet a second time.
    reinjected: bool = False

    def describe(self) -> str:
        flags = f" [{self.tcp.flags()}]" if self.tcp else ""
        return (f"{self.proto}{flags} {self.src}:{self.sport} -> "
                f"{self.dst}:{self.dport} ({len(self.payload)}B)")
