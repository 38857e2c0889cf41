"""TUN-style packet interception (the §2.4 iptables-mangle + TUN setup).

LDplayer marks packets by port with the mangle table and routes them into
a TUN interface where a proxy process rewrites addresses.  In the
simulator the equivalent is a host packet filter; this module provides
the two port-based capture rules the paper uses:

* at the recursive server, capture all **egress** packets with
  destination port 53 (its iterative queries);
* at the meta-DNS-server, capture all **egress** packets with source
  port 53 (its responses).

A :class:`Tun` hands captured packets to a handler (the proxy), which
re-injects whatever it produces via the host's normal send path with
filtering suppressed for the reinjected packet.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.host import Host
from repro.netsim.packet import Packet

Handler = Callable[[Packet], Packet | None]


class Tun:
    """One capture rule + handler installed on a host's egress chain."""

    def __init__(self, host: Host, match: Callable[[Packet], bool],
                 handler: Handler):
        self.host = host
        self.match = match
        self.handler = handler
        self.captured = 0
        host.egress_filters.append(self._filter)

    def _filter(self, packet: Packet) -> Packet | None:
        if packet.reinjected or not self.match(packet):
            return packet
        self.captured += 1
        rewritten = self.handler(packet)
        if rewritten is None:
            return None
        rewritten.reinjected = True
        return rewritten


def capture_queries(host: Host, handler: Handler, port: int = 53) -> Tun:
    """Capture egress packets with destination port *port* (dport 53 at
    the recursive server, per Figure 2)."""
    return Tun(host, lambda p: p.dport == port, handler)


def capture_responses(host: Host, handler: Handler, port: int = 53) -> Tun:
    """Capture egress packets with source port *port* (sport 53 at the
    meta-DNS-server, per Figure 2)."""
    return Tun(host, lambda p: p.sport == port, handler)
