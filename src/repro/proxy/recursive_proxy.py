"""Recursive-side proxy: captures the resolver's iterative queries.

Installed on the recursive server's host, it captures all egress packets
with destination port 53 (the TUN + mangle rule of Figure 2) and
rewrites them toward the meta-DNS-server, stamping the original query
destination address (OQDA) into the source field.

The prototype (like the paper's, §3) forwards to a single authoritative
proxy/meta-server; partitioning zones across several authoritative
servers is future work there and here.
"""

from __future__ import annotations

from repro.netsim.host import Host
from repro.netsim.packet import Packet
from repro.netsim.tun import Tun, capture_queries
from repro.proxy.rewrite import rewrite_toward


class RecursiveProxy:
    """Query-side half of the hierarchy-emulation plumbing."""

    def __init__(self, recursive_host: Host, meta_server_addr: str):
        self.meta_server_addr = meta_server_addr
        self.rewritten = 0
        self.tun: Tun = capture_queries(recursive_host, self._rewrite)

    def _rewrite(self, packet: Packet) -> Packet:
        self.rewritten += 1
        return rewrite_toward(packet, self.meta_server_addr)
