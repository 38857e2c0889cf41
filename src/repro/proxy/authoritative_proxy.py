"""Authoritative-side proxy: captures the meta-DNS-server's responses.

Installed on the meta-DNS-server's host, it captures all egress packets
with source port 53 (its DNS responses) and rewrites them toward the
recursive server, moving the response's destination address (which is
the OQDA the server answered toward) into the source field — so the
recursive observes a normal reply "from" the nameserver it queried.
"""

from __future__ import annotations

from repro.netsim.host import Host
from repro.netsim.packet import Packet
from repro.netsim.tun import Tun, capture_responses
from repro.proxy.rewrite import rewrite_toward


class AuthoritativeProxy:
    """Response-side half of the hierarchy-emulation plumbing."""

    def __init__(self, meta_host: Host, recursive_addr: str):
        self.recursive_addr = recursive_addr
        self.rewritten = 0
        self.tun: Tun = capture_responses(meta_host, self._rewrite)

    def _rewrite(self, packet: Packet) -> Packet:
        self.rewritten += 1
        return rewrite_toward(packet, self.recursive_addr)
