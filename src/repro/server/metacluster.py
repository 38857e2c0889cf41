"""Partitioned meta-DNS deployment: the paper's §3 future work, built.

"Our prototype of the recursive proxy only talks to a single
authoritative proxy.  Supporting partitioning the zones across the set
of different authoritative servers is a future work."  And §2.4: "We
could run multiple instances of the server to support large query rate
and massive zones, with routing configuration that redirects queries to
the correct servers."

A :class:`MetaDnsCluster` shards the zones across N meta-DNS-server
instances (each on its own host with its own split-horizon views) and
gives the recursive proxy a routing table keyed on the original query
destination address (OQDA): each nameserver address is served by
exactly one shard, so the rewrite rule stays the §2.4 rule — only the
"server at the other end" now depends on which zone the query targets.
"""

from __future__ import annotations

from repro.dns.zone import Zone
from repro.netsim.host import Host
from repro.netsim.network import LinkParams
from repro.netsim.packet import Packet
from repro.netsim.sim import Simulator
from repro.netsim.tun import Tun, capture_queries
from repro.proxy import AuthoritativeProxy
from repro.proxy.rewrite import rewrite_toward
from repro.server.metadns import MetaDnsServer, ZoneIndex


class MetaDnsCluster:
    """N meta-DNS-server shards behind one routing proxy."""

    def __init__(self, sim: Simulator, zones: list[Zone], shards: int = 2,
                 log_queries: bool = False):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.sim = sim
        self.shard_addrs = [f"10.2.0.{i + 2}" for i in range(shards)]
        self.hosts: list[Host] = []
        self.servers: list[MetaDnsServer] = []
        # OQDA -> shard address: the recursive proxy's routing table.
        self.routes: dict[str, str] = {}

        import zlib
        partitions: list[list[Zone]] = [[] for _ in range(shards)]
        for zone in sorted(zones, key=lambda z: z.origin.canonical_key()):
            # Stable shard choice (hash() of names is salted per process).
            index = zlib.crc32(zone.origin.to_text().encode()) % shards
            partitions[index].append(zone)
        # Each zone's nameserver addresses against the whole hierarchy,
        # resolved once: they pick the routes and complete the views.
        hierarchy = ZoneIndex(zones)
        addresses = {zone: hierarchy.nameserver_addresses(zone)
                     for zone in zones}

        for i, (addr, partition) in enumerate(zip(self.shard_addrs,
                                                  partitions)):
            host = sim.add_host(f"meta-shard{i}", [addr], LinkParams())
            self.hosts.append(host)
            if not partition:
                continue
            server = MetaDnsServer(host, partition,
                                   log_queries=log_queries)
            self.servers.append(server)
            for zone in partition:
                for ns_addr in addresses[zone]:
                    # A nameserver serving zones in several shards would
                    # need per-zone routing; partition by address owner:
                    # first shard hosting one of its zones wins, and its
                    # views must hold every zone for that address.
                    self.routes.setdefault(ns_addr, addr)
        self._ensure_address_completeness(addresses)

    def _ensure_address_completeness(
            self, addresses: dict[Zone, list[str]]) -> None:
        """A nameserver address routes to exactly one shard, so that
        shard must hold *every* zone served at that address (§2.3: one
        nameserver may serve several zones)."""
        by_addr: dict[str, list[Zone]] = {}
        for zone, ns_addrs in addresses.items():
            for ns_addr in ns_addrs:
                by_addr.setdefault(ns_addr, []).append(zone)
        shard_servers = {server.host.addr: server
                         for server in self.servers}
        for ns_addr, served in by_addr.items():
            shard_addr = self.routes[ns_addr]
            server = shard_servers[shard_addr]
            for zone in served:
                server.views.add_address_view(ns_addr, [zone])

    def attach_recursive(self, recursive_host: Host) -> "RoutingProxy":
        """Install the routing-aware recursive proxy, and an
        authoritative proxy on every shard."""
        proxy = RoutingProxy(recursive_host, self.routes)
        for host in self.hosts:
            AuthoritativeProxy(host,
                               recursive_addr=recursive_host.addr)
        return proxy

    def total_queries_handled(self) -> int:
        return sum(s.server.queries_handled for s in self.servers)

    def shard_loads(self) -> list[int]:
        return [s.server.queries_handled for s in self.servers]


class RoutingProxy:
    """Recursive-side proxy with a per-OQDA routing table (the §2.4
    'routing configuration that redirects queries to the correct
    servers')."""

    def __init__(self, recursive_host: Host, routes: dict[str, str]):
        self.routes = dict(routes)
        self.rewritten = 0
        self.unrouted = 0
        self.tun: Tun = capture_queries(recursive_host, self._rewrite)

    def _rewrite(self, packet: Packet) -> Packet | None:
        shard = self.routes.get(packet.dst)
        if shard is None:
            self.unrouted += 1
            return packet  # not ours: leaks, as §2.1 demands visibility
        self.rewritten += 1
        return rewrite_toward(packet, shard)
