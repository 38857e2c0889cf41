"""The meta-DNS-server (§2.4): every zone, one server, one address.

A single :class:`AuthoritativeServer` instance hosts all the zones a
trace touches.  Split-horizon views keyed on the (proxy-rewritten) query
source address decide which zone answers, so the root, TLDs and SLDs
behave as if they ran on their real, separate nameservers — referral
round trips included.

The zone-to-address mapping comes from the zones themselves: each zone's
nameservers (its apex NS RRset, resolved to addresses through glue)
identify which source addresses select it.
"""

from __future__ import annotations

from operator import itemgetter

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.zone import Zone
from repro.netsim.host import Host
from repro.server.authoritative import AuthoritativeServer
from repro.server.views import ViewSelector


def nameserver_addresses(zone: Zone,
                         parent_zones: list[Zone] | None = None) -> list[str]:
    """Public addresses of *zone*'s nameservers, resolved through the
    zone's own glue or sibling/parent zones: each address once, in the
    order a scan of ``[zone] + parent_zones`` first finds it."""
    return ZoneIndex(parent_zones or []).nameserver_addresses(zone)


class ZoneIndex:
    """Zones by origin, in list order.  The zones that can hold an
    address for a nameserver target are those at its ancestors, so
    resolving a target walks its labels instead of scanning every zone:
    building a meta-server over N zones stays linear in N."""

    def __init__(self, zones: list[Zone]):
        self._by_origin: dict[Name, list[tuple[int, Zone]]] = {}
        for position, zone in enumerate(zones):
            self._by_origin.setdefault(zone.origin, []).append(
                (position, zone))

    def _enclosing(self, name: Name) -> list[Zone]:
        """The indexed zones at or above *name*, in list order."""
        found = [entry for ancestor in name.ancestors()
                 for entry in self._by_origin.get(ancestor, ())]
        found.sort(key=itemgetter(0))
        return [zone for _, zone in found]

    def nameserver_addresses(self, zone: Zone) -> list[str]:
        """:func:`nameserver_addresses` of *zone* against the indexed
        zones."""
        ns_rrset = zone.apex_ns
        if ns_rrset is None:
            return []
        addrs: dict[str, None] = {}   # an ordered set
        for rdata in ns_rrset.rdatas:
            target = rdata.target
            zones = self._enclosing(target)
            if target.is_subdomain_of(zone.origin):
                zones.insert(0, zone)   # its own glue first
            for z in zones:
                for rtype in (RRType.A, RRType.AAAA):
                    rrset = z.get_rrset(target, rtype)
                    if rrset is not None:
                        for rd in rrset.rdatas:
                            addrs[rd.address] = None
        return list(addrs)


class MetaDnsServer:
    """One authoritative server emulating the whole hierarchy."""

    def __init__(self, host: Host, zones: list[Zone],
                 log_queries: bool = False, **server_kwargs):
        self.zones = list(zones)
        self.views = ViewSelector()
        self.zone_addresses: dict[Name, list[str]] = {}
        unmatched: list[Zone] = []
        index = ZoneIndex(self.zones)
        for zone in self.zones:
            addrs = index.nameserver_addresses(zone)
            self.zone_addresses[zone.origin] = addrs
            if not addrs:
                unmatched.append(zone)
            for addr in addrs:
                self.views.add_address_view(addr, [zone])
        if unmatched:
            names = ", ".join(z.origin.to_text() for z in unmatched)
            raise ValueError(
                f"zones with no resolvable nameserver addresses: {names}")
        self.server = AuthoritativeServer(host, views=self.views,
                                          log_queries=log_queries,
                                          **server_kwargs)
        obs = host.scheduler.obs
        if obs is not None:
            # Hierarchy-emulation shape: how many zones share this one
            # server, and how many distinct nameserver identities the
            # split-horizon views answer for.
            obs.meta_zones = float(len(self.zones))
            obs.meta_view_addresses = float(
                len(self.all_nameserver_addresses()))

    @property
    def host(self) -> Host:
        return self.server.host

    @property
    def query_log(self):
        return self.server.query_log

    def all_nameserver_addresses(self) -> set[str]:
        return {addr for addrs in self.zone_addresses.values()
                for addr in addrs}
