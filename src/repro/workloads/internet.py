"""A synthetic "ground-truth Internet": the thing zone harvesting queries.

The paper's zone constructor sends each unique query once to the real
Internet through a cold-cache recursive and captures the authoritative
responses (§2.3).  Offline we cannot query the Internet, so this module
builds a deterministic multi-level hierarchy — root, TLDs, SLDs, with
nameservers at unique public-style addresses — that plays the Internet's
role: the harvester walks it, captures responses, and rebuilds zones
which are then validated against it (DESIGN.md §2).

Addresses come from the 198.18.0.0/15 benchmarking range so they look
public (forcing the proxies to do real work) while never colliding with
the testbed's 10.x addresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from repro.dns.constants import RRType
from repro.dns.dnssec import make_ds, make_dnskey, sign_zone, KSK_FLAGS
from repro.dns.name import Name
from repro.dns.rdata import A, AAAA, CNAME, MX, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.server.recursive import RootHint

_REAL_TLDS = ["com", "net", "org", "edu", "io", "de", "uk", "jp", "fr",
              "nl", "br", "au", "ca", "ru", "it", "info", "biz", "us",
              "ch", "se"]
HOSTS_PER_SLD = 4
NAMESERVERS_PER_SLD = 2


class AddressAllocator:
    """Sequential unique addresses from 198.18.0.0/15."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> str:
        index = self._next
        self._next += 1
        host = index % 254 + 1
        rest = index // 254
        c = rest % 256
        b = rest // 256
        if b >= 2:
            raise RuntimeError("198.18.0.0/15 address pool exhausted")
        return f"198.{18 + b}.{c}.{host}"


@dataclass
class Domain:
    """One second-level domain with its zone and nameserver addresses."""

    name: Name
    zone: Zone
    ns_addrs: list[str] = field(default_factory=list)

    @cached_property
    def text(self) -> str:
        """``name.to_text()``, rendered once: the trace generators
        write it, or a host label and it, into every query they make."""
        return self.name.to_text()


class ModelInternet:
    """Root + TLD + SLD hierarchy with deterministic content."""

    def __init__(self, tlds: int = 8, slds_per_tld: int = 12,
                 seed: int = 0):
        self.rng = random.Random(seed)
        self.alloc = AddressAllocator()
        self.zones: list[Zone] = []
        self.zone_by_origin: dict[Name, Zone] = {}
        # addr -> zones served at that address (a nameserver may serve
        # several zones).
        self.zones_by_addr: dict[str, list[Zone]] = {}
        self.domains: list[Domain] = []
        self.root_zone = self._build_root(tlds)
        self._build_tlds(tlds, slds_per_tld)

    # -- construction -----------------------------------------------------

    def _register(self, zone: Zone, addrs: list[str]) -> None:
        self.zones.append(zone)
        self.zone_by_origin[zone.origin] = zone
        for addr in addrs:
            self.zones_by_addr.setdefault(addr, []).append(zone)

    def _tld_names(self, count: int) -> list[str]:
        names = list(_REAL_TLDS[:count])
        while len(names) < count:
            names.append(f"tld{len(names):03d}")
        return names

    def _build_root(self, tlds: int) -> Zone:
        zone = Zone(Name.root())
        zone.add(make_soa(Name.root()))
        self.root_addrs = [self.alloc.allocate() for _ in range(2)]
        root_ns_names = [Name.from_text(f"{chr(ord('a') + i)}"
                                        f".root-servers.net.")
                         for i in range(2)]
        zone.add(RRset(Name.root(), RRType.NS, 518400,
                       [NS(n) for n in root_ns_names]))
        for ns_name, addr in zip(root_ns_names, self.root_addrs):
            zone.add(RRset(ns_name, RRType.A, 518400, [A(addr)]))
        self._register(zone, self.root_addrs)
        return zone

    def _build_tlds(self, tlds: int, slds_per_tld: int) -> None:
        for tld_label in self._tld_names(tlds):
            tld_name = Name.from_text(f"{tld_label}.")
            tld_zone = Zone(tld_name)
            tld_zone.add(make_soa(tld_name))
            tld_addrs = [self.alloc.allocate() for _ in range(2)]
            tld_ns_names = [tld_name.prepend(f"ns{i + 1}".encode())
                            for i in range(2)]
            tld_zone.add(RRset(tld_name, RRType.NS, 172800,
                               [NS(n) for n in tld_ns_names]))
            for ns_name, addr in zip(tld_ns_names, tld_addrs):
                tld_zone.add(RRset(ns_name, RRType.A, 172800, [A(addr)]))
            # Delegation from the root, with glue.
            self.root_zone.add(RRset(tld_name, RRType.NS, 172800,
                                     [NS(n) for n in tld_ns_names]))
            for ns_name, addr in zip(tld_ns_names, tld_addrs):
                self.root_zone.add(RRset(ns_name, RRType.A, 172800,
                                         [A(addr)]))
            self._register(tld_zone, tld_addrs)
            self._build_slds(tld_zone, slds_per_tld)

    def _build_slds(self, tld_zone: Zone, count: int) -> None:
        for i in range(count):
            sld_name = tld_zone.origin.prepend(f"dom{i:03d}".encode())
            zone = Zone(sld_name)
            zone.add(make_soa(sld_name))
            ns_addrs = [self.alloc.allocate()
                        for _ in range(NAMESERVERS_PER_SLD)]
            ns_names = [sld_name.prepend(f"ns{j + 1}".encode())
                        for j in range(NAMESERVERS_PER_SLD)]
            zone.add(RRset(sld_name, RRType.NS, 86400,
                           [NS(n) for n in ns_names]))
            for ns_name, addr in zip(ns_names, ns_addrs):
                zone.add(RRset(ns_name, RRType.A, 86400, [A(addr)]))
            # Delegation (with glue) in the TLD.
            tld_zone.add(RRset(sld_name, RRType.NS, 86400,
                               [NS(n) for n in ns_names]))
            for ns_name, addr in zip(ns_names, ns_addrs):
                tld_zone.add(RRset(ns_name, RRType.A, 86400, [A(addr)]))
            self._populate_sld(zone, sld_name)
            self._register(zone, ns_addrs)
            self.domains.append(Domain(sld_name, zone, ns_addrs))

    def _populate_sld(self, zone: Zone, origin: Name) -> None:
        zone.add(RRset(origin, RRType.A, 300, [A(self.alloc.allocate())]))
        zone.add(RRset(origin, RRType.MX, 3600,
                       [MX(10, origin.prepend(b"mail"))]))
        zone.add(RRset(origin, RRType.TXT, 3600,
                       [TXT((b"v=spf1 -all",))]))
        zone.add(RRset(origin.prepend(b"mail"), RRType.A, 300,
                       [A(self.alloc.allocate())]))
        zone.add(RRset(origin.prepend(b"www"), RRType.CNAME, 300,
                       [CNAME(origin)]))
        for h in range(HOSTS_PER_SLD):
            host_name = origin.prepend(f"host{h}".encode())
            zone.add(RRset(host_name, RRType.A, 300,
                           [A(self.alloc.allocate())]))
            if self.rng.random() < 0.5:
                zone.add(RRset(host_name, RRType.AAAA, 300,
                               [AAAA(f"2001:db8:{self.rng.randrange(0xffff):x}::1")]))

    # -- DNSSEC ------------------------------------------------------------

    def sign_all(self, zsk_bits: int = 2048, rollover: bool = False,
                 root_only: bool = False) -> None:
        """Sign the hierarchy (and install DS records at delegations)."""
        targets = [self.root_zone] if root_only else self.zones
        for zone in targets:
            sign_zone(zone, zsk_bits=zsk_bits, rollover=rollover)
        # DS records: parent publishes a digest of the child's KSK.
        if root_only:
            return
        for zone in self.zones:
            if zone.origin.is_root():
                continue
            parent = self._parent_zone(zone.origin)
            if parent is None:
                continue
            child_ksk = make_dnskey(zone.origin, 2048, flags=KSK_FLAGS)
            parent.add(RRset(zone.origin, RRType.DS, 86400,
                             [make_ds(zone.origin, child_ksk)]))

    def _parent_zone(self, origin: Name) -> Zone | None:
        name = origin
        while not name.is_root():
            name = name.parent()
            zone = self.zone_by_origin.get(name)
            if zone is not None:
                return zone
        return self.zone_by_origin.get(Name.root())

    # -- acting as "the Internet" ----------------------------------------------

    def root_hints(self) -> list[RootHint]:
        ns = self.root_zone.apex_ns
        hints = []
        for rdata, addr in zip(ns.rdatas, self.root_addrs):
            hints.append(RootHint(rdata.target, addr))
        return hints

    def ground_truth_resolve(self, qname: Name, qtype: int):
        """Direct (no-network) iterative resolution: the reference
        answer a correct replay must reproduce."""
        from repro.dns.zone import LookupStatus
        zone = self.root_zone
        for _ in range(16):
            result = zone.lookup(qname, qtype)
            if result.status == LookupStatus.DELEGATION:
                cut = result.authority[0].name
                child = self.zone_by_origin.get(cut)
                if child is None:
                    return result
                zone = child
                continue
            return result
        raise RuntimeError("delegation loop in model internet")

    def random_qname(self, rng: random.Random,
                     junk_probability: float = 0.0) -> str:
        """A plausible query name: a host under a random SLD, or junk."""
        if rng.random() < junk_probability:
            label = "".join([rng.choice("abcdefghijklmnop")
                             for _ in range(10)])
            return f"{label}.invalid{rng.randrange(1000)}."
        # An SLD is never the root, so a host label joins its text with
        # one dot, as Name.prepend(label).to_text() would render it.
        text = rng.choice(self.domains).text
        kind = rng.random()
        if kind < 0.35:
            return "www." + text
        if kind < 0.55:
            return text
        if kind < 0.7:
            return "mail." + text
        return f"host{rng.randrange(4)}.{text}"

    def zone_count(self) -> int:
        return len(self.zones)

    # -- CDN-style churn ------------------------------------------------------

    def rotate_addresses(self, fraction: float = 0.3,
                         seed: int = 0) -> list[Name]:
        """Change some domains' apex A records, like CDNs rebalancing
        or zones being modified mid-rebuild (§2.3 'Handle inconsistent
        replies': 'the address mapping for names may change over time,
        such as CDN redirecting').  Returns the changed names."""
        rng = random.Random(seed)
        changed = []
        for domain in self.domains:
            if rng.random() >= fraction:
                continue
            rrset = domain.zone.get_rrset(domain.name, RRType.A)
            if rrset is None:
                continue
            # Through the zone, so servers built on it see the change.
            domain.zone.replace(RRset(domain.name, RRType.A, rrset.ttl,
                                      [A(self.alloc.allocate())]))
            changed.append(domain.name)
        return changed
