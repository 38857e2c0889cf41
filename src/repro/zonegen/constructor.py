"""Zone construction from captured traces (§2.3).

Given the responses captured at the recursive's upstream interface, the
constructor reverses them into per-zone master files:

1. scan every response for NS RRsets (delegations and apexes) and for
   the nameservers' A/AAAA records;
2. group the nameservers serving the same domain, and aggregate all
   response data by the responding source address into per-group
   *intermediate zones*;
3. split each intermediate zone at zone cuts into valid single-origin
   zones (a nameserver can serve several zones, so an intermediate zone
   may mix domains);
4. repair what traces never carry (fake-but-valid SOA, explicit NS
   fetch), resolving conflicting answers first-one-wins (§2.3 "Handle
   inconsistent replies").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.zone import Zone
from repro.zonegen.harvest import CapturedResponse
from repro.zonegen.repair import repair_zone


@dataclass
class IntermediateZone:
    """Aggregated response data for one nameserver group (pre-split)."""

    group_addrs: tuple[str, ...]
    rrsets: dict[tuple[Name, int], RRset] = field(default_factory=dict)

    def add_first_wins(self, rrset: RRset) -> None:
        """§2.3: 'we choose the first answer when there are multiple
        differing responses'."""
        key = (rrset.name, rrset.rtype)
        if key not in self.rrsets:
            self.rrsets[key] = rrset.copy()


@dataclass
class ConstructionResult:
    zones: list[Zone]
    intermediates: list[IntermediateZone]
    orphaned_rrsets: list[RRset]


class ZoneConstructor:
    """Reverses captured responses into zones.

    *root_hints* seeds the topmost level: no response ever carries the
    root's own NS RRset (referrals name the child's servers), so the
    constructor — like any resolver — must know the hierarchy's entry
    point a priori.
    """

    def __init__(self, responses: list[CapturedResponse],
                 root_hints: list | None = None):
        self.responses = responses
        # domain -> nameserver target names
        self.ns_names: dict[Name, set[Name]] = {}
        # nameserver target -> addresses
        self.ns_addrs: dict[Name, set[str]] = {}
        for hint in root_hints or []:
            self.ns_names.setdefault(Name.root(), set()).add(hint.name)
            self.ns_addrs.setdefault(hint.name, set()).add(hint.addr)

    # -- step 1: scan -----------------------------------------------------

    def scan(self) -> None:
        for captured in self.responses:
            for rrset in captured.message.all_rrsets():
                if rrset.rtype == RRType.NS:
                    targets = self.ns_names.setdefault(rrset.name, set())
                    for rdata in rrset.rdatas:
                        targets.add(rdata.target)
        # Addresses in a second pass: glue may arrive before the NS
        # record that makes its owner a nameserver.
        ns_targets = {t for targets in self.ns_names.values()
                      for t in targets}
        for captured in self.responses:
            for rrset in captured.message.all_rrsets():
                if rrset.rtype in (RRType.A, RRType.AAAA) \
                        and rrset.name in ns_targets:
                    addrs = self.ns_addrs.setdefault(rrset.name, set())
                    addrs.update(r.address for r in rrset.rdatas)

    # -- step 2: group and aggregate ------------------------------------------

    def group_nameservers(self) -> dict[tuple[str, ...], set[Name]]:
        """Map each nameserver group (sorted address tuple) to the
        domains it serves."""
        groups: dict[tuple[str, ...], set[Name]] = {}
        for domain, targets in self.ns_names.items():
            addrs: set[str] = set()
            for target in targets:
                addrs.update(self.ns_addrs.get(target, set()))
            if not addrs:
                continue
            key = tuple(sorted(addrs))
            groups.setdefault(key, set()).add(domain)
        return groups

    def aggregate(self) -> list[IntermediateZone]:
        """Aggregate response data by responding source address into the
        per-group intermediate zones."""
        groups = self.group_nameservers()
        addr_to_group: dict[str, tuple[str, ...]] = {}
        for key in groups:
            for addr in key:
                # An address may belong to several groups; responses from
                # it will be offered to each (the split fixes ownership).
                addr_to_group.setdefault(addr, key)
        intermediates: dict[tuple[str, ...], IntermediateZone] = {
            key: IntermediateZone(group_addrs=key) for key in groups}
        for captured in self.responses:
            key = addr_to_group.get(captured.server_addr)
            if key is None:
                continue
            intermediate = intermediates[key]
            for rrset in captured.message.all_rrsets():
                intermediate.add_first_wins(rrset)
        return list(intermediates.values())

    # -- step 3: split at zone cuts ----------------------------------------------

    def split(self, intermediates: list[IntermediateZone]) \
            -> tuple[dict[Name, Zone], list[RRset]]:
        """Split intermediate data into per-origin zones.

        The zone origins are the domains each group serves ("To
        determine zone cuts ... we probe for NS records at each change
        of hierarchy" — here, every name with an NS RRset is a cut).
        """
        groups = self.group_nameservers()
        zones: dict[Name, Zone] = {}
        orphans: list[RRset] = []
        for intermediate in intermediates:
            origins = sorted(groups.get(intermediate.group_addrs, set()),
                             key=lambda n: -len(n.labels))
            for origin in origins:
                zones.setdefault(origin, Zone(origin))
            for rrset in intermediate.rrsets.values():
                target = self._owning_origin(rrset, origins)
                if target is None:
                    orphans.append(rrset)
                    continue
                zone = zones[target]
                existing = zone.get_rrset(rrset.name, rrset.rtype)
                if existing is None:
                    zone.add(rrset)
        return zones, orphans

    def _owning_origin(self, rrset: RRset,
                       origins: list[Name]) -> Name | None:
        """Deepest origin this RRset belongs to; a child apex NS RRset
        also belongs to the parent as delegation, which the parent's own
        intermediate provides, so deepest-wins is correct here."""
        for origin in origins:  # sorted deepest-first
            if rrset.name.is_subdomain_of(origin):
                # A cut below this origin captures the rrset only if the
                # rrset's owner is at-or-under a *deeper* origin, which
                # deepest-first ordering already handled.
                return origin
        return None

    # -- full pipeline -----------------------------------------------------------------

    def construct(self, prober=None) -> ConstructionResult:
        """Run scan -> aggregate -> split -> repair."""
        self.scan()
        intermediates = self.aggregate()
        zones, orphans = self.split(intermediates)
        repaired = []
        for origin, zone in sorted(zones.items(),
                                   key=lambda kv: kv[0].canonical_key()):
            repair_zone(zone, self.ns_names.get(origin, set()),
                        self.ns_addrs, prober=prober)
            repaired.append(zone)
        return ConstructionResult(zones=repaired,
                                  intermediates=intermediates,
                                  orphaned_rrsets=orphans)


def construct_zones(responses: list[CapturedResponse], prober=None,
                    root_hints: list | None = None) -> ConstructionResult:
    """Convenience wrapper: captured responses -> repaired zones."""
    return ZoneConstructor(responses,
                           root_hints=root_hints).construct(prober=prober)
