"""Authoritative zone data and RFC 1034 §4.3.2 lookup semantics.

A :class:`Zone` stores RRsets indexed by owner name and type, knows its
delegations (zone cuts), synthesizes wildcard answers, distinguishes
NXDOMAIN from empty non-terminals, and can attach DNSSEC records
(RRSIG/NSEC) when the query asked for them.

The lookup result is a structured :class:`LookupResult` that the
authoritative server (:mod:`repro.server.authoritative`) turns into a
response message.  Keeping lookup separate from message building is what
lets the meta-DNS-server reuse one engine across many zones.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import CNAME, NS, SOA
from repro.dns.rrset import RRset


class NotInZone(LookupError):
    """The queried name is not at or below this zone's origin."""


class LookupStatus(enum.Enum):
    SUCCESS = "success"
    DELEGATION = "delegation"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    CNAME = "cname"


@dataclass(eq=False)
class LookupResult:
    """What a lookup found.  Read-only for callers: a *shared* result
    (a referral at one cut, a denial between the same NSEC owners, an
    unsigned NODATA) is
    one object for every such query until the next :meth:`Zone.add`, so
    a server can key encoded bytes on it (hence identity eq/hash)."""

    status: LookupStatus
    answers: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    additional: list[RRset] = field(default_factory=list)
    wildcard: bool = False
    shared: bool = False


class Zone:
    """One zone's worth of authoritative data."""

    def __init__(self, origin: Name):
        self.origin = origin
        self._nodes: dict[Name, dict[int, RRset]] = {}
        # RRSIGs keyed by (owner, covered type); kept out of the main node
        # map because several RRSIG sets can share an owner name.
        self._sigs: dict[tuple[Name, int], RRset] = {}
        # Names that exist only because something lives below them.
        self._non_terminals: set[Name] = set()
        # Delegation points by lower-cased labels, and wildcard owners
        # by their encloser's: lookups probe a depth with a slice of the
        # qname's key, not a Name.  Never shrinking: no RRset type ever
        # leaves a node (replace() re-adds the one it pops).
        self._cuts: dict[tuple[bytes, ...], Name] = {}
        self._wildcards: dict[tuple[bytes, ...], Name] = {}
        # (canonical key, name) pairs in canonical order, built lazily.
        self._sorted_names: list[tuple[tuple, Name]] | None = None
        # One result per cut / per covering NSEC owners / for unsigned
        # NODATA, until add().
        self._shared: dict[tuple | str, LookupResult] = {}
        # Monotonic mutation counter: consumers that memoize derived
        # data (the server's precompiled answer cache) compare it to
        # detect zone changes in O(1).
        self.version = 0

    # -- construction --------------------------------------------------

    def add(self, rrset: RRset) -> None:
        """Merge *rrset* into the zone (same-key rdatas are deduplicated)."""
        if not rrset.name.is_subdomain_of(self.origin):
            raise NotInZone(f"{rrset.name} outside {self.origin}")
        if rrset.rtype == RRType.RRSIG:
            for rdata in rrset.rdatas:
                key = (rrset.name, rdata.type_covered)
                existing = self._sigs.get(key)
                if existing is None:
                    self._sigs[key] = RRset(rrset.name, RRType.RRSIG,
                                            rrset.ttl, [rdata])
                else:
                    existing.add(rdata)
        else:
            node = self._nodes.setdefault(rrset.name, {})
            existing = node.get(rrset.rtype)
            if existing is None:
                node[rrset.rtype] = rrset.copy()
            else:
                for rdata in rrset.rdatas:
                    existing.add(rdata)
            key = rrset.name.folded
            if rrset.rtype == RRType.NS and key != self.origin.folded:
                self._cuts[key] = rrset.name
            if key[:1] == (b"*",):
                self._wildcards[key[1:]] = rrset.name
        self._register_ancestors(rrset.name)
        self._sorted_names = None
        self._shared.clear()
        self.version += 1

    def replace(self, rrset: RRset) -> None:
        """Make *rrset* the zone's whole RRset at its name and type (not
        for RRSIGs, which merge per covered type)."""
        node = self._nodes.get(rrset.name)
        if node is not None:
            node.pop(rrset.rtype, None)
        self.add(rrset)

    def _register_ancestors(self, name: Name) -> None:
        for ancestor in name.ancestors():
            if ancestor == self.origin:
                break
            if ancestor != name:
                self._non_terminals.add(ancestor)

    def add_record(self, name: Name, rtype: int, ttl: int, rdata) -> None:
        self.add(RRset(name, rtype, ttl, [rdata]))

    # -- accessors -------------------------------------------------------

    def get_rrset(self, name: Name, rtype: int) -> RRset | None:
        node = self._nodes.get(name)
        return node.get(int(rtype)) if node else None

    def get_sigs(self, name: Name, covered: int) -> RRset | None:
        return self._sigs.get((name, int(covered)))

    @property
    def soa(self) -> RRset | None:
        return self.get_rrset(self.origin, RRType.SOA)

    @property
    def apex_ns(self) -> RRset | None:
        return self.get_rrset(self.origin, RRType.NS)

    def names(self) -> list[Name]:
        return list(self._nodes)

    def rrsets(self) -> list[RRset]:
        out = []
        for node in self._nodes.values():
            out.extend(node.values())
        out.extend(self._sigs.values())
        return out

    def record_count(self) -> int:
        return sum(len(rrset) for rrset in self.rrsets())

    def estimated_memory(self) -> int:
        """Rough bytes of server memory this zone occupies when loaded."""
        total = 0
        for rrset in self.rrsets():
            total += rrset.name.wire_length() + 16
            for rdata in rrset.rdatas:
                total += rdata.wire_size() + 32
        return total

    def is_signed(self) -> bool:
        return bool(self._sigs)

    # -- delegation discovery -------------------------------------------

    def find_zone_cut(self, qname: Name) -> Name | None:
        """The closest enclosing delegation point above-or-at *qname*,
        or None if *qname* is within this zone's authoritative data."""
        cuts = self._cuts
        if cuts:
            # Walk from just below the apex down towards qname.
            key = qname.folded
            for cut in range(len(key) - len(self.origin.folded) - 1, -1, -1):
                name = cuts.get(key[cut:])
                if name is not None:
                    return name
        return None

    def glue_for(self, ns_rrset: RRset) -> list[RRset]:
        """A/AAAA records for in-zone nameserver targets (glue)."""
        glue = []
        for rdata in ns_rrset.rdatas:
            if not isinstance(rdata, NS):
                continue
            if not rdata.target.is_subdomain_of(self.origin):
                continue
            for rtype in (RRType.A, RRType.AAAA):
                rrset = self.get_rrset(rdata.target, rtype)
                if rrset is not None:
                    glue.append(rrset)
        return glue

    # -- lookup ------------------------------------------------------------

    def lookup(self, qname: Name, qtype: int, dnssec: bool = False,
               chase_cnames: bool = True,
               _chase_depth: int = 0) -> LookupResult:
        """Answer a query against this zone's data.

        *_chase_depth* is internal: in-zone CNAME chasing is bounded
        (real servers stop after a handful of links; a looped pair of
        CNAMEs must not recurse forever)."""
        if not qname.is_subdomain_of(self.origin):
            raise NotInZone(f"{qname} not in zone {self.origin}")
        qtype = int(qtype)

        cut = self.find_zone_cut(qname)
        if cut is not None and not (qtype == RRType.DS and qname == cut):
            return self._delegation(cut, dnssec)

        node = self._nodes.get(qname)
        if node is not None:
            return self._answer_from_node(qname, qtype, node, dnssec,
                                          wildcard=False,
                                          chase_cnames=chase_cnames,
                                          chase_depth=_chase_depth)

        wild_node, wild_name = self._find_wildcard(qname)
        if wild_node is not None:
            return self._answer_from_node(qname, qtype, wild_node, dnssec,
                                          wildcard=True,
                                          chase_cnames=chase_cnames,
                                          sig_owner=wild_name,
                                          chase_depth=_chase_depth)

        if qname in self._non_terminals:
            return self._nodata(qname, dnssec)
        return self._nxdomain(qname, dnssec)

    # -- internals ---------------------------------------------------------

    def _delegation(self, cut: Name, dnssec: bool) -> LookupResult:
        result = self._shared.get((cut, dnssec))
        if result is not None:
            return result
        ns_rrset = self._nodes[cut][RRType.NS]
        result = LookupResult(LookupStatus.DELEGATION,
                              authority=[ns_rrset],
                              additional=self.glue_for(ns_rrset),
                              shared=True)
        if dnssec:
            ds = self.get_rrset(cut, RRType.DS)
            if ds is not None:
                result.authority.append(ds)
                self._attach_sig(result.authority, cut, RRType.DS)
        self._shared[(cut, dnssec)] = result
        return result

    MAX_CNAME_CHASE = 8

    def _answer_from_node(self, qname: Name, qtype: int,
                          node: dict[int, RRset], dnssec: bool,
                          wildcard: bool, chase_cnames: bool,
                          sig_owner: Name | None = None,
                          chase_depth: int = 0) -> LookupResult:
        sig_owner = sig_owner or qname

        def synthesized(rrset: RRset) -> RRset:
            if not wildcard:
                return rrset
            return RRset(qname, rrset.rtype, rrset.ttl, list(rrset.rdatas),
                         rrset.rclass)

        if RRType.CNAME in node and qtype not in (RRType.CNAME, RRType.ANY):
            cname_rrset = synthesized(node[RRType.CNAME])
            result = LookupResult(LookupStatus.CNAME,
                                  answers=[cname_rrset], wildcard=wildcard)
            if dnssec:
                self._attach_sig(result.answers, sig_owner, RRType.CNAME,
                                 rename_to=qname if wildcard else None)
            if chase_cnames and chase_depth < self.MAX_CNAME_CHASE:
                target = node[RRType.CNAME].rdatas[0].target
                if target.is_subdomain_of(self.origin):
                    chained = self.lookup(target, qtype, dnssec=dnssec,
                                          _chase_depth=chase_depth + 1)
                    if chained.status in (LookupStatus.SUCCESS,
                                          LookupStatus.CNAME):
                        result.answers.extend(chained.answers)
                        if chained.status == LookupStatus.SUCCESS:
                            result.status = LookupStatus.SUCCESS
            return result

        if qtype == RRType.ANY:
            answers = [synthesized(r) for t, r in sorted(node.items())]
            if not answers:
                return self._nodata(qname, dnssec)
            result = LookupResult(LookupStatus.SUCCESS, answers=answers,
                                  wildcard=wildcard)
            if dnssec:
                for rtype in sorted(node):
                    self._attach_sig(result.answers, sig_owner, rtype,
                                     rename_to=qname if wildcard else None)
            return result

        rrset = node.get(qtype)
        if rrset is None:
            return self._nodata(qname, dnssec)
        result = LookupResult(LookupStatus.SUCCESS,
                              answers=[synthesized(rrset)], wildcard=wildcard)
        if dnssec:
            self._attach_sig(result.answers, sig_owner, qtype,
                             rename_to=qname if wildcard else None)
        if qtype == RRType.NS:
            result.additional.extend(self.glue_for(rrset))
        return result

    def _find_wildcard(self, qname: Name) -> tuple[dict[int, RRset] | None,
                                                   Name | None]:
        """Find the applicable ``*.<closest-encloser>`` node, if any."""
        wildcards = self._wildcards
        if not wildcards:
            return None, None
        labels, key = qname.labels, qname.folded
        for cut in range(1, len(key) - len(self.origin.folded) + 1):
            # The wildcard only applies if the closest encloser exists
            # and the next name down does not (RFC 4592).
            wild = wildcards.get(key[cut:])
            if wild is not None:
                return self._nodes[wild], wild
            ancestor = Name._trusted(labels[cut:], key[cut:])
            if ancestor in self._nodes or ancestor in self._non_terminals:
                # The encloser exists; a deeper wildcard can't apply.
                break
        return None, None

    def _nodata(self, qname: Name, dnssec: bool) -> LookupResult:
        if not dnssec:
            # Without DNSSEC the denial is the zone's SOA, whatever the
            # qname: one result for all of them.
            result = self._shared.get("nodata")
            if result is None:
                result = LookupResult(LookupStatus.NODATA, shared=True)
                if self.soa is not None:
                    result.authority.append(self.soa)
                self._shared["nodata"] = result
            return result
        result = LookupResult(LookupStatus.NODATA)
        if self.soa is not None:
            result.authority.append(self.soa)
            if dnssec:
                self._attach_sig(result.authority, self.origin, RRType.SOA)
        if dnssec:
            nsec = self.get_rrset(qname, RRType.NSEC)
            if nsec is not None:
                result.authority.append(nsec)
                self._attach_sig(result.authority, qname, RRType.NSEC)
        return result

    def _nxdomain(self, qname: Name, dnssec: bool) -> LookupResult:
        # The denial depends on qname only through its NSEC owners.
        owners = self._covering_nsec_owners(qname) if dnssec else ()
        result = self._shared.get((dnssec, *owners))
        if result is not None:
            return result
        result = LookupResult(LookupStatus.NXDOMAIN, shared=True)
        if self.soa is not None:
            result.authority.append(self.soa)
            if dnssec:
                self._attach_sig(result.authority, self.origin, RRType.SOA)
        for owner in owners:
            nsec = self.get_rrset(owner, RRType.NSEC)
            if nsec is not None and nsec not in result.authority:
                result.authority.append(nsec)
                self._attach_sig(result.authority, owner, RRType.NSEC)
        self._shared[(dnssec, *owners)] = result
        return result

    def _covering_nsec_owners(self, qname: Name) -> tuple[Name, ...]:
        """Owners of the NSEC records proving *qname*'s non-existence:
        the canonical predecessor and the wildcard-denial predecessor."""
        if self._sorted_names is None:
            self._sorted_names = sorted((n.canonical_key(), n)
                                        for n in self._nodes)
        names = self._sorted_names
        if not names:
            return ()
        # A 1-tuple sorts just before the pair with the same key.
        at = bisect.bisect_left(names, (qname.canonical_key(),))
        wild = bisect.bisect_left(
            names, (self.origin.canonical_key() + (b"*",),))
        return names[max(0, at - 1)][1], names[max(0, wild - 1)][1]

    def _attach_sig(self, section: list[RRset], owner: Name, covered: int,
                    rename_to: Name | None = None) -> None:
        sig = self._sigs.get((owner, int(covered)))
        if sig is None:
            return
        if rename_to is not None:
            sig = RRset(rename_to, sig.rtype, sig.ttl, list(sig.rdatas))
        if sig not in section:
            section.append(sig)

    # -- misc ----------------------------------------------------------------

    def validate(self) -> list[str]:
        """Sanity checks a real server performs at load; returns problems."""
        problems = []
        if self.soa is None:
            problems.append(f"zone {self.origin}: missing SOA at apex")
        if self.apex_ns is None:
            problems.append(f"zone {self.origin}: missing NS at apex")
        for node in self._nodes.values():
            for rrset in node.values():
                if rrset.rtype == RRType.CNAME and len(node) > 1:
                    others = [t for t in node
                              if t not in (RRType.CNAME, RRType.NSEC)]
                    if others:
                        problems.append(
                            f"{rrset.name}: CNAME coexists with other types")
        return problems

    def __repr__(self) -> str:
        return (f"Zone({self.origin.to_text()!r}, names={len(self._nodes)}, "
                f"records={self.record_count()})")


def make_soa(origin: Name, serial: int = 1, ttl: int = 3600) -> RRset:
    """A synthetic-but-valid SOA, as §2.3 'Recover Missing Data' requires."""
    rdata = SOA(mname=origin.prepend(b"ns1"),
                rname=origin.prepend(b"hostmaster"),
                serial=serial, refresh=7200, retry=900,
                expire=1209600, minimum=3600)
    return RRset(origin, RRType.SOA, ttl, [rdata])
