"""``Zone.lookup`` against a kept copy of the lookup it replaced.

The zone finds cuts and wildcards by probing slices of the qname's
lower-cased labels against two indexes, builds a name only for a depth
whose existence it must test, and finds the wildcard-denial NSEC owner
without prepending ``*`` to its origin.  :class:`PrependZone` keeps the
old walk — a ``Name`` per depth, ``prepend(b"*")`` for every wildcard
and NSEC probe — as the reference: on zones drawn signed and unsigned,
with and without wildcards, both must return equal results and the same
covering NSEC owners, down to the spelling of every owner, also for
qnames of exactly 255 wire bytes.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.constants import RRType
from repro.dns.dnssec import sign_zone
from repro.dns.name import Name
from repro.dns.rdata import A, CNAME, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.zone import LookupStatus, Zone, make_soa

ORIGIN = Name.from_text("zone.test.")


class PrependZone(Zone):
    """The lookup walk as it was before the indexes."""

    def find_zone_cut(self, qname):
        depth_origin = len(self.origin.labels)
        for depth in range(depth_origin + 1, len(qname.labels) + 1):
            candidate = qname.split(depth)
            node = self._nodes.get(candidate)
            if node and RRType.NS in node and candidate != self.origin:
                return candidate
        return None

    def _find_wildcard(self, qname):
        for depth in range(len(qname.labels) - 1,
                           len(self.origin.labels) - 1, -1):
            ancestor = qname.split(depth)
            wild = ancestor.prepend(b"*")
            node = self._nodes.get(wild)
            if node is not None:
                return node, wild
            if ancestor in self._nodes or ancestor in self._non_terminals:
                if depth < len(qname.labels):
                    break
        return None, None

    def _covering_nsec_owners(self, qname):
        if self._sorted_names is None:
            self._sorted_names = sorted((n.canonical_key(), n)
                                        for n in self._nodes)
        names = self._sorted_names
        if not names:
            return ()
        return tuple(
            names[max(0, bisect.bisect_left(
                names, (target.canonical_key(),)) - 1)][1]
            for target in (qname, self.origin.prepend(b"*")))


def reference(zone: Zone) -> PrependZone:
    copy = PrependZone(zone.origin)
    for rrset in zone.rrsets():
        copy.add(rrset)
    return copy


def described(result):
    """A lookup result as comparable data, owner spelling included."""
    return (result.status, result.wildcard, result.shared, [
        [(rrset.name.labels, rrset.rtype, rrset.ttl,
          sorted(rdata.to_wire() for rdata in rrset.rdatas))
         for rrset in section]
        for section in (result.answers, result.authority, result.additional)])


def assert_same_lookup(zone, ref, qname, qtype, dnssec):
    assert described(zone.lookup(qname, qtype, dnssec=dnssec)) == \
        described(ref.lookup(qname, qtype, dnssec=dnssec)), (qname, qtype)
    assert zone.find_zone_cut(qname) == ref.find_zone_cut(qname)
    new_node, new_wild = zone._find_wildcard(qname)
    old_node, old_wild = ref._find_wildcard(qname)
    assert (new_node is None, new_wild) == (old_node is None, old_wild)
    assert [owner.labels for owner in zone._covering_nsec_owners(qname)] \
        == [owner.labels for owner in ref._covering_nsec_owners(qname)]


# -- drawn zones and qnames ---------------------------------------------------

# "!" sorts between the origin and "*.<origin>": the wildcard-denial
# NSEC owner is then not the apex.
_LABELS = st.sampled_from((b"a", b"B", b"ns", b"*", b"!", b"w", b"x",
                           b"zz"))
_KINDS = st.sampled_from(("A", "TXT", "NS", "CNAME"))


def _rrset(owner: Name, kind: str) -> RRset:
    if kind == "NS":
        return RRset(owner, RRType.NS, 3600, [NS(owner.prepend(b"ns"))])
    if kind == "CNAME":
        return RRset(owner, RRType.CNAME, 300,
                     [CNAME(ORIGIN.prepend(b"a"))])
    if kind == "TXT":
        return RRset(owner, RRType.TXT, 300, [TXT((b"t",))])
    return RRset(owner, RRType.A, 300, [A("192.0.2.1")])


@st.composite
def zones(draw) -> Zone:
    """A zone under ``zone.test.``: owners of one to three labels drawn
    from a small alphabet (``*`` included, so wildcards, wildcards under
    wildcards and ``*`` mid-name all occur), each with one RRset, glue
    for some cuts, nested cuts; signed or not."""
    zone = Zone(ORIGIN)
    zone.add(make_soa(ORIGIN))
    zone.add(RRset(ORIGIN, RRType.NS, 3600, [NS(ORIGIN.prepend(b"ns"))]))
    entries = draw(st.lists(st.tuples(st.lists(_LABELS, min_size=1,
                                               max_size=3), _KINDS),
                            max_size=8))
    for labels, kind in entries:
        owner = Name(tuple(labels) + ORIGIN.labels)
        zone.add(_rrset(owner, kind))
        if kind == "NS" and draw(st.booleans()):
            zone.add(RRset(owner.prepend(b"ns"), RRType.A, 3600,
                           [A("192.0.2.53")]))
    if draw(st.booleans()):
        sign_zone(zone)
    return zone


@st.composite
def qnames(draw, zone: Zone) -> Name:
    """A name of *zone*, a suffix of one under the origin, or one with
    up to three labels more; in mixed case."""
    base = draw(st.sampled_from(sorted(zone.names())))
    extra = draw(st.lists(_LABELS | st.just(b"q" * 63), max_size=3))
    labels = list(extra) + list(base.labels)
    while sum(1 + len(label) for label in labels) > 254:
        labels.pop(0)
    if draw(st.booleans()):
        labels = [label.swapcase() for label in labels]
    return Name(labels)


_QTYPES = st.sampled_from((RRType.A, RRType.NS, RRType.DS, RRType.TXT,
                           RRType.ANY, RRType.CNAME, RRType.AAAA))


@settings(deadline=None)
@given(st.data())
def test_lookup_equals_the_prepend_walk(data):
    zone = data.draw(zones())
    ref = reference(zone)
    for _ in range(data.draw(st.integers(1, 8))):
        assert_same_lookup(zone, ref, data.draw(qnames(zone)),
                           data.draw(_QTYPES), data.draw(st.booleans()))


# -- qnames of exactly 255 wire bytes ------------------------------------------

def padded(suffix: Name, total: int = 255) -> Name:
    """*suffix* under labels that bring it to *total* wire bytes."""
    room = total - suffix.wire_length()
    labels = []
    while room > 0:
        size = min(63, room - 1)
        if room - (1 + size) == 1:      # a label needs two bytes at least
            size -= 1
        labels.append(b"p" * size)
        room -= 1 + size
    name = Name(labels + list(suffix.labels))
    assert name.wire_length() == total
    return name


def deep_encloser() -> Name:
    """An encloser 191 wire bytes long: one 63-byte label under it makes
    a 255-byte qname, and ``*`` under it a 193-byte wildcard owner."""
    return padded(ORIGIN.prepend(b"deep"), 191)


def limit_zone(signed: bool, wildcards: bool) -> Zone:
    zone = Zone(ORIGIN)
    zone.add(make_soa(ORIGIN))
    zone.add(RRset(ORIGIN, RRType.NS, 3600, [NS(ORIGIN.prepend(b"ns"))]))
    zone.add(RRset(ORIGIN.prepend(b"ns"), RRType.A, 3600, [A("192.0.2.1")]))
    zone.add(RRset(ORIGIN.prepend(b"cut"), RRType.NS, 3600,
                   [NS(ORIGIN.prepend(b"ns"))]))
    zone.add(RRset(deep_encloser(), RRType.A, 300, [A("192.0.2.2")]))
    if wildcards:
        zone.add(RRset(deep_encloser().prepend(b"*"), RRType.TXT, 300,
                       [TXT((b"deep",))]))
        zone.add(RRset(Name.from_text("*.w.zone.test."), RRType.A, 300,
                       [A("192.0.2.3")]))
    if signed:
        sign_zone(zone)
    return zone


LIMIT_ZONES = [(signed, wildcards) for signed in (False, True)
               for wildcards in (False, True)]


@pytest.mark.parametrize("signed,wildcards", LIMIT_ZONES)
def test_a_255_byte_qname_is_denied_like_the_prepend_walk(signed, wildcards):
    zone = limit_zone(signed, wildcards)
    ref = reference(zone)
    qname = padded(ORIGIN.prepend(b"nx"))
    for dnssec in (False, True):
        assert zone.lookup(qname, RRType.A, dnssec=dnssec).status \
            is LookupStatus.NXDOMAIN
        assert_same_lookup(zone, ref, qname, RRType.A, dnssec)
    under_cut = padded(ORIGIN.prepend(b"cut"))
    assert zone.lookup(under_cut, RRType.A).status is LookupStatus.DELEGATION
    assert_same_lookup(zone, ref, under_cut, RRType.A, True)


@pytest.mark.parametrize("signed,wildcards", LIMIT_ZONES)
def test_a_255_byte_qname_one_label_under_a_wildcard(signed, wildcards):
    """One 63-byte label under the deep encloser: 255 bytes on the wire,
    answered by ``*.<encloser>`` when the zone has it."""
    zone = limit_zone(signed, wildcards)
    ref = reference(zone)
    qname = deep_encloser().prepend(b"L" * 63)
    assert qname.wire_length() == 255
    for qtype in (RRType.TXT, RRType.A):
        for dnssec in (False, True):
            result = zone.lookup(qname, qtype, dnssec=dnssec)
            if not wildcards:
                assert result.status is LookupStatus.NXDOMAIN
            elif qtype == RRType.TXT:
                assert result.status is LookupStatus.SUCCESS
                assert result.wildcard
                assert result.answers[0].name.labels == qname.labels
            assert_same_lookup(zone, ref, qname, qtype, dnssec)
    shallow = padded(Name.from_text("w.zone.test."))
    expected = LookupStatus.SUCCESS if wildcards else LookupStatus.NXDOMAIN
    assert zone.lookup(shallow, RRType.A).status is expected
    assert_same_lookup(zone, ref, shallow, RRType.A, True)
