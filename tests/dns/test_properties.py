"""Property-based tests: invariants of zones and messages.

These target the core data structures with randomized inputs, per the
project's test-strategy (DESIGN.md §6).
"""

from hypothesis import given, settings, strategies as st

from repro.check.fuzzing import dns_messages, hostile_wire
from repro.dns.constants import Flag, RRType
from repro.dns.message import HEADER_SIZE, Message, read_header
from repro.dns.name import Name
from repro.dns.rdata import A, CNAME, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.wire import WireError
from repro.dns.zone import LookupStatus, Zone, make_soa

ORIGIN = Name.from_text("prop.test.")

_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                 min_size=1, max_size=12).filter(
    lambda s: not s.startswith("-") and not s.endswith("-"))


@st.composite
def names_under_origin(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    labels = [draw(_LABEL) for _ in range(depth)]
    name = ORIGIN
    for label in labels:
        name = name.prepend(label.encode())
    return name


@st.composite
def zones(draw):
    zone = Zone(ORIGIN)
    zone.add(make_soa(ORIGIN))
    zone.add(RRset(ORIGIN, RRType.NS, 3600, [NS(ORIGIN.prepend(b"ns"))]))
    zone.add(RRset(ORIGIN.prepend(b"ns"), RRType.A, 3600,
                   [A("192.0.2.1")]))
    count = draw(st.integers(0, 12))
    for i in range(count):
        owner = draw(names_under_origin())
        kind = draw(st.integers(0, 3))
        if kind == 0:
            zone.add(RRset(owner, RRType.A, 300,
                           [A(f"10.0.{i % 256}.{(i * 7) % 256}")]))
        elif kind == 1:
            zone.add(RRset(owner, RRType.TXT, 300, [TXT((b"t",))]))
        elif kind == 2 and owner != ORIGIN:
            node_types = {r.rtype for r in zone.rrsets()
                          if r.name == owner}
            if not node_types:
                zone.add(RRset(owner, RRType.CNAME, 300,
                               [CNAME(draw(names_under_origin()))]))
        elif kind == 3 and owner != ORIGIN:
            zone.add(RRset(owner, RRType.NS, 300,
                           [NS(owner.prepend(b"ns"))]))
    return zone


@settings(max_examples=80, deadline=None)
@given(zones(), names_under_origin(max_depth=4),
       st.sampled_from([RRType.A, RRType.TXT, RRType.NS, RRType.MX,
                        RRType.ANY]))
def test_lookup_never_crashes_and_classifies(zone, qname, qtype):
    result = zone.lookup(qname, qtype)
    if result.status == LookupStatus.SUCCESS:
        assert result.answers
        # Every returned answer is owned at-or-chained-from qname.
        assert result.answers[0].name == qname
    elif result.status == LookupStatus.CNAME:
        assert result.answers[0].rtype == RRType.CNAME
    elif result.status == LookupStatus.DELEGATION:
        ns = result.authority[0]
        assert ns.rtype == RRType.NS
        assert qname.is_subdomain_of(ns.name)
        assert ns.name != zone.origin
    elif result.status == LookupStatus.NXDOMAIN:
        # Nothing may exist at or below qname.
        assert zone.get_rrset(qname, qtype) is None
    elif result.status == LookupStatus.NODATA:
        assert zone.get_rrset(qname, qtype) is None


@settings(max_examples=80, deadline=None)
@given(zones(), names_under_origin(max_depth=4))
def test_lookup_deterministic(zone, qname):
    first = zone.lookup(qname, RRType.A)
    second = zone.lookup(qname, RRType.A)
    assert first.status == second.status
    assert len(first.answers) == len(second.answers)


# The message strategy is the shared one from repro.check.fuzzing
# (mixed A/TXT/NS/CNAME answers, EDNS with options) so the round-trip
# property and `ldp-verify --tier fuzz` exercise the same space.

@settings(max_examples=100, deadline=None)
@given(dns_messages())
def test_message_wire_round_trip(message):
    back = Message.from_wire(message.to_wire())
    assert back.msg_id == message.msg_id
    assert back.question == message.question

    def triples(section):
        return {(rrset.name, rrset.rtype, rdata.to_wire())
                for rrset in section for rdata in rrset}

    # Equal modulo duplicate-RR merging (RFC 2181: identical records in
    # an RRset are one record).
    assert triples(back.answer) == triples(message.answer)
    if message.edns is None:
        assert back.edns is None
    else:
        assert back.edns.do == message.edns.do
        assert back.edns.payload == message.edns.payload


# The header reader is what the querier matches responses with; the
# full decoder is its reference.  max_examples comes from the loaded
# profile, so the CI fuzz job's seeded sweep can deepen these.

def header_of(message):
    return (message.msg_id, message.is_response,
            bool(message.flags & Flag.TC), message.rcode)


@settings(deadline=None)
@given(dns_messages(), st.sets(st.sampled_from(list(Flag))),
       st.integers(0, 15))
def test_header_reader_agrees_with_full_decode(message, flags, rcode):
    message.flags = Flag(sum(flags))
    message.rcode = rcode
    wire = message.to_wire()
    assert read_header(wire) == header_of(message)
    assert read_header(wire) == header_of(Message.from_wire(wire))
    # Nothing past the header is looked at.
    assert read_header(wire[:HEADER_SIZE]) == read_header(wire)


@settings(deadline=None)
@given(hostile_wire())
def test_header_reader_raises_only_wire_error(blob):
    try:
        msg_id, qr, tc, rcode = read_header(blob)
    except WireError:
        assert len(blob) < HEADER_SIZE
        return
    assert len(blob) >= HEADER_SIZE
    assert 0 <= msg_id <= 0xFFFF and 0 <= rcode <= 15
    try:
        message = Message.from_wire(blob)
    except WireError:
        return
    # Whatever the full decoder accepts, the two agree on — up to the
    # extended rcode bits a mutated OPT TTL may carry, which only the
    # full decoder sees (check=True turns those into a violation).
    assert (msg_id, qr, tc, rcode) == (*header_of(message)[:3],
                                       message.rcode & 0xF)


@settings(max_examples=60, deadline=None)
@given(zones())
def test_zone_file_round_trip_preserves_lookups(zone):
    from repro.dns.zonefile import parse_zone, write_zone
    reparsed = parse_zone(write_zone(zone))
    for rrset in zone.rrsets():
        got = reparsed.get_rrset(rrset.name, rrset.rtype)
        assert got is not None
        assert sorted(r.to_wire() for r in got.rdatas) == \
            sorted(r.to_wire() for r in rrset.rdatas)


@settings(deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=20), max_size=8),
       st.data())
def test_sliced_names_equal_rebuilt_ones(labels, data):
    """``split``/``parent``/``ancestors`` slice an already-valid name
    through the private constructor: the result is indistinguishable
    from ``Name(labels)``."""
    name = Name(labels)
    depth = data.draw(st.integers(0, len(labels)))
    sliced = [name.split(depth)] + list(name.ancestors())
    rebuilt = [Name(labels[len(labels) - depth:])] + [
        Name(labels[cut:]) for cut in range(len(labels) + 1)]
    if labels:
        sliced.append(name.parent())
        rebuilt.append(Name(labels[1:]))
    other = Name([b"M"])
    for got, want in zip(sliced, rebuilt, strict=True):
        assert got == want and hash(got) == hash(want)
        assert got.labels == want.labels and got.folded == want.folded
        assert got.canonical_key() == want.canonical_key()
        assert got.to_text() == want.to_text()
        assert (got < other, other < got) == (want < other, other < want)
