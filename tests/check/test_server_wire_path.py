"""The server's wire-level miss path against the plain engine.

With the precompiled-answer cache on, ``DnsResponder`` reads a plain
query's question straight off the wire and answers referrals and denials
by splicing the question in front of a stored section template
(docs/BACKENDS.md); ``answer_cache=False`` is the plain engine — full
decode, lookup, full encode — and the reference.  Here: the two return
the same bytes and keep the same books for qnames drawn to collide with
the names in the body, ``read_question`` agrees with the full decoder
wherever it answers at all, and ``ReplayConfig(check=True)`` really
compares — a planted bug in the splice raises
:class:`InvariantViolation` and goes unnoticed without.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzzing import hostile_wire, plain_queries
from repro.check.invariants import InvariantViolation
from repro.check.scenarios import conformance_wire_zone
from repro.dns.constants import Flag, Opcode, RRType
from repro.dns.dnssec import sign_zone
from repro.dns.message import Edns, Message, read_question
from repro.dns.name import Name
from repro.dns.rdata import A, CNAME, NS
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.experiments.harness import authoritative_world, root_zone_world
from repro.server import answercache
from repro.server.responder import DnsResponder
from repro.trace.record import QueryRecord, Trace

CLIENT = ("192.0.2.77", 4242)


def N(text):
    return Name.from_text(text)


def tricky_zone() -> Zone:
    """Names arranged so qnames and body names share suffixes: an NS
    target deep under its own cut, one under a sibling, a CNAME into a
    delegation, a wildcard."""
    origin = N("zone.test.")
    zone = Zone(origin)
    zone.add(make_soa(origin))
    zone.add(RRset(origin, RRType.NS, 3600, [NS(N("ns.zone.test."))]))
    zone.add(RRset(N("ns.zone.test."), RRType.A, 3600, [A("192.0.2.1")]))
    zone.add(RRset(N("d.zone.test."), RRType.NS, 3600,
                   [NS(N("x.y.d.zone.test.")), NS(N("ns.e.zone.test."))]))
    zone.add(RRset(N("x.y.d.zone.test."), RRType.A, 3600, [A("192.0.2.2")]))
    zone.add(RRset(N("e.zone.test."), RRType.NS, 3600,
                   [NS(N("ns.e.zone.test.")), NS(N("ns.zone.test."))]))
    zone.add(RRset(N("ns.e.zone.test."), RRType.A, 3600, [A("192.0.2.3")]))
    zone.add(RRset(N("alias.zone.test."), RRType.CNAME, 300,
                   [CNAME(N("host.d.zone.test."))]))
    zone.add(RRset(N("*.w.zone.test."), RRType.A, 300, [A("192.0.2.4")]))
    return zone


def signed(zone: Zone) -> Zone:
    sign_zone(zone)
    return zone


def model_root(sign: bool) -> Zone:
    internet = root_zone_world(tlds=3, slds_per_tld=2, seed=3)
    if sign:
        internet.sign_all(root_only=True)
    return internet.root_zone


ZONES = [conformance_wire_zone(), signed(conformance_wire_zone()),
         model_root(False), model_root(True), tricky_zone(),
         signed(tricky_zone())]


def body_names(zone: Zone) -> list[Name]:
    """Every name a response from *zone* can carry."""
    names = {Name.root(), zone.origin}
    for rrset in zone.rrsets():
        names.add(rrset.name)
        for rdata in rrset.rdatas:
            for attr in ("target", "mname", "rname", "next_name"):
                if isinstance(getattr(rdata, attr, None), Name):
                    names.add(getattr(rdata, attr))
    return sorted(names)


POOLS = [body_names(zone) for zone in ZONES]
_EXTRA = st.sampled_from((b"a", b"ns", b"x", b"y", b"www", b"zz9", b"*",
                          b"L" * 63))
_QTYPES = st.sampled_from((RRType.A, RRType.NS, RRType.DS, RRType.ANY,
                           RRType.SOA, RRType.CNAME, RRType.TXT, RRType.AAAA))


@st.composite
def colliding_qname(draw, base: Name) -> Name:
    """*base*, a proper suffix of it or an extension of one, in mixed
    case, up to 63-byte labels and 255-byte names."""
    labels = list(base.labels[draw(st.integers(0, len(base.labels))):])
    labels = draw(st.lists(_EXTRA, max_size=4)) + labels
    if draw(st.integers(0, 3)) == 0:            # pad to the very limit
        room = 254 - sum(1 + len(label) for label in labels)
        while room > 1:
            labels.insert(0, b"p" * min(63, room - 1))
            room -= 1 + len(labels[0])
    while sum(1 + len(label) for label in labels) > 254:
        labels.pop(0)
    if draw(st.booleans()):
        labels = [label.swapcase() for label in labels]
    return Name(labels)


_FLAGS = st.tuples(st.booleans(), st.none() | st.builds(
    Edns, payload=st.sampled_from((512, 1232, 4096)), do=st.booleans()))


@st.composite
def query_batches(draw):
    """(zone index, [(wire, proto)]): a few queries against one zone,
    mostly around one body name and with one set of flags, so later ones
    meet the templates earlier ones left."""
    index = draw(st.integers(0, len(ZONES) - 1))
    bases = st.sampled_from(POOLS[index])
    base, flags = draw(bases), draw(_FLAGS)
    queries = []
    for _ in range(draw(st.integers(2, 6))):
        rd, edns = flags if draw(st.integers(0, 3)) else draw(_FLAGS)
        qname = draw(colliding_qname(
            base if draw(st.integers(0, 3)) else draw(bases)))
        message = Message.make_query(
            qname, draw(_QTYPES), msg_id=draw(st.integers(0, 0xFFFF)),
            rd=rd, edns=edns)
        queries.append((message.to_wire(),
                        draw(st.sampled_from(("udp", "tcp")))))
    return index, queries


def books(responder):
    return (responder.queries_handled, responder.responses_sent,
            responder.refused,
            [(e.qname.labels, e.qtype, e.proto, e.rcode, e.response_size)
             for e in responder.query_log])


def assert_same_as_plain(zone, queries):
    """Cache on, each query asked twice (miss path, then full-question
    hit), against the plain engine asked twice."""
    fast = DnsResponder(zones=[zone], log_queries=True)
    plain = DnsResponder(zones=[zone], log_queries=True, answer_cache=False)
    for wire, proto in queries:
        expected = plain.reply_wire(proto, wire, *CLIENT)
        assert plain.reply_wire(proto, wire, *CLIENT) == expected
        assert fast.reply_wire(proto, wire, *CLIENT) == expected
        assert fast.reply_wire(proto, wire, *CLIENT) == expected
    assert books(fast) == books(plain)
    return fast.answer_cache


# max_examples comes from the loaded profile, so the CI fuzz job's
# seeded sweep can deepen these.
@settings(deadline=None)
@given(query_batches())
def test_precompiled_responses_equal_the_plain_engine(batch):
    index, queries = batch
    assert_same_as_plain(ZONES[index], queries)


@pytest.mark.parametrize("index", range(len(ZONES)))
def test_every_body_name_and_its_neighbours(index):
    """The deterministic core of the property above: every body name,
    its suffixes, one-label extensions and a deep junk name, under every
    flag combination — and the templates really were used."""
    qnames = set()
    for name in POOLS[index]:
        qnames.update(name.ancestors())
        qnames.update(name.prepend(label) for label in (b"a", b"NS", b"x"))
        qnames.add(Name((b"q" * 63, b"r" * 40) + name.labels[-3:]))
    queries = []
    for i, qname in enumerate(sorted(qnames)):
        for edns in (None, Edns(payload=512, do=True), Edns(payload=4096)):
            qtype = (RRType.A, RRType.DS, RRType.ANY, RRType.NS)[i % 4]
            queries.append((Message.make_query(
                qname, qtype, msg_id=i, rd=bool(i & 1),
                edns=edns).to_wire(), ("udp", "tcp")[i // 2 % 2]))
    cache = assert_same_as_plain(ZONES[index], queries)
    assert cache.template_hits > cache.template_builds > 0
    assert len(cache.templates) <= answercache.TEMPLATE_STORE


@settings(deadline=None)
@given(hostile_wire() | plain_queries() | st.binary(max_size=80))
def test_read_question_agrees_with_the_full_decoder(blob):
    read = read_question(blob)
    if read is None:
        return
    rd, qname, qtype, qclass, end, edns = read
    message = Message.from_wire(blob)       # must not raise
    assert not message.is_response and message.opcode == Opcode.QUERY
    assert not message.all_rrsets()
    assert rd == bool(message.flags & Flag.RD)
    question = message.question
    assert (qname, qname.labels, hash(qname)) == (
        question.qname, question.qname.labels, hash(question.qname))
    assert (qtype, qclass) == (question.qtype, question.qclass)
    assert end == 12 + qname.wire_length() + 4
    if edns is None:
        assert message.edns is None and end == len(blob)
    else:
        assert message.edns == Edns(payload=edns[0], do=edns[1])
        assert end + 11 == len(blob)


def test_read_question_declines_everything_that_is_not_plain():
    query = Message.make_query(N("www.example.com."), RRType.A, msg_id=7,
                               edns=Edns(payload=1232, do=True))
    wire = query.to_wire()
    assert read_question(wire) == (False, N("www.example.com."), RRType.A,
                                   1, 33, (1232, True))
    bare = wire[:10] + b"\x00\x00" + wire[12:33]
    assert read_question(bare)[4:] == (33, None)
    for other in (
            wire[:2] + b"\x80" + wire[3:],                  # QR set
            wire[:2] + b"\x28" + wire[3:],                  # opcode UPDATE
            wire[:5] + b"\x02" + wire[6:],                  # two questions
            wire[:7] + b"\x01" + wire[8:],                  # an answer
            wire[:11] + b"\x02" + wire[12:],                # two additionals
            wire + b"\x00",                                 # trailing byte
            bare + b"\x00",
            wire[:-1],                                      # cut short
            wire[:12] + b"\xc0\x0c" + wire[29:],            # pointer qname
            wire[:33] + b"\x01x" + wire[34:],               # OPT not at root
            wire[:38] + b"\x01" + wire[39:],                # extended rcode
            wire[:39] + b"\x01" + wire[40:],                # EDNS version 1
            wire[:-2] + b"\x00\x04\x00\x0a\x00\x00"):       # an option
        assert read_question(other) is None, other.hex()


# -- check=True compares the wire-level forms with the plain engine -----------

def junk_trace():
    """Referrals and denials under the tricky zone with qnames of many
    lengths, some sharing a suffix with an NS target."""
    names = ["a.d.zone.test.", "bbb.d.zone.test.", "q.y.d.zone.test.",
             "cc.x.y.d.zone.test.", "nope.zone.test.", "nopenope.zone.test.",
             "n.ns.zone.test.", "a.e.zone.test.", "a.ns.e.zone.test."]
    return Trace([QueryRecord(time=0.01 * i, src=f"172.16.0.{i % 3 + 1}",
                              qname=name, do=bool(i & 1), edns_payload=4096)
                  for i, name in enumerate(names * 2)])


def run(check):
    world = authoritative_world([signed(tricky_zone())], seed=6, check=check,
                                client_instances=1, queriers_per_instance=2)
    return world.run(junk_trace()).report


def test_checked_run_is_byte_identical_to_unchecked():
    assert run(check=True).to_json() == run(check=False).to_json()


def test_planted_pointer_shift_off_by_one_is_a_violation(monkeypatch):
    real = answercache._Template.tail_behind
    monkeypatch.setattr(answercache._Template, "tail_behind",
                        lambda self, end: real(self, end + (end != self.end)))
    assert run(check=False).answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="plain engine"):
        run(check=True)


def test_planted_wrong_matched_suffix_is_a_violation(monkeypatch):
    """A template that forgets which names its body holds serves a qname
    whose longer suffix the encoder would have compressed against."""
    real = answercache._Template
    monkeypatch.setattr(
        answercache, "_Template",
        lambda head, end, tail, pointers, suffixes: real(
            head, end, tail, pointers, frozenset()))
    assert run(check=False).answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="plain engine"):
        run(check=True)
