"""The recursive resolver's wire path against the full codec.

The resolver reads a plain stub query's question off the wire
(``read_question``), assembles its upstream queries from bytes
(``plain_query``), decodes each upstream response from behind the
question it proved echoed (``decode_response``), and answers the stub
with an assembled address reply (``address_reply``) or one ``encode``
call (docs/RECURSIVE.md, "Wire path").  The reference is what it did
before: ``Message.from_wire`` on every stub query and upstream response,
``make_query().to_wire()`` upstream, a result message copied into
``make_response()`` and encoded — kept here as a test-local stub side,
never in ``src/``.  Here: the two give the same reply bytes and keep the
same books for plain and hostile stub queries, upstream query bytes
equal the full encoder's, a run without cookies calls the full codec
nowhere and ``decode_response`` once per upstream response, and
``ReplayConfig(check=True)`` really compares — a planted bug in each of
the four fast paths raises :class:`InvariantViolation` and goes
unnoticed without.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzzing import (dns_messages, dns_names, hostile_wire,
                                 plain_queries)
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.scenarios import (conformance_wire_zone, recursive_trace,
                                   run_recursive_scenario)
from repro.core.experiment import ExperimentConfig, RecursiveExperiment
from repro.dns.constants import Flag, RRType
from repro.dns.message import Edns, Message, Question, encode
from repro.dns.name import Name
from repro.dns.rdata import A, AAAA
from repro.dns.rrset import RRset
from repro.dns.wire import WireError
from repro.netsim import LinkParams, Simulator
from repro.replay.engine import ReplayConfig
from repro.server import AuthoritativeServer, RecursiveResolver, RootHint
from repro.server import recursive
from repro.trace.record import Trace

AUTH_ADDR, REC_ADDR, STUB_ADDR = "198.41.0.4", "10.1.0.2", "10.1.0.3"


def world():
    """The wire corpus zone on the one root hint: names under it are
    answered or denied, everything else is REFUSED until the resolver
    gives up."""
    sim = Simulator()
    AuthoritativeServer(sim.add_host("auth", [AUTH_ADDR], LinkParams()),
                        zones=[conformance_wire_zone()])
    resolver = RecursiveResolver(
        sim.add_host("recursive", [REC_ADDR], LinkParams()),
        [RootHint(Name.from_text("ns.conf.example."), AUTH_ADDR)])
    stub = sim.add_host("stub", [STUB_ADDR], LinkParams())
    return sim, resolver, stub


def reference_stub_side(resolver):
    """``RecursiveResolver._on_client_query`` as it was before the wire
    path: every stub query through the full decoder, every reply a
    result message copied into a second one."""
    def on_client_query(payload, src, sport):
        try:
            query = Message.from_wire(payload)
        except WireError:
            return
        if query.question is None or query.is_response:
            return
        resolver.client_queries += 1
        if query.edns is not None:
            limit = min(resolver.edns_payload, max(512, query.edns.payload))
        else:
            limit = 512

        def reply(result):
            response = query.make_response()
            response.flags |= Flag.RA
            response.rcode = result.rcode
            response.answer = result.answer
            response.authority = result.authority
            resolver._client_sock.sendto(response.to_wire(max_size=limit),
                                         src, sport)

        resolver.resolve(query.question.qname, query.question.qtype, reply)
    return on_client_query


def ask(payloads, reference):
    """Replies in arrival order, and the books, after *payloads*."""
    sim, resolver, stub = world()
    if reference:
        resolver._client_sock.on_datagram = reference_stub_side(resolver)
    replies = []
    sock = stub.udp_socket()
    sock.on_datagram = lambda data, src, sport: replies.append(data)
    for payload in payloads:
        sock.sendto(payload, REC_ADDR, 53)
    sim.run_until_idle()
    return replies, resolver.stats, resolver.cache.counters()


# max_examples comes from the loaded profile, so the CI fuzz job's
# seeded sweep can deepen these.
@settings(deadline=None)
@given(st.lists(plain_queries() | hostile_wire(), min_size=1, max_size=5))
def test_stub_replies_and_books_equal_the_reference(payloads):
    assert ask(payloads, reference=False) == ask(payloads, reference=True)


def test_every_stub_query_shape_by_hand():
    """The deterministic core of the property above: EDNS or none, small
    and large payloads, DO, RD clear, mixed case, a denied name, a
    refused one — and the shapes ``read_question`` declines."""
    def query(qname, **kwargs):
        return Message.make_query(Name.from_text(qname), RRType.A,
                                  **kwargs).to_wire()
    plain = [
        query("www.conf.example.", msg_id=1, rd=True),
        query("WwW.Conf.Example.", msg_id=2, rd=True,
              edns=Edns(payload=4096, do=True)),
        query("nope.conf.example.", msg_id=3, edns=Edns(payload=100)),
        query("elsewhere.test.", msg_id=0xFFFF, rd=True,
              edns=Edns(payload=1232)),
    ]
    declined = [
        query("www.conf.example.", msg_id=5,
              edns=Edns(options=b"\x00\x0a\x00\x08" + b"c" * 8)),
        plain[0][:2] + b"\x29" + plain[0][3:],          # opcode UPDATE
        plain[0][:12] + b"\x03www\xc0\x04" + plain[0][-4:],  # a pointer
        plain[0] + b"\x00",                             # trailing byte
        plain[0][:2] + b"\x81" + plain[0][3:],          # a response
        plain[0][:5] + b"\x00" + plain[0][6:17],        # no question
        b"\x00" * 7,
    ]
    assert all(recursive.read_question(wire) for wire in plain)
    assert not any(recursive.read_question(wire) for wire in declined)
    fast = ask(plain + declined, reference=False)
    assert fast == ask(plain + declined, reference=True)
    replies, stats, _ = fast
    assert stats["client_queries"] == len(plain) + 4 == len(replies)


QTYPES = st.sampled_from((RRType.A, RRType.NS, RRType.AAAA, RRType.DS,
                          RRType.ANY, RRType.TXT, 0xFFFF))


@settings(deadline=None)
@given(dns_names(max_labels=8) | st.just(Name([b"L" * 63] * 3 + [b"m" * 61])),
       QTYPES, st.sampled_from((512, 1232, 4096, 0xFFFF)))
def test_upstream_query_bytes_equal_the_full_encoder(qname, qtype, payload):
    _, resolver, _ = world()
    resolver.edns_payload = payload
    sent = []
    resolver._upstream_sock.sendto = (
        lambda wire, addr, port: sent.append(wire))
    resolver._send_upstream(qname, qtype, AUTH_ADDR, None, None)
    (msg_id, pending), = resolver._pending.items()
    assert sent == [Message.make_query(
        qname, qtype, msg_id=msg_id, rd=False,
        edns=Edns(payload=payload)).to_wire()]
    assert pending.question == sent[0][12:-11]


@settings(deadline=None)
@given(dns_messages(), st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                                max_size=4))
def test_upstream_decode_equals_the_full_decoder(message, owned):
    """Records in every section, some owned by the qname (in either
    case, so compressed against it): decoding from behind the question
    reads what the full decoder reads."""
    qname = message.question.qname
    for section, swapped in owned:
        owner = Name([label.swapcase() for label in qname.labels]
                     if swapped else qname.labels)
        (message.answer, message.authority, message.additional)[
            section].append(RRset(owner, RRType.AAAA, 60,
                                  [AAAA(f"2001:db8::{section}")]))
    wire = message.to_wire()
    decoded = recursive.decode_response(wire, message.question)
    full = Message.from_wire(wire)
    assert decoded.question is message.question
    assert (decoded, decoded.to_text()) == (full, full.to_text())


@settings(deadline=None)
@given(dns_names(max_labels=8), st.sampled_from((RRType.A, RRType.AAAA)),
       st.integers(0, 40), st.booleans(), st.none() | st.booleans(),
       st.sampled_from((512, 1232, 4096)))
def test_address_reply_equals_the_encoder(qname, rtype, count, swapped, do,
                                          limit):
    query = Message.make_query(qname, RRType.A, msg_id=7, edns=None
                               if do is None else Edns(do=do)).to_wire()
    owner = Name([label.swapcase() for label in qname.labels]
                 if swapped else qname.labels)
    rdata = A if rtype == RRType.A else AAAA
    rrset = RRset(owner, rtype, 300, [
        rdata(f"10.0.{i}.1" if rtype == RRType.A else f"2001:db8::{i}")
        for i in range(count)])
    word = 0x8580
    assembled = recursive.address_reply(
        7, word, query[12:12 + qname.wire_length() + 4], rrset,
        None if do is None else (4096, do), limit)
    encoded = encode(7, word, Question(qname, RRType.A), [rrset], (), (),
                     None if do is None else Edns(do=do), limit, None)
    assert assembled in (encoded, None)
    # Declined exactly when the encoder truncates (TC), or for the root,
    # which no pointer stands for.
    assert (assembled is None) == (encoded[2] & 0x02 == 0x02
                                   or qname == Name.root())


# -- no step runs the full codec; one upstream decode per response ------------

def small_run(check=False, records=60):
    internet, trace = recursive_trace()
    experiment = RecursiveExperiment(
        internet.zones, internet.root_hints(), ExperimentConfig(
            rtt=0.004, replay=ReplayConfig(
                client_instances=1, queriers_per_instance=2, mode="direct",
                seed=5, check=check)))
    result = experiment.run(Trace(trace.records[:records]), extra_time=2.0)
    return experiment, result.report


def test_codec_calls_per_stub_query(monkeypatch):
    counted = Counter()
    full_decode, full_encode = Message.from_wire.__func__, Message.to_wire
    upstream = recursive.decode_response

    def from_wire(cls, data):
        counted["from_wire"] += 1
        return full_decode(cls, data)

    def to_wire(self, *args, **kwargs):
        counted["to_wire"] += 1
        return full_encode(self, *args, **kwargs)

    def decode_response(wire, question):
        counted["decode_response"] += 1
        return upstream(wire, question)

    monkeypatch.setattr(Message, "from_wire", classmethod(from_wire))
    monkeypatch.setattr(Message, "to_wire", to_wire)
    monkeypatch.setattr(recursive, "decode_response", decode_response)
    experiment, report = small_run()
    stats = experiment.resolver.stats
    assert report.answered_fraction() == 1.0
    assert stats["client_queries"] == 60 and stats["upstream_queries"] > 30
    # Every upstream query is answered, and each answer is decoded once,
    # from behind its question; no step runs the full codec (the
    # meta-DNS-server encodes its misses straight from the lookup).
    assert counted == {"decode_response": stats["upstream_queries"]}


# -- check=True compares the wire path with the full codec --------------------

def test_checked_run_is_byte_identical_and_every_hook_runs(monkeypatch):
    ran = Counter()
    for hook in ("on_resolver_question", "on_upstream_query",
                 "on_upstream_response", "on_resolver_reply"):
        def spy(self, *args, _real=getattr(InvariantChecker, hook),
                _hook=hook):
            ran[_hook] += 1
            return _real(self, *args)
        monkeypatch.setattr(InvariantChecker, hook, spy)
    experiment, checked = small_run(check=True)
    stats = experiment.resolver.stats
    assert ran == {"on_resolver_question": 60, "on_resolver_reply": 60,
                   "on_upstream_query": stats["upstream_queries"],
                   "on_upstream_response": stats["upstream_queries"]}
    assert checked.to_json() == small_run(check=False)[1].to_json()


def test_recursive_golden_scenario_is_clean_under_check():
    experiment, result = run_recursive_scenario(check=True)
    assert experiment.resolver.check is not None
    assert result.report.answered_fraction() == 1.0


def test_planted_question_read_bug_is_a_violation(monkeypatch):
    real = recursive.read_question

    def flipped_rd(wire):
        read = real(wire)
        return read and (not read[0],) + read[1:]
    monkeypatch.setattr(recursive, "read_question", flipped_rd)
    assert small_run(check=False)[1].answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="question read off"):
        small_run(check=True)


def test_planted_upstream_query_bug_is_a_violation(monkeypatch):
    real = recursive.plain_query
    monkeypatch.setattr(                                 # RD set upstream
        recursive, "plain_query",
        lambda qname, qtype, qclass, rd, edns: real(qname, qtype, qclass,
                                                    True, edns))
    assert small_run(check=False)[1].answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="upstream query bytes"):
        small_run(check=True)


def test_planted_upstream_decode_bug_is_a_violation(monkeypatch):
    real = recursive.decode_response

    def drops_a_glue_record(wire, question):
        message = real(wire, question)
        if message.additional and len(message.additional[-1].rdatas) > 1:
            message.additional[-1].rdatas.pop()
        elif len(message.additional) > 1:
            message.additional.pop()
        return message
    monkeypatch.setattr(recursive, "decode_response", drops_a_glue_record)
    assert small_run(check=False)[1].answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="full decoder says"):
        small_run(check=True)


def test_planted_reply_bug_is_a_violation(monkeypatch):
    monkeypatch.setattr(recursive, "_REPLY_FLAGS",       # RA forgotten
                        {rd: word & ~Flag.RA for rd, word
                         in recursive._REPLY_FLAGS.items()})
    assert small_run(check=False)[1].answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="two-message reference"):
        small_run(check=True)
