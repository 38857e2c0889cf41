"""Tests for repro.dns.message: header, sections, EDNS, truncation."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.constants import Flag, Opcode, Rcode, RRClass, RRType
from repro.dns.message import Edns, Message, Question, read_header
from repro.dns.name import Name
from repro.dns.rdata import A, NS, SOA
from repro.dns.rrset import RRset
from repro.dns.wire import WireError


def make_answer():
    query = Message.make_query("www.example.com.", RRType.A,
                               msg_id=4660, rd=True)
    response = query.make_response()
    response.flags |= Flag.AA
    response.answer.append(RRset(Name.from_text("www.example.com."),
                                 RRType.A, 300, [A("192.0.2.1")]))
    return response


def test_query_round_trip():
    query = Message.make_query("example.com.", RRType.NS, msg_id=7)
    back = Message.from_wire(query.to_wire())
    assert back.msg_id == 7
    assert back.question == Question(Name.from_text("example.com."),
                                     RRType.NS, RRClass.IN)
    assert not back.is_response


def test_response_round_trip():
    response = make_answer()
    back = Message.from_wire(response.to_wire())
    assert back.is_response
    assert back.flags & Flag.AA
    assert back.flags & Flag.RD
    assert len(back.answer) == 1
    assert back.answer[0].rdatas == [A("192.0.2.1")]
    assert back.answer[0].ttl == 300


def test_make_response_echoes_id_and_question():
    query = Message.make_query("a.example.", RRType.AAAA, msg_id=99)
    response = query.make_response()
    assert response.msg_id == 99
    assert response.question == query.question
    assert response.is_response


def test_edns_round_trip():
    query = Message.make_query("example.com.", RRType.DNSKEY,
                               edns=Edns(payload=1232, do=True))
    back = Message.from_wire(query.to_wire())
    assert back.edns is not None
    assert back.edns.payload == 1232
    assert back.edns.do
    assert back.dnssec_ok


def test_no_edns_means_not_do():
    query = Message.make_query("example.com.", RRType.A)
    assert not query.dnssec_ok
    assert Message.from_wire(query.to_wire()).edns is None


def test_make_response_copies_do_bit():
    query = Message.make_query("example.com.", RRType.A,
                               edns=Edns(do=True))
    response = query.make_response()
    assert response.edns is not None and response.edns.do


def test_rcode_round_trip():
    response = make_answer()
    response.rcode = Rcode.NXDOMAIN
    back = Message.from_wire(response.to_wire())
    assert back.rcode == Rcode.NXDOMAIN


def test_opcode_round_trip():
    message = Message(opcode=Opcode.NOTIFY,
                      question=Question(Name.from_text("example."),
                                        RRType.SOA, RRClass.IN))
    back = Message.from_wire(message.to_wire())
    assert back.opcode == Opcode.NOTIFY


def test_truncation_drops_sections_and_sets_tc():
    response = make_answer()
    for i in range(50):
        response.additional.append(
            RRset(Name.from_text(f"h{i}.example.com."), RRType.A, 300,
                  [A(f"192.0.2.{i + 1}")]))
    full = response.to_wire()
    assert len(full) > 512
    truncated_wire = response.to_wire(max_size=512)
    assert len(truncated_wire) <= 512
    truncated = Message.from_wire(truncated_wire)
    assert truncated.flags & Flag.TC
    assert not truncated.answer
    assert truncated.question == response.question


def test_multiple_rdatas_same_name_merge_into_one_rrset():
    response = make_answer()
    response.answer[0].add(A("192.0.2.2"))
    back = Message.from_wire(response.to_wire())
    assert len(back.answer) == 1
    assert len(back.answer[0]) == 2


def test_sections_preserved():
    response = make_answer()
    origin = Name.from_text("example.com.")
    response.authority.append(RRset(origin, RRType.NS, 3600,
                                    [NS(origin.prepend(b"ns1"))]))
    response.additional.append(RRset(origin.prepend(b"ns1"), RRType.A, 3600,
                                     [A("192.0.2.53")]))
    back = Message.from_wire(response.to_wire())
    assert len(back.authority) == 1
    assert len(back.additional) == 1


def test_soa_in_authority_round_trip():
    response = Message(flags=Flag.QR,
                       question=Question(Name.from_text("nope.example.com."),
                                         RRType.A, RRClass.IN),
                       rcode=Rcode.NXDOMAIN)
    origin = Name.from_text("example.com.")
    response.authority.append(RRset(origin, RRType.SOA, 3600, [SOA(
        origin.prepend(b"ns1"), origin.prepend(b"hostmaster"),
        1, 7200, 900, 1209600, 3600)]))
    back = Message.from_wire(response.to_wire())
    assert back.rcode == Rcode.NXDOMAIN
    assert back.authority[0].rtype == RRType.SOA


def test_compression_shrinks_messages():
    response = make_answer()
    origin = Name.from_text("example.com.")
    response.authority.append(RRset(origin, RRType.NS, 3600,
                                    [NS(origin.prepend(b"ns1")),
                                     NS(origin.prepend(b"ns2"))]))
    wire = response.to_wire()
    # Uncompressed, "example.com." appears 4 times (16B each); compressed
    # output must be far smaller than that.
    assert len(wire) < 110


def test_make_query_carries_the_class():
    query = Message.make_query("version.bind.", RRType.TXT,
                               qclass=RRClass.CH)
    assert Message.from_wire(query.to_wire()).question.qclass == RRClass.CH


def test_read_header_reads_id_qr_tc_rcode():
    response = make_answer()
    assert read_header(response.to_wire()) == (4660, True, False, 0)
    response.flags |= Flag.TC
    response.rcode = Rcode.NXDOMAIN
    assert read_header(response.to_wire()) == (4660, True, True, 3)
    query = Message.make_query("example.com.", RRType.NS, msg_id=7)
    assert read_header(query.to_wire()) == (7, False, False, 0)


def test_read_header_needs_twelve_bytes():
    wire = make_answer().to_wire()
    assert read_header(wire[:12]) == read_header(wire)
    for size in (0, 2, 11):
        with pytest.raises(WireError):
            read_header(wire[:size])


def test_to_text_smoke():
    text = make_answer().to_text()
    assert "QUESTION" in text and "ANSWER" in text


@given(st.integers(0, 0xFFFF), st.booleans(), st.booleans(), st.booleans())
def test_property_header_round_trip(msg_id, qr, rd, ad):
    flags = Flag(0)
    if qr:
        flags |= Flag.QR
    if rd:
        flags |= Flag.RD
    if ad:
        flags |= Flag.AD
    message = Message(msg_id=msg_id, flags=flags,
                      question=Question(Name.from_text("x.example."),
                                        RRType.A, RRClass.IN))
    back = Message.from_wire(message.to_wire())
    assert back.msg_id == msg_id
    assert back.flags == flags
