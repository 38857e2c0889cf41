"""Message-layer edge cases beyond the round-trip basics."""

import pytest

from repro.dns.constants import Flag, Opcode, Rcode, RRClass, RRType
from repro.dns.message import Edns, Message, Question
from repro.dns.name import Name
from repro.dns.rdata import A, TXT
from repro.dns.rrset import RRset
from repro.dns.wire import WireError


def test_empty_question_message():
    message = Message(msg_id=5, flags=Flag.QR)
    back = Message.from_wire(message.to_wire())
    assert back.question is None
    assert back.msg_id == 5


def test_multi_question_rejected():
    # Hand-craft a header claiming QDCOUNT=2.
    wire = bytearray(Message.make_query("a.example.", RRType.A).to_wire())
    wire[4:6] = (0).to_bytes(1, "big") + (2).to_bytes(1, "big")
    with pytest.raises(WireError):
        Message.from_wire(bytes(wire))


def test_extended_rcode_via_edns():
    response = Message(flags=Flag.QR,
                       question=Question(Name.from_text("x.example."),
                                         RRType.A, RRClass.IN),
                       edns=Edns(ext_rcode=1))  # BADVERS = 16 = (1<<4)|0
    back = Message.from_wire(response.to_wire())
    assert back.rcode == Rcode.BADVERS


def test_edns_version_round_trip():
    query = Message.make_query("x.example.", RRType.A,
                               edns=Edns(version=1))
    back = Message.from_wire(query.to_wire())
    assert back.edns.version == 1


def test_truncation_keeps_edns():
    response = Message(flags=Flag.QR,
                       question=Question(Name.from_text("big.example."),
                                         RRType.TXT, RRClass.IN),
                       edns=Edns(payload=4096, do=True))
    response.answer.append(RRset(
        Name.from_text("big.example."), RRType.TXT, 60,
        [TXT((b"x" * 250,)) for _ in range(5)]))
    truncated = Message.from_wire(response.to_wire(max_size=512))
    assert truncated.flags & Flag.TC
    assert truncated.edns is not None
    assert truncated.edns.do


def test_compression_across_sections():
    origin = Name.from_text("compress.example.")
    response = Message(flags=Flag.QR,
                       question=Question(origin, RRType.A, RRClass.IN))
    for section in (response.answer, response.authority,
                    response.additional):
        section.append(RRset(origin, RRType.A, 60, [A("192.0.2.1")]))
    wire = response.to_wire()
    # The owner name is written once in full plus three 2-byte pointers.
    assert wire.count(b"\x08compress") == 1


def test_unknown_opcode_survives_round_trip():
    message = Message(opcode=3,  # unassigned opcode
                      question=Question(Name.from_text("x."),
                                        RRType.A, RRClass.IN))
    back = Message.from_wire(message.to_wire())
    assert int(back.opcode) == 3


def test_wire_size_matches_len():
    message = Message.make_query("size.example.", RRType.A)
    assert message.wire_size() == len(message.to_wire())


def test_all_rrsets_aggregation():
    message = Message(flags=Flag.QR)
    name = Name.from_text("x.example.")
    message.answer.append(RRset(name, RRType.A, 60, [A("192.0.2.1")]))
    message.authority.append(RRset(name, RRType.A, 60, [A("192.0.2.2")]))
    message.additional.append(RRset(name, RRType.A, 60,
                                    [A("192.0.2.3")]))
    assert len(message.all_rrsets()) == 3
    assert message.find_rrset(message.answer, name, RRType.A) is not None
    assert message.find_rrset(message.answer, name, RRType.MX) is None


def overlong_query() -> bytes:
    """Five 63-byte labels: a 321-byte qname in a 337-byte datagram."""
    return (b"\x12\x34\x00\x00\x00\x01" + bytes(6)
            + (b"\x3f" + b"x" * 63) * 5 + b"\x00\x00\x01\x00\x01")


def test_overlong_qname_is_a_wire_error():
    """It used to escape as NameError_, which no transport catches."""
    from repro.dns.message import read_header, read_question
    wire = overlong_query()
    with pytest.raises(WireError, match="longer than 255"):
        Message.from_wire(wire)
    assert read_question(wire) is None
    assert read_header(wire) == (0x1234, False, False, 0)
    # 255 bytes exactly still parse; one more byte, reached through a
    # compression pointer, does not.
    longest = (b"\x3f" + b"x" * 63) * 3 + b"\x3d" + b"y" * 61 + b"\x00"
    fits = wire[:12] + longest + b"\x00\x01\x00\x01"
    assert Message.from_wire(fits).question.qname.wire_length() == 255
    answer = b"\x01z\xc0\x0c" + b"\x00\x01\x00\x01" + bytes(4) + b"\x00\x00"
    with pytest.raises(WireError, match="longer than 255"):
        Message.from_wire(fits[:7] + b"\x01" + fits[8:] + answer)
