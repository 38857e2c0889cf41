"""The reader's name table and the sizes that need no encoding.

``WireReader.name`` keeps an ``offset -> Name`` table per message, so a
pointer to a name already read is a lookup that shares the ``Name``, and
builds names without re-validating what it has just checked.  Every
rejection must survive that: loops, forward pointers, truncation, bad
length bytes and names over 255 bytes — also when the excess only shows
once a remembered tail is appended.  The reference here is the reader as
it was (walk every pointer every time, ``Name()`` validating again),
held equal to the real one from every offset of hostile messages, cold
and with the table warm.  Also here: ``Rdata.wire_size()`` is
``len(to_wire())`` for every registered type.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzzing import dns_names, hostile_wire, wire_messages
from repro.dns import rdata as rdata_module
from repro.dns.constants import MAX_NAME_WIRE
from repro.dns.message import Message
from repro.dns.name import Name, NameError_
from repro.dns.rdata import (A, AAAA, CAA, CNAME, DNSKEY, DS, HINFO, MX, NAPTR,
                             NS, NSEC, OPT, PTR, RRSIG, SOA, SRV, TLSA, TXT,
                             GenericRdata)
from repro.dns.wire import WireError, WireReader, compression_pointer

N = Name.from_text


def ptr(offset):
    return compression_pointer(offset)


def read_at(data, *offsets):
    """Names read by one reader at *offsets*, in that order."""
    reader = WireReader(data)
    names = []
    for offset in offsets:
        reader.pos = offset
        names.append(reader.name())
    return names, reader.pos


# -- the explicit cases -------------------------------------------------------

HEADER = b"\x00" * 12           # names start where a question would


def test_pointer_to_a_pointer():
    # 12: www.example.  25: -> 12  27: -> 25
    data = HEADER + b"\x03www\x07example\x00" + ptr(12) + ptr(25)
    (first, second, third), end = read_at(data, 12, 25, 27)
    assert first == second == third == N("www.example.")
    assert second is first and third is first
    assert end == 29
    # Cold, the chain is walked: same name.
    assert read_at(data, 27) == ([N("www.example.")], 29)


def test_pointer_into_the_middle_of_an_earlier_name():
    # 12: www.example.  25: mail -> 16 (example.)  32: -> 16  34: x -> 25
    data = (HEADER + b"\x03www\x07example\x00" + b"\x04mail" + ptr(16)
            + ptr(16) + b"\x01x" + ptr(25))
    (www, mail, suffix, deep), end = read_at(data, 12, 25, 32, 34)
    assert (www, mail, suffix) == (N("www.example."), N("mail.example."),
                                   N("example."))
    assert deep == N("x.mail.example.") and end == 38
    # The suffix at 16 was remembered when `mail` walked it.
    again, _ = read_at(data, 12, 25, 32, 32)
    assert again[3] is again[2]


def test_cursor_lands_after_the_first_pointer_whatever_is_remembered():
    data = HEADER + b"\x01a\x00" + b"\x01b" + ptr(12) + b"\xff"
    for offsets in ((15,), (12, 15)):
        names, end = read_at(data, *offsets)
        assert names[-1] == N("b.a.") and data[end] == 0xFF


LOOP = HEADER + b"\x01a\x03bcd" + ptr(12)      # 12 -> labels -> 18 -> 12


def test_loop_through_labels_is_rejected():
    with pytest.raises(WireError, match="loop"):
        read_at(LOOP, 12)
    # Entered in the middle, and from behind through a pointer.
    with pytest.raises(WireError, match="loop"):
        read_at(LOOP, 14)
    with pytest.raises(WireError, match="loop"):
        read_at(LOOP + ptr(12), 20)
    # A pointer at itself never gets that far: it is not backward.
    with pytest.raises(WireError, match="forward"):
        read_at(b"\xc0\x00", 0)


def test_a_failed_read_remembers_nothing():
    reader = WireReader(LOOP)
    for _ in range(2):
        reader.pos = 12
        with pytest.raises(WireError):
            reader.name()
    assert reader._names == {}


def long_tail():
    """(data, offset of a 250-byte name, offset after it)."""
    tail = b"".join(b"\x3e" + bytes([65 + i]) * 62 for i in range(3)) \
        + b"\x3b" + b"z" * 59 + b"\x00"
    assert len(tail) == 250
    return HEADER + tail, 12, 12 + 250


def test_name_that_only_exceeds_255_bytes_through_a_remembered_tail():
    data, tail_at, end = long_tail()
    fits = data + b"\x04abcd" + ptr(tail_at)            # 5 + 250 = 255
    (tail, whole), _ = read_at(fits, tail_at, end)
    assert whole.wire_length() == MAX_NAME_WIRE
    assert whole.labels[1:] == tail.labels
    over = data + b"\x05abcde" + ptr(tail_at)           # 6 + 250 = 256
    for offsets in ((end,), (tail_at, end)):            # cold, then warm
        with pytest.raises(WireError, match="longer than 255"):
            read_at(over, *offsets)
    with pytest.raises(NameError_):                     # what Name() says
        Name((b"abcde",) + tail.labels)


def test_case_is_preserved_on_the_shared_name():
    data = HEADER + b"\x03WwW\x07eXample\x00" + ptr(12) + b"\x03ftp" + ptr(16)
    (first, second, third), _ = read_at(data, 12, 25, 27)
    assert second is first
    assert first.labels == (b"WwW", b"eXample")
    assert first.folded == (b"www", b"example")
    assert third.labels == (b"ftp", b"eXample")
    assert first == N("www.example.") and hash(first) == hash(
        N("www.example."))


def test_every_malformed_name_is_still_a_wire_error():
    for data, offset in (
            (b"\x05abc", 0),                        # label cut short
            (b"\x01a", 0),                          # no root byte
            (b"\x01a\xc0", 0),                      # pointer cut short
            (b"\xc0\x05" + b"\x00" * 10, 0),        # forward pointer
            (b"\x00\xc0\x01", 1),                   # pointer to itself
            (b"\x80abc\x00", 0), (b"\x40abc\x00", 0),   # bad length bits
            (b"", 0)):
        with pytest.raises(WireError):
            read_at(data, offset)


def test_a_bytearray_message_reads_like_bytes():
    message = Message.from_wire(bytearray(
        Message.make_query(N("www.example."), 1, msg_id=3).to_wire()))
    assert message.question.qname == N("www.example.")
    assert {message.question.qname: 1}      # labels are hashable bytes


# -- against the reader as it was ---------------------------------------------

def reference_name(data, pos):
    """``WireReader.name`` before the table: ``(Name, cursor after)``."""
    labels = []
    size = 1
    after = None
    seen = set()
    while True:
        if pos in seen:
            raise WireError("compression pointer loop")
        seen.add(pos)
        if pos >= len(data):
            raise WireError("name runs past end of message")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(data):
                raise WireError("truncated compression pointer")
            target = (length & 0x3F) << 8 | data[pos + 1]
            if after is None:
                after = pos + 2
            if target >= pos:
                raise WireError("forward compression pointer")
            pos = target
            continue
        if length & 0xC0:
            raise WireError("bad label length byte")
        if length == 0:
            if after is None:
                after = pos + 1
            break
        if pos + 1 + length > len(data):
            raise WireError("label runs past end of message")
        size += 1 + length
        if size > MAX_NAME_WIRE:
            raise WireError("name too long")
        labels.append(data[pos + 1:pos + 1 + length])
        pos += 1 + length
    return Name(labels), after


def outcome(read):
    try:
        name, after = read()
    except WireError:
        return None
    return name.labels, name.folded, hash(name), after


@settings(deadline=None)
@given(hostile_wire() | wire_messages(), st.randoms(use_true_random=False))
def test_reader_equals_the_reference_from_every_offset(blob, random):
    """Cold at each offset, and with one reader visiting the offsets in
    a random order so the table is warm in every combination."""
    offsets = list(range(min(len(blob), 160)))
    expected = {at: outcome(lambda: reference_name(blob, at))
                for at in offsets}

    def real(reader, at):
        reader.pos = at
        return reader.name(), reader.pos

    for at in offsets:
        assert outcome(lambda: real(WireReader(blob), at)) == expected[at]
    warm = WireReader(blob)
    random.shuffle(offsets)
    for at in offsets:
        assert outcome(lambda: real(warm, at)) == expected[at], at


# -- sizes without encoding ---------------------------------------------------

_blob = st.binary(max_size=40)
_short = st.binary(max_size=12)
_u8, _u16, _u32 = (st.integers(0, 2 ** bits - 1) for bits in (8, 16, 32))
_v4 = st.integers(0, 2 ** 32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n)))
_v6 = st.integers(0, 2 ** 128 - 1).map(
    lambda n: str(ipaddress.IPv6Address(n)))
# Names that repeat a label, so a lone name could only "compress" against
# itself if the writer were wrong.
_names = dns_names() | st.just(N("a.a.a.a.")) | st.just(Name([b"x" * 63] * 3))

RDATAS = {
    A: st.builds(A, _v4),
    AAAA: st.builds(AAAA, _v6),
    NS: st.builds(NS, _names),
    CNAME: st.builds(CNAME, _names),
    PTR: st.builds(PTR, _names),
    MX: st.builds(MX, _u16, _names),
    SOA: st.builds(SOA, _names, _names, _u32, _u32, _u32, _u32, _u32),
    TXT: st.builds(TXT, st.lists(_blob, max_size=3).map(tuple)),
    SRV: st.builds(SRV, _u16, _u16, _u16, _names),
    DS: st.builds(DS, _u16, _u8, _u8, _blob),
    DNSKEY: st.builds(DNSKEY, _u16, _u8, _u8, _blob),
    RRSIG: st.builds(RRSIG, _u16, _u8, _u8, _u32, _u32, _u32, _u16, _names,
                     _blob),
    NSEC: st.builds(NSEC, _names, st.lists(
        _u16, max_size=5).map(lambda types: tuple(sorted(set(types))))),
    HINFO: st.builds(HINFO, _short, _short),
    NAPTR: st.builds(NAPTR, _u16, _u16, _short, _short, _short, _names),
    TLSA: st.builds(TLSA, _u8, _u8, _u8, _blob),
    CAA: st.builds(CAA, _u8, _short, _blob),
    OPT: st.builds(OPT, _blob),
}


def test_every_registered_type_has_a_strategy():
    assert set(RDATAS) == set(rdata_module._REGISTRY.values())


@settings(deadline=None)
@given(st.one_of(*RDATAS.values())
       | st.builds(GenericRdata, st.integers(256, 0xFFFF), _blob))
def test_wire_size_is_the_encoded_length(rdata):
    assert rdata.wire_size() == len(rdata.to_wire())


def test_addresses_read_and_written_as_ipaddress_would():
    for text in ("0.0.0.0", "255.255.255.255", "192.0.2.1", "10.0.0.200"):
        wire = A(text).to_wire()
        assert wire == ipaddress.IPv4Address(text).packed
        assert A.read(WireReader(wire), 4) == A(text)
    for text in ("::", "::1", "2001:db8::1", "2001:db8:0:1::", "fe80::1:0:0:1"):
        wire = AAAA(text).to_wire()
        assert wire == ipaddress.IPv6Address(text).packed
        assert AAAA.read(WireReader(wire), 16) == AAAA(text)
    for bad in ("1.2.3", "01.2.3.4", "256.1.1.1", "::1", ""):
        with pytest.raises(ipaddress.AddressValueError):
            A(bad).to_wire()
    with pytest.raises(ipaddress.AddressValueError):
        AAAA("192.0.2.1").to_wire()
