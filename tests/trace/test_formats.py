"""Tests for pcap/text/binary formats and conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.constants import RRType
from repro.trace.binaryform import (BinaryFormatError, binary_to_trace,
                                    decode_record, encode_record,
                                    trace_to_binary)
from repro.trace.convert import (pcap_to_trace, responses_from_pcap,
                                 trace_to_pcap)
from repro.trace.pcaplib import (CapturedPacket, PcapError, read_pcap,
                                 write_pcap)
from repro.trace.record import QueryRecord, Trace
from repro.trace.textform import (TextFormatError, text_to_trace,
                                  trace_to_text)


def sample_trace():
    return Trace([
        QueryRecord(time=1461234567.012345, src="192.168.1.1", sport=5353,
                    qname="example.com.", qtype=RRType.A, proto="udp",
                    msg_id=100, dst="198.41.0.4"),
        QueryRecord(time=1461234567.5, src="192.168.1.2",
                    qname="www.example.com.", qtype=RRType.AAAA,
                    proto="tcp", do=True, edns_payload=4096, rd=True,
                    msg_id=101),
        QueryRecord(time=1461234568.25, src="10.0.0.7",
                    qname="mail.example.com.", qtype=RRType.MX,
                    proto="tls", msg_id=102),
    ], name="sample")


def assert_traces_equal(a: Trace, b: Trace):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_text_round_trip():
    trace = sample_trace()
    text = trace_to_text(trace)
    assert text.startswith("#")
    back = text_to_trace(text, name="sample")
    assert_traces_equal(trace, back)


def test_text_is_editable_columns():
    text = trace_to_text(sample_trace())
    line = text.splitlines()[1]
    fields = line.split("\t")
    assert fields[4] == "udp"
    assert fields[5] == "example.com."
    # Editing the protocol column is exactly how a user mutates a trace.
    edited = line.replace("\tudp\t", "\ttcp\t")
    from repro.trace.textform import line_to_record
    assert line_to_record(edited).proto == "tcp"


def test_text_bad_column_count():
    with pytest.raises(TextFormatError):
        text_to_trace("1.0\tonly\tthree\n")


def test_text_bad_flags():
    good = trace_to_text(sample_trace()).splitlines()[1]
    bad = good.replace("\t-\t", "\tBOGUS\t")
    with pytest.raises(TextFormatError):
        text_to_trace(bad)


def test_binary_round_trip():
    trace = sample_trace()
    blob = trace_to_binary(trace)
    assert blob[:4] == b"LDPB"
    back = binary_to_trace(blob, name="sample")
    assert_traces_equal(trace, back)


def test_binary_length_prefix_framing():
    record = sample_trace()[0]
    blob = encode_record(record)
    assert decode_record(blob) == record


def test_binary_bad_magic():
    with pytest.raises(BinaryFormatError):
        binary_to_trace(b"NOPE" + b"\x00" * 16)


def test_binary_truncated_record():
    blob = trace_to_binary(sample_trace())
    with pytest.raises(BinaryFormatError):
        binary_to_trace(blob[:-3])


def test_pcap_write_read_round_trip():
    packets = [
        CapturedPacket(time=1.25, src="10.0.0.1", dst="10.0.0.2",
                       sport=4000, dport=53, proto="udp",
                       payload=b"hello"),
        CapturedPacket(time=2.5, src="10.0.0.3", dst="10.0.0.2",
                       sport=4001, dport=53, proto="tcp",
                       payload=b"world"),
    ]
    back = read_pcap(write_pcap(packets))
    assert len(back) == 2
    for orig, parsed in zip(packets, back):
        assert parsed.src == orig.src
        assert parsed.dst == orig.dst
        assert parsed.sport == orig.sport
        assert parsed.payload == orig.payload
        assert parsed.time == pytest.approx(orig.time, abs=1e-6)


def test_pcap_bad_magic():
    with pytest.raises(PcapError):
        read_pcap(b"\x00" * 32)


def test_pcap_ipv4_only():
    with pytest.raises(PcapError):
        write_pcap([CapturedPacket(0.0, "2001:db8::1", "10.0.0.1",
                                   1, 53, "udp", b"")])


def test_trace_to_pcap_and_back():
    trace = sample_trace()
    pcap = trace_to_pcap(trace)
    back = pcap_to_trace(pcap, name="sample")
    assert len(back) == len(trace)
    for orig, parsed in zip(trace, back):
        assert parsed.qname == orig.qname
        assert parsed.qtype == orig.qtype
        assert parsed.src == orig.src
        assert parsed.do == orig.do
        assert parsed.msg_id == orig.msg_id


def test_qclass_survives_text_to_record_to_wire():
    """A captured ``version.bind. CH TXT`` is replayed as CH, not IN."""
    from repro.dns.constants import RRClass
    from repro.dns.message import Message
    captured = Trace([QueryRecord(time=1.0, src="192.168.1.1",
                                  qname="version.bind.", qtype=RRType.TXT,
                                  qclass=RRClass.CH)])
    record = text_to_trace(trace_to_text(captured)).records[0]
    for wire in (record.to_message().to_wire(), record.query_wire(7)):
        question = Message.from_wire(wire).question
        assert (question.qclass, question.qtype) == (RRClass.CH, RRType.TXT)
    assert record.query_wire(7) != record.with_(
        qclass=RRClass.IN).query_wire(7)


def test_pcap_to_trace_skips_responses_and_garbage():
    from repro.dns.message import Message
    query = Message.make_query("a.example.", RRType.A, msg_id=5)
    response = query.make_response()
    packets = [
        CapturedPacket(1.0, "10.0.0.1", "10.0.0.2", 4000, 53, "udp",
                       query.to_wire()),
        CapturedPacket(1.1, "10.0.0.2", "10.0.0.1", 53, 4000, "udp",
                       response.to_wire()),
        CapturedPacket(1.2, "10.0.0.1", "10.0.0.2", 4000, 53, "udp",
                       b"\x00\x01junk"),
    ]
    trace = pcap_to_trace(write_pcap(packets))
    assert len(trace) == 1
    responses = responses_from_pcap(write_pcap(packets))
    assert len(responses) == 1
    assert responses[0][1].msg_id == 5


_QNAME = st.from_regex(r"[a-z]{1,10}(\.[a-z]{1,10}){0,3}\.",
                       fullmatch=True)


@given(st.floats(min_value=0, max_value=2e9, allow_nan=False),
       _QNAME,
       st.sampled_from(["udp", "tcp", "tls"]),
       st.booleans(), st.booleans(),
       st.integers(0, 65535), st.integers(0, 65535))
def test_property_binary_round_trip(time, qname, proto, do, rd, msg_id,
                                    sport):
    record = QueryRecord(time=time, src="192.0.2.77", qname=qname,
                         proto=proto, do=do, rd=rd, msg_id=msg_id,
                         sport=sport)
    assert decode_record(encode_record(record)) == record


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e9, allow_nan=False), _QNAME),
    min_size=0, max_size=20))
def test_property_text_round_trip(pairs):
    trace = Trace([QueryRecord(time=round(t, 6), src="10.1.2.3", qname=q)
                   for t, q in pairs])
    back = text_to_trace(trace_to_text(trace))
    assert len(back) == len(trace)
    for orig, parsed in zip(trace, back):
        assert parsed.qname == orig.qname
        assert parsed.time == pytest.approx(orig.time, abs=1e-6)


def set_based_line_to_record(line, lineno=0):
    """``line_to_record`` as it read before its lookup tables: a flag
    set and ``RRType``/``RRClass.from_text`` on every line."""
    from repro.dns.constants import RRClass
    from repro.trace.record import make_record
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 11:
        raise TextFormatError(f"expected 11 columns, got {len(fields)}",
                              lineno)
    (time_s, src, sport, dst, proto, qname, qclass, qtype, flags,
     payload, msg_id) = fields
    try:
        flag_set = set() if flags == "-" else set(flags.split(","))
        unknown = flag_set - {"DO", "RD"}
        if unknown:
            raise ValueError(f"unknown flags {sorted(unknown)}")
        return make_record(
            float(time_s), src, qname, RRType.from_text(qtype),
            RRClass.from_text(qclass), proto, int(sport), int(msg_id),
            "RD" in flag_set, "DO" in flag_set, int(payload),
            "" if dst == "-" else dst)
    except ValueError as exc:
        raise TextFormatError(str(exc), lineno) from exc


# Per column, spellings the tables hit, miss and fall through on:
# case, padding, TYPEnnn/CLASSnnn (non-ASCII digits too), repeats,
# empties and junk.
_COLUMN_VARIANTS = {
    0: ("1.5", "nan", "-inf", "1_0.5", "x", " 2 "),
    2: ("0", "65535", "70000", "١٢", "-1", "x"),
    4: ("udp", "tcp", "quic", "UDP", ""),
    6: ("IN", "in", " CH", "CLASS3", "CLASS", "CLASS٣", "NONE", "XX"),
    7: ("A", "a", "AAAA ", "TYPE65", "type1", "TYPE²", "TYPE", "ANY",
        "CAA", "_member_map_", ""),
    8: ("-", "DO", "RD", "DO,RD", "RD,DO", "DO,DO", "do", "DO,", "",
        "X,RD"),
    9: ("0", "4096", "x"),
    10: ("7", "", "0x1f"),
}


def outcome(parse, line):
    """What *parse* made of *line*: the error, or the record's repr
    (NaN equals itself there, and an enum member shows as one)."""
    try:
        record = parse(line, 5)
    except TextFormatError as error:
        return "error", str(error), error.line
    return repr(record)


@given(st.builds(QueryRecord, time=st.floats(0, 1e9),
                 src=st.just("10.0.0.1"),
                 qname=st.sampled_from((".", "example.com."))),
       st.dictionaries(st.sampled_from(sorted(_COLUMN_VARIANTS)),
                       st.integers(0, 10), max_size=3))
def test_line_reader_equals_the_set_based_one(record, changes):
    """The table-driven reader accepts exactly the lines the set-based
    one did and returns the same record (``qtype``/``qclass`` of the
    same type), or the same error text at the same line."""
    from repro.trace.textform import line_to_record, record_to_line
    fields = record_to_line(record).split("\t")
    for column, pick in changes.items():
        variants = _COLUMN_VARIANTS[column]
        fields[column] = variants[pick % len(variants)]
    line = "\t".join(fields) + "\n"
    assert outcome(line_to_record, line) == \
        outcome(set_based_line_to_record, line)
