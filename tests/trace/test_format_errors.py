"""The typed TraceFormatError hierarchy and skip-malformed reading.

Every reader error derives from TraceFormatError and carries location
(record index, byte offset) so a failing conversion points at the bad
record; ``skip_malformed`` drops bad records and keeps going, with the
dropped errors collectable for a summary.
"""

import pickle
import struct

import pytest

from repro.trace.binaryform import (BinaryFormatError, binary_to_trace,
                                    encode_record, trace_to_binary)
from repro.trace.convert import pcap_to_trace
from repro.trace.errors import TraceFormatError
from repro.trace.pcaplib import (CapturedPacket, PcapError, read_pcap,
                                 write_pcap)
from repro.trace.record import QueryRecord, Trace
from repro.trace.textform import (TextFormatError, text_to_trace,
                                  trace_to_text)


def records(n=3):
    return [QueryRecord(time=float(i), src=f"198.51.100.{i}",
                        qname=f"q{i}.example.com.") for i in range(n)]


def test_hierarchy():
    for cls in (BinaryFormatError, TextFormatError, PcapError):
        assert issubclass(cls, TraceFormatError)
        assert issubclass(cls, ValueError)  # backwards compatible


def test_error_message_carries_location():
    error = TraceFormatError("bad record", index=7, offset=120)
    assert error.index == 7
    assert error.offset == 120
    assert "record 7" in str(error)
    assert "byte offset 120" in str(error)


@pytest.mark.parametrize("error", [
    TraceFormatError("bad record", index=7, offset=120),
    BinaryFormatError("short frame", index=3),
    PcapError("cut packet", offset=24),
    TextFormatError("expected 11 columns, got 2", 7),
], ids=lambda error: type(error).__name__)
def test_errors_survive_pickling(error):
    """A pool worker raises these and ``multiprocessing`` re-raises them
    in the parent by pickling: type, text and location must all arrive
    (TracePipeline relies on it instead of marshalling tuples)."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert (copy.message, copy.index, copy.offset) == \
        (error.message, error.index, error.offset)
    assert getattr(copy, "line", None) == getattr(error, "line", None)


# -- binary stream ----------------------------------------------------------


def corrupt_middle_record(data: bytes) -> bytes:
    """Truncate the second record's body but keep its length prefix,
    so only that record is malformed and framing stays in sync."""
    pos = 8
    (length0,) = struct.unpack_from("!H", data, pos)
    second = pos + 2 + length0
    (length1,) = struct.unpack_from("!H", data, second)
    body = data[second + 2:second + 2 + length1]
    # Shorten the qname length field's claim past the record end.
    mangled = body[:-2] + struct.pack("!H", 0xFFF0)[:2]
    return (data[:second] + struct.pack("!H", len(mangled)) + mangled
            + data[second + 2 + length1:])


def test_binary_error_carries_index_and_offset():
    data = corrupt_middle_record(trace_to_binary(records()))
    with pytest.raises(BinaryFormatError) as info:
        binary_to_trace(data)
    assert info.value.index == 1
    assert info.value.offset is not None
    assert "record 1" in str(info.value)


def test_binary_skip_malformed_drops_only_bad_record():
    data = corrupt_middle_record(trace_to_binary(records()))
    skipped: list = []
    trace = binary_to_trace(data, skip_malformed=True, skipped=skipped)
    assert [r.qname for r in trace] == ["q0.example.com.",
                                       "q2.example.com."]
    assert len(skipped) == 1
    assert skipped[0].index == 1


def test_binary_truncated_tail_skips_and_stops():
    data = trace_to_binary(records())[:-3]
    skipped: list = []
    trace = binary_to_trace(data, skip_malformed=True, skipped=skipped)
    assert len(trace) == 2
    assert len(skipped) == 1
    with pytest.raises(BinaryFormatError):
        binary_to_trace(data)


def test_binary_structural_errors_always_raise():
    with pytest.raises(BinaryFormatError):
        binary_to_trace(b"NOPE" + b"\x00" * 8, skip_malformed=True)


def test_decode_record_standalone_has_no_location():
    with pytest.raises(BinaryFormatError) as info:
        from repro.trace.binaryform import decode_record
        decode_record(b"\x01")
    assert info.value.index is None


# -- column text ------------------------------------------------------------


def test_text_error_carries_line():
    text = trace_to_text(Trace(records()))
    broken = text.replace("q1.example.com.\tIN", "q1.example.com.\tXX")
    with pytest.raises(TextFormatError) as info:
        text_to_trace(broken)
    assert info.value.line == 3       # header comment is line 1
    assert info.value.index == 3


def test_text_skip_malformed():
    text = trace_to_text(Trace(records()))
    broken = text.replace("q1.example.com.\tIN", "q1.example.com.\tXX")
    skipped: list = []
    trace = text_to_trace(broken, skip_malformed=True, skipped=skipped)
    assert [r.qname for r in trace] == ["q0.example.com.",
                                       "q2.example.com."]
    assert len(skipped) == 1


def test_text_file_source_streams_line_by_line(tmp_path):
    """``from_file("x.txt")`` reads the open file a line at a time: the
    records before a bad line are out before it is even read (the whole
    file used to be parsed before the first record was yielded), and
    line numbers and skipping are the text reader's."""
    from repro.trace.pipeline import TracePipeline
    path = tmp_path / "t.txt"
    path.write_text(trace_to_text(Trace(records())).replace(
        "q1.example.com.\tIN", "q1.example.com.\tXX"))
    stream = TracePipeline.from_file(path).records()
    assert next(stream).qname == "q0.example.com."
    with pytest.raises(TextFormatError) as info:
        next(stream)
    assert info.value.line == 3
    skipped: list = []
    trace = TracePipeline.from_file(path, skip_malformed=True,
                                    skipped=skipped).collect()
    assert [r.qname for r in trace] == ["q0.example.com.",
                                       "q2.example.com."]
    assert [error.line for error in skipped] == [3]
    assert trace.records == text_to_trace(
        path.read_text(), skip_malformed=True).records


# -- pcap -------------------------------------------------------------------


def packets(n=3):
    return [CapturedPacket(time=float(i), src=f"198.51.100.{i}",
                           dst="203.0.113.53", sport=40000 + i,
                           dport=53, proto="udp",
                           payload=QueryRecord(
                               time=float(i), src=f"198.51.100.{i}",
                               qname=f"q{i}.example.com.")
                           .to_message().to_wire())
            for i in range(n)]


def test_pcap_truncated_record_raises_with_location():
    data = write_pcap(packets())[:-5]
    with pytest.raises(PcapError) as info:
        read_pcap(data)
    assert info.value.index == 2
    assert info.value.offset is not None


def test_pcap_skip_malformed_keeps_good_prefix():
    data = write_pcap(packets())[:-5]
    skipped: list = []
    decoded = read_pcap(data, skip_malformed=True, skipped=skipped)
    assert len(decoded) == 2
    assert len(skipped) == 1
    trace = pcap_to_trace(data, skip_malformed=True)
    assert len(trace) == 2


# -- unencodable records ------------------------------------------------------


def oversize_sport(record):
    return record.with_(sport=70000) if record.time == 1.0 else record


UNENCODABLE = {"sport": 70000, "msg_id": -1, "edns_payload": 1 << 16,
               "qtype": 1 << 16, "src": "a" * 256, "qname": "a" * 65536}


@pytest.mark.parametrize("field", UNENCODABLE)
def test_unencodable_record_is_a_format_error(field):
    """A value the LDPB fields cannot hold used to escape as a bare
    ``struct.error`` / ``ValueError`` with no record index."""
    bad = records()[1].with_(**{field: UNENCODABLE[field]})
    with pytest.raises(BinaryFormatError) as info:
        encode_record(bad)
    assert info.value.index is None
    with pytest.raises(BinaryFormatError) as info:
        trace_to_binary([records()[0], bad])
    assert info.value.index == 1
    assert "record 1" in str(info.value)


def test_unencodable_text_line_raises_or_skips_with_its_index(tmp_path):
    """The text form has no field widths: ``sport`` 70000 parses, and
    only the LDPB encoder can reject it."""
    from repro.trace.pipeline import TracePipeline
    path = tmp_path / "t.txt"
    path.write_text(trace_to_text(Trace(records())).replace(
        "198.51.100.1\t0\t", "198.51.100.1\t70000\t"))
    with pytest.raises(TraceFormatError) as info:
        TracePipeline.from_file(path).to_binary()
    assert info.value.index == 1
    skipped: list = []
    pipe = TracePipeline.from_file(path, skip_malformed=True,
                                   skipped=skipped)
    assert [r.qname for r in binary_to_trace(pipe.to_binary())] == \
        ["q0.example.com.", "q2.example.com."]
    assert (pipe.last_result.records_out, pipe.last_result.skipped) == \
        (2, 1)
    assert [(type(e), e.index) for e in skipped] == \
        [(BinaryFormatError, 1)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_record_mode_reports_a_record_its_chain_made_unencodable(jobs):
    from repro.trace.pipeline import TracePipeline
    data = trace_to_binary(records(5))
    pipe = TracePipeline.from_binary(
        data, jobs=jobs, chunk_records=2).map(oversize_sport)
    with pytest.raises(BinaryFormatError) as info:
        pipe.to_binary()
    assert info.value.index == 1
    skipped: list = []
    skipping = pipe.with_options(skip_malformed=True, skipped=skipped)
    assert [r.time for r in skipping.collect()] == [0.0, 2.0, 3.0, 4.0]
    assert [e.index for e in skipped] == [1]
    result = skipping.last_result
    assert (result.records_in, result.records_out, result.skipped) == \
        (5, 4, 1)
