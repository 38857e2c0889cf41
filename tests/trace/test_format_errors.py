"""The typed TraceFormatError hierarchy and skip-malformed reading.

Every reader error derives from TraceFormatError and carries location
(record index, byte offset) so a failing conversion points at the bad
record; ``skip_malformed`` drops bad records and keeps going, with the
dropped errors collectable for a summary.
"""

import pickle
import struct
from pathlib import Path

import pytest

from repro.trace.binaryform import (FLAGS_OFFSET, PROTO_OFFSET,
                                    BinaryFormatError, binary_to_trace,
                                    encode_record, scan_frames,
                                    trace_to_binary)
from repro.trace.convert import pcap_to_trace
from repro.trace.errors import TraceFormatError
from repro.trace.pcaplib import (CapturedPacket, PcapError, read_pcap,
                                 write_pcap)
from repro.trace.pipeline import TracePipeline
from repro.trace.record import QueryRecord, Trace
from repro.trace.stats import StreamingStats
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


# Every LDPB reader, with the jobs it runs at: binary_to_trace is one
# pass; the pipeline sinks run on two-record chunks, inline and pooled.
SINKS = ("collect", "stats", "to_binary", "to_file.ldpb", "to_file.txt")
LDPB_READERS = [("binary_to_trace", 1)] + [
    (sink, jobs) for sink in SINKS for jobs in (1, 2)]


def run_sink(pipe, sink, tmp_path):
    """Run one pipeline sink; what it put out."""
    if sink.startswith("to_file"):
        path = tmp_path / ("out" + sink[len("to_file"):])
        pipe.to_file(path)
        return path
    return getattr(pipe, sink)()


def read_ldpb(reader, jobs, data, tmp_path, **options):
    if reader == "binary_to_trace":
        return binary_to_trace(data, **options)
    return run_sink(TracePipeline.from_binary(
        data, jobs=jobs, chunk_records=2, **options), reader, tmp_path)


def sources_of(out):
    """The sources of the records a reader put out (stats: its clients,
    which are the records here — one client each)."""
    if isinstance(out, StreamingStats):
        return list(out.client_counts)
    if isinstance(out, bytes):
        out = binary_to_trace(out)
    elif isinstance(out, Path):
        out = TracePipeline.from_file(out).collect()
    return [r.src for r in out]


def located(errors):
    return [(e.index, e.offset) for e in errors]


def sources(indices):
    return [f"198.51.100.{i}" for i in indices]


def set_byte(data: bytes, index: int, field: int, value: int) -> bytes:
    """Record *index* with the byte at *field* (a format offset) set."""
    bad = bytearray(data)
    bad[list(scan_frames(data))[index][0] + 2 + field] = value
    return bytes(bad)


def zero_frame_body(data: bytes, index: int) -> bytes:
    """Keep record *index*'s length prefix, zero its body: its fields
    no longer tile it, which the layout check sees."""
    offset, length = list(scan_frames(data))[index]
    return (data[:offset + 2] + bytes(length)
            + data[offset + 2 + length:])


# A frame whose layout is broken, and three whose layout is sound but
# whose qname is not UTF-8, whose protocol byte is 9 or which sets an
# undefined flag bit: every reader judges a frame as read, so each sees
# all four, also where its output is the frames themselves.
CORRUPTIONS = {
    "layout": (lambda data: zero_frame_body(data, 1), 1),
    "utf-8": (corrupt_middle_record, 1),
    "protocol": (lambda data: set_byte(data, 2, PROTO_OFFSET, 9), 2),
    "flags": (lambda data: set_byte(data, 3, FLAGS_OFFSET, 0x04), 3)}


@pytest.mark.parametrize("reader, jobs, corruption", [
    (reader, jobs, corruption) for reader, jobs in LDPB_READERS
    for corruption in CORRUPTIONS])
def test_binary_error_carries_index_and_offset(reader, jobs, corruption,
                                               tmp_path):
    corrupt, index = CORRUPTIONS[corruption]
    clean = trace_to_binary(records(5))
    offset = list(scan_frames(clean))[index][0]
    data = corrupt(clean)
    with pytest.raises(BinaryFormatError) as info:
        read_ldpb(reader, jobs, data, tmp_path)
    assert (info.value.index, info.value.offset) == (index, offset)
    assert f"record {index}" in str(info.value)
    skipped: list = []
    assert sources_of(read_ldpb(reader, jobs, data, tmp_path,
                                skip_malformed=True, skipped=skipped)) == \
        sources(i for i in range(5) if i != index)
    assert located(skipped) == [(index, offset)]


def test_binary_skip_malformed_drops_only_bad_record():
    data = corrupt_middle_record(trace_to_binary(records()))
    skipped: list = []
    trace = binary_to_trace(data, skip_malformed=True, skipped=skipped)
    assert [r.qname for r in trace] == ["q0.example.com.",
                                       "q2.example.com."]
    assert len(skipped) == 1
    assert skipped[0].index == 1


@pytest.mark.parametrize("reader, jobs", LDPB_READERS)
def test_binary_truncated_tail_skips_and_stops(reader, jobs, tmp_path):
    """A cut tail cannot be resynced.  Every LDPB reader keeps the
    records before it and reports it once, at its index and offset and
    after every error before it; without skipping, each raises it."""
    clean = trace_to_binary(records(5))
    tail = (4, list(scan_frames(clean))[4][0])
    data = clean[:-3]
    with pytest.raises(BinaryFormatError) as info:
        read_ldpb(reader, jobs, data, tmp_path)
    assert (info.value.message, info.value.index, info.value.offset) == \
        ("truncated record", *tail)
    skipped: list = []
    assert sources_of(read_ldpb(reader, jobs, corrupt_middle_record(data),
                                tmp_path, skip_malformed=True,
                                skipped=skipped)) == sources((0, 2, 3))
    assert located(skipped) == [(1, list(scan_frames(clean))[1][0]), tail]
    assert skipped[-1].message == "truncated record"


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


def drop_first_two(record):
    return record.time >= 2.0


def oversize_sport_of_4(record):
    return record.with_(sport=70000) if record.time == 4.0 else record


def unencodable_pipe(kind, jobs, **options):
    trace = Trace(records(6))
    pipe = (TracePipeline.from_binary(trace_to_binary(trace), jobs=jobs,
                                      chunk_records=2, **options)
            if kind == "ldpb" else TracePipeline.from_trace(trace,
                                                            **options))
    return pipe.filter(drop_first_two).map(oversize_sport_of_4)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind, sink", [
    ("ldpb", sink) for sink in ("collect", "to_binary", "to_file.ldpb",
                                "to_file.txt")] + [
    ("trace", sink) for sink in ("to_binary", "to_file.ldpb")])
def test_unencodable_output_is_located_at_its_input_index(kind, sink, jobs,
                                                          tmp_path):
    """Records 0-1 filtered out, record 4 made unencodable: every sink
    that encodes reports input record 4, whatever the source — a
    ``from_trace`` source used to count output positions (record 2).
    (A record source's ``collect`` never encodes, so it keeps it.)"""
    with pytest.raises(BinaryFormatError) as info:
        run_sink(unencodable_pipe(kind, jobs), sink, tmp_path)
    assert (info.value.index, info.value.offset) == (4, None)
    skipped: list = []
    pipe = unencodable_pipe(kind, jobs, skip_malformed=True,
                            skipped=skipped)
    assert sources_of(run_sink(pipe, sink, tmp_path)) == sources((2, 3, 5))
    assert located(skipped) == [(4, None)]
    result = pipe.last_result
    assert (result.records_in, result.records_out, result.skipped) == \
        (6, 3, 1)


def keep_every_record(record):
    return True


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sink", ["collect", "stats", "to_binary"])
def test_a_frame_is_judged_before_any_op_patches_it(sink, jobs, tmp_path):
    """A protocol byte of 9 is malformed as read, even where a
    ``SetProtocol`` ahead of a record op writes a valid one over it
    before the record is decoded."""
    from repro.trace.pipeline import FilterRecords, SetProtocol
    clean = trace_to_binary(records(5))
    located_at = (2, list(scan_frames(clean))[2][0])
    pipe = TracePipeline.from_binary(
        set_byte(clean, 2, PROTO_OFFSET, 9), jobs=jobs, chunk_records=2).pipe(
            SetProtocol("tcp"), FilterRecords(keep_every_record))
    with pytest.raises(BinaryFormatError) as info:
        run_sink(pipe, sink, tmp_path)
    assert (info.value.index, info.value.offset) == located_at
    skipped: list = []
    out = run_sink(pipe.with_options(skip_malformed=True, skipped=skipped),
                   sink, tmp_path)
    assert sources_of(out) == sources((0, 1, 3, 4))
    assert located(skipped) == [located_at]


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_time_is_read_from_the_first_sound_frame(jobs):
    """``RebaseTime`` reads the first record's time.  A first frame too
    short to hold one used to escape as a bare ``struct.error``; now it
    is rejected at index 0 like any malformed frame, and when skipped
    the time is the first kept record's, as on a streaming read."""
    from repro.trace.pipeline import RebaseTime
    clean = trace_to_binary(records(4)[1:])
    data = clean[:8] + b"\x00\x01\x00" + clean[8:]
    pipe = TracePipeline.from_binary(data, jobs=jobs, chunk_records=2)
    with pytest.raises(BinaryFormatError) as info:
        pipe.pipe(RebaseTime()).to_binary()
    assert (info.value.index, info.value.offset) == (0, 8)
    skipping = pipe.with_options(skip_malformed=True).pipe(RebaseTime())
    assert [r.time for r in skipping.collect()] == [0.0, 1.0, 2.0]
    assert skipping.to_binary() == TracePipeline.from_records(
        binary_to_trace(data, skip_malformed=True)).pipe(
            RebaseTime()).to_binary()
