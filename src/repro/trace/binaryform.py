"""The internal binary message stream (§2.5).

"we convert the resulting text file to a customized binary stream of
internal messages ... To distinguish different messages in the input
stream, we pre-pend the length of each message at the beginning of each
binary message."

Stream layout: an 8-byte header (magic ``LDPB`` + u16 version + u16
reserved), then per record a u16 length followed by the packed record.
The framing is self-describing enough for the distributed query engine
to forward records over its control TCP connections unchanged.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from repro.trace.errors import TraceFormatError, note_skipped
from repro.trace.record import PROTOCOLS, QueryRecord, Trace, make_record

MAGIC = b"LDPB"
VERSION = 1
HEADER = MAGIC + struct.pack("!HH", VERSION, 0)
HEADER_SIZE = len(HEADER)

_FLAG_DO = 0x01
_FLAG_RD = 0x02

_FIXED = struct.Struct("!dBBHHHHH")  # time proto flags sport id payload qtype qclass
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_PROTO_INDEX = {proto: index for index, proto in enumerate(PROTOCOLS)}

# Fixed-field byte offsets within a record blob (after the u16 length
# prefix).  The pipeline's compiled frame ops patch these in place
# instead of decoding the whole record; they are format constants, so
# they live here next to the struct that defines them.
TIME_OFFSET = 0          # f64
PROTO_OFFSET = 8         # u8 index into PROTOCOLS
FLAGS_OFFSET = 9         # u8: _FLAG_DO | _FLAG_RD
PAYLOAD_OFFSET = 14      # u16 EDNS payload
FIXED_SIZE = _FIXED.size  # 20
SRC_OFFSET = FIXED_SIZE  # u8 length, then the client address
FLAG_DO = _FLAG_DO
FLAG_RD = _FLAG_RD


class BinaryFormatError(TraceFormatError):
    """Raised on malformed binary stream input."""


def encode_record(record: QueryRecord) -> bytes:
    """Pack one record (without the length prefix).  A field the format
    cannot hold (``sport``/``msg_id``/payload/``qtype``/``qclass``
    outside u16, an address over 255 bytes, a qname over 65,535) is a
    :class:`BinaryFormatError`, like every other bad record."""
    src = record.src.encode()
    dst = record.dst.encode()
    qname = record.qname.encode()
    try:
        return b"".join((
            _FIXED.pack(record.time, _PROTO_INDEX[record.proto],
                        (_FLAG_DO if record.do else 0)
                        | (_FLAG_RD if record.rd else 0),
                        record.sport, record.msg_id, record.edns_payload,
                        record.qtype, record.qclass),
            _U8.pack(len(src)), src, _U8.pack(len(dst)), dst,
            _U16.pack(len(qname)), qname))
    except struct.error as exc:
        raise BinaryFormatError(f"unencodable record: {exc}") from exc


def encode_frame(record: QueryRecord) -> bytes:
    """One stream frame: the u16 length prefix, then the record."""
    blob = encode_record(record)
    if len(blob) > 0xFFFF:
        raise BinaryFormatError("record too large for u16 framing")
    return _U16.pack(len(blob)) + blob


def decode_record(blob: bytes) -> QueryRecord:
    try:
        (time, proto_idx, flags, sport, msg_id, payload, qtype,
         qclass) = _FIXED.unpack_from(blob)
        pos = FIXED_SIZE
        src_len = blob[pos]
        src = blob[pos + 1:pos + 1 + src_len].decode()
        pos += 1 + src_len
        dst_len = blob[pos]
        dst = blob[pos + 1:pos + 1 + dst_len].decode()
        pos += 1 + dst_len
        (qname_len,) = _U16.unpack_from(blob, pos)
        pos += 2
        if pos + qname_len != len(blob):
            raise BinaryFormatError("trailing bytes in record")
        return make_record(time, src, blob[pos:].decode(), qtype, qclass,
                           PROTOCOLS[proto_idx], sport, msg_id,
                           bool(flags & _FLAG_RD), bool(flags & _FLAG_DO),
                           payload, dst)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise BinaryFormatError(f"malformed record: {exc}") from exc


def check_header(data) -> None:
    """Validate the 8-byte LDPB stream header (raises on mismatch)."""
    if bytes(data[:4]) != MAGIC:
        raise BinaryFormatError("bad magic; not an LDPB stream")
    if len(data) < HEADER_SIZE:
        raise BinaryFormatError("truncated stream header")
    (version, _) = struct.unpack_from("!HH", data, 4)
    if version != VERSION:
        raise BinaryFormatError(f"unsupported stream version {version}")


def scan_frames(data, start: int = HEADER_SIZE, end: int | None = None,
                base_index: int = 0) -> Iterator[tuple[int, int]]:
    """Yield ``(offset, length)`` for every frame without decoding any.

    *offset* is the position of the u16 length prefix, *length* the blob
    size that follows it — so the blob spans
    ``[offset + 2, offset + 2 + length)``.  This is the zero-copy
    boundary scan the chunked pipeline splits work on: only the length
    prefixes are read.  Structural errors (a truncated prefix or tail)
    raise :class:`BinaryFormatError` with the global record index
    (``base_index`` + frames seen) and byte offset."""
    if end is None:
        end = len(data)
    pos = start
    index = base_index
    while pos < end:
        if pos + 2 > end:
            raise BinaryFormatError("truncated length prefix",
                                    index=index, offset=pos)
        (length,) = struct.unpack_from("!H", data, pos)
        if pos + 2 + length > end:
            raise BinaryFormatError("truncated record", index=index,
                                    offset=pos)
        yield pos, length
        pos += 2 + length
        index += 1


def frame_spans(blob) -> tuple[int, int, int, int, int, int]:
    """Structural layout of one record blob without decoding it:
    ``(src_off, src_len, dst_off, dst_len, qname_off, qname_len)``.

    Validates that the variable-length fields tile the blob exactly —
    the same check :func:`decode_record` performs — but skips struct
    unpacking and text decoding, so compiled frame ops can read or
    splice a single field in O(field) instead of O(record)."""
    size = len(blob)
    if size < FIXED_SIZE + 2:
        raise BinaryFormatError("record too short for fixed fields")
    try:
        src_off = FIXED_SIZE + 1
        src_len = blob[FIXED_SIZE]
        dst_len_off = src_off + src_len
        dst_len = blob[dst_len_off]
        dst_off = dst_len_off + 1
        qname_len_off = dst_off + dst_len
        (qname_len,) = struct.unpack_from("!H", blob, qname_len_off)
        qname_off = qname_len_off + 2
    except (IndexError, struct.error) as exc:
        raise BinaryFormatError(f"malformed record: {exc}") from exc
    if qname_off + qname_len != size:
        raise BinaryFormatError("trailing bytes in record")
    return src_off, src_len, dst_off, dst_len, qname_off, qname_len


def trace_to_binary(trace: Trace | Iterable[QueryRecord],
                    skip_malformed: bool = False,
                    skipped: list | None = None) -> bytes:
    """The whole LDPB stream.  A record the format cannot hold raises
    :class:`BinaryFormatError` with its index in *trace*; with
    *skip_malformed* it is dropped (and collected into *skipped*)."""
    out = bytearray(HEADER)
    for index, record in enumerate(trace):
        try:
            out += encode_frame(record)
        except BinaryFormatError as exc:
            error = BinaryFormatError(exc.message, index=index)
            if not skip_malformed:
                raise error from exc
            note_skipped(skipped, error)
    return bytes(out)


def iter_binary(data: bytes, skip_malformed: bool = False,
                skipped: list | None = None) -> Iterator[QueryRecord]:
    """Stream records out of a binary trace without materializing all.

    Structural errors (bad magic, truncated header) always raise; with
    *skip_malformed*, per-record errors are dropped (collected into
    *skipped* when given) and decoding continues at the next length
    prefix.  A truncated tail cannot be resynced, so it ends the
    stream."""
    check_header(data)
    pos = HEADER_SIZE
    index = 0
    while pos < len(data):
        start = pos
        if pos + 2 > len(data):
            error = BinaryFormatError("truncated length prefix",
                                      index=index, offset=start)
            if skip_malformed:
                note_skipped(skipped, error)
                return
            raise error
        (length,) = struct.unpack_from("!H", data, pos)
        pos += 2
        if pos + length > len(data):
            error = BinaryFormatError("truncated record", index=index,
                                      offset=start)
            if skip_malformed:
                note_skipped(skipped, error)
                return
            raise error
        try:
            record = decode_record(data[pos:pos + length])
        except BinaryFormatError as exc:
            error = BinaryFormatError(exc.message, index=index,
                                      offset=start)
            if not skip_malformed:
                raise error from exc
            note_skipped(skipped, error)
        else:
            yield record
        pos += length
        index += 1


def binary_to_trace(data: bytes, name: str = "",
                    skip_malformed: bool = False,
                    skipped: list | None = None) -> Trace:
    return Trace(list(iter_binary(data, skip_malformed=skip_malformed,
                                  skipped=skipped)), name=name)
