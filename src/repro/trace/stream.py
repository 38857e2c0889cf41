"""The incremental LDPB codec (§2.5): stream DNS traces as bytes flow.

:class:`StreamDecoder` / :class:`StreamEncoder` parse and emit LDPB
frames incrementally — transport plumbing for feeding a live replay or
relaying a trace over a socket.

"In principle, at lower query rates, we could manipulate a live query
stream in near real time."  That mode is the pipeline's: run any
:mod:`repro.trace.pipeline` op over a live record iterator with
``TracePipeline.from_records(source).pipe(op)`` — iteration stays
lazy.  (The old iterator-style operator wrappers here — ``map_records``,
``filter_stream``, ``set_protocol_stream``, ``set_do_stream``,
``unique_names_stream``, ``pipeline`` — warned for one release and have
been removed; the table in docs/TRACES.md maps each to its op.)
"""

from __future__ import annotations

import struct

from repro.trace.binaryform import (HEADER, MAGIC, VERSION,
                                    BinaryFormatError, decode_record,
                                    encode_frame)
from repro.trace.record import QueryRecord

# -- incremental binary codec --------------------------------------------------

class StreamDecoder:
    """Feed LDPB bytes as they arrive; completed records come out."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._header_done = False

    def feed(self, data: bytes) -> list[QueryRecord]:
        self._buf += data
        out: list[QueryRecord] = []
        if not self._header_done:
            if len(self._buf) < 8:
                return out
            if bytes(self._buf[:4]) != MAGIC:
                raise BinaryFormatError("bad magic; not an LDPB stream")
            (version, _) = struct.unpack_from("!HH", self._buf, 4)
            if version != VERSION:
                raise BinaryFormatError(
                    f"unsupported stream version {version}")
            del self._buf[:8]
            self._header_done = True
        while len(self._buf) >= 2:
            (length,) = struct.unpack_from("!H", self._buf)
            if len(self._buf) < 2 + length:
                break
            out.append(decode_record(bytes(self._buf[2:2 + length])))
            del self._buf[:2 + length]
        return out

    def pending_bytes(self) -> int:
        return len(self._buf)


class StreamEncoder:
    """Emit LDPB bytes record by record (header first)."""

    def __init__(self) -> None:
        self._header_sent = False

    def encode(self, record: QueryRecord) -> bytes:
        frame = encode_frame(record)
        if not self._header_sent:
            self._header_sent = True
            return HEADER + frame
        return frame
