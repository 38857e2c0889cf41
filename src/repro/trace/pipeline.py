"""The unified trace pipeline: source -> ops -> sink, chunk-parallel.

§2.5 rewrites multi-hour traces (protocol conversion, DO-bit,
unique-prefix tagging) before every experiment, and at B-Root scale
that preparation dominates setup time.  :class:`TracePipeline` is the
one composable model for that work.  (It subsumed the older
Trace->Trace mutators and iterator operators — ``repro.trace.mutate``
and the ``repro.trace.stream`` operator functions — which warned for
one release and have been removed; docs/TRACES.md maps each legacy
name to its op.)

Execution model
===============

A pipeline is lazy: building one does no I/O.  Running a sink
(:meth:`TracePipeline.to_file`, :meth:`collect`, :meth:`to_binary`,
:meth:`stats`, or iteration) executes the op chain:

* **Chunked** — when the source is an LDPB stream (``.ldpb`` file or
  bytes), the input is split on frame boundaries by a zero-copy length
  scan (:func:`repro.trace.binaryform.scan_frames`; files are mmapped,
  nothing is decoded to find boundaries).  Chunks of ``chunk_records``
  frames are processed independently — in-process for ``jobs=1``, or
  fanned out to a ``multiprocessing`` pool for ``jobs>1`` — and merged
  back in input order.
* **Streaming** — for text/pcap/record sources the chain applies
  record by record, lazily; a ``.txt`` source is read line by line from
  the open file (:func:`repro.trace.textform.iter_text`), so neither
  the file nor its records are ever held whole.

Within the chunked executor one runner serves every chain and sink:

* each frame is judged as read, before any op, by the one
  malformed-frame rule (:func:`~repro.trace.binaryform.check_frame`:
  layout, protocol byte, flags, UTF-8 of the addresses and qname);
* an op that knows how to rewrite a raw LDPB frame (patch the protocol
  byte, the DO flag, the timestamp; splice the qname) patches one
  ``bytearray`` copy of it in place, and because the qname is the tail
  of the record a splice is a slice assignment (:class:`PipelineOp`
  states the contract).  A chain of such ops never builds a
  :class:`~repro.trace.record.QueryRecord`: this is what makes trace
  preparation fast even single-threaded;
* at a record-only op (``FilterRecords``, ``MapRecords``) the runner
  writes the qname length, decodes the patched frame once and applies
  the op.  A record the op keeps as it is leaves as its frame, with no
  re-encode; only a record the op replaced is encoded again, and later
  frame ops patch that new frame.  A record an op made unencodable (a
  field wider than the format's) is malformed like any other: raised
  with its global index, or skipped and reported;
* the ``records()``/``collect()`` and ``stats()`` sinks decode each
  output frame once, at the end (or take the record a record op left).

Determinism contract
====================

For an input that decodes cleanly, the output byte stream is identical
across ``jobs`` and ``chunk_records`` settings, and equal to the
streaming executor's over the decoded records.  Three design rules make
that hold:

* ops see the **global input index** of each record (chunks carry their
  base index), so index-derived rewrites (``PrependUnique``) do not
  depend on chunk boundaries;
* seeded randomness is **order-free**: per-record choices hash
  ``(seed, global index)`` and per-client choices hash
  ``(seed, client address)`` through a splitmix64 finalizer, instead of
  drawing from a sequential RNG whose state would depend on how the
  input was split;
* merged chunk outputs are concatenated strictly in input order.

A record blob that decodes successfully re-encodes to the same bytes
(the format has no slack: an undefined flag bit is malformed), which is
why patching a field inside a frame equals re-encoding the patched
record, and a record an op kept may leave as the frame it came in.
Every sink reads frames with ``scan_frames`` and ``check_frame``, so a
malformed record — a frame that does not decode, a truncated tail, an
output record LDPB cannot hold — is raised or skipped by the one rule
of :func:`~repro.trace.binaryform.reject`, with its **global** input
index, no matter which worker hit it.
"""

from __future__ import annotations

import itertools
import mmap
import pickle
import struct
import time as _time
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.trace.binaryform import (FLAG_DO, FLAGS_OFFSET, HEADER,
                                    HEADER_SIZE, PAYLOAD_OFFSET,
                                    PROTO_OFFSET, SRC_OFFSET, TIME_OFFSET,
                                    BinaryFormatError, check_frame,
                                    check_header, decode_record,
                                    encode_frame, encode_record,
                                    reject, scan_frames)
from repro.trace.errors import TraceFormatError, note_skipped
from repro.trace.record import PROTOCOLS, QueryRecord, Trace

__all__ = [
    "FilterRecords", "MapRecords", "PipelineOp", "PipelineResult",
    "PrependUnique", "RebaseTime", "ScaleTime", "SetDoFraction",
    "SetProtocol", "SetQnameSuffix", "TracePipeline", "as_trace",
]


# -- order-free seeded decisions -------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a well-distributed 64-bit hash."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def index_unit(seed: int, index: int) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, record index)."""
    return _mix64((seed & _M64) * _GOLDEN + index + 1) / 2.0 ** 64


def client_unit(seed: int, src: bytes) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, client)."""
    return _mix64((seed & _M64) * _GOLDEN + zlib.crc32(src)) / 2.0 ** 64


_U16 = struct.Struct("!H")
_F64 = struct.Struct("!d")


@dataclass(frozen=True)
class PipelineContext:
    """Stream-global facts ops may need (computed before fan-out)."""

    first_time: float = 0.0


# -- ops -------------------------------------------------------------------

class PipelineOp:
    """One trace rewrite, defined once, runnable three ways.

    Subclasses implement :meth:`map_record` (the general path) and may
    implement :meth:`map_frame` (the compiled LDPB fast path, declared
    with ``frame_capable = True``).  Ops must be picklable — they are
    shipped to pool workers — so they are frozen dataclasses with no
    closures unless noted (predicate/map ops require picklable
    callables for ``jobs > 1``).

    The frame contract: the executor judges each frame once
    (:func:`~repro.trace.binaryform.check_frame`), copies it into one
    ``bytearray`` and hands that buffer to every frame op of the chain
    in turn; an op patches it **in place** and returns nothing.  The
    fixed fields and the addresses sit at format offsets that no op
    moves, and the qname is the tail of the buffer from ``qname_off``
    — so a qname rewrite is a slice assignment
    (``frame[qname_off:] = new``), whatever an earlier op did to the
    name.  The qname's u16 length prefix is the executor's to write,
    before a record op decodes the frame and after the chain.
    """

    #: op reads ``ctx.first_time`` (forces decoding the first frame's
    #: timestamp before fan-out)
    needs_first_time: bool = False
    #: op implements map_frame
    frame_capable: bool = False

    def map_record(self, record: QueryRecord, index: int,
                   ctx: PipelineContext) -> QueryRecord | None:
        """Rewrite one record (*index* is the global input index).
        Return ``None`` to drop it."""
        raise NotImplementedError

    def map_frame(self, frame: bytearray, qname_off: int, index: int,
                  ctx: PipelineContext) -> None:
        """Patch one validated LDPB record (no length prefix) in place;
        see the class docstring for what may be touched."""
        raise NotImplementedError

    def apply(self, trace: Trace) -> Trace:
        """Convenience: run just this op over an in-memory Trace."""
        return TracePipeline.from_trace(trace).pipe(self).collect()


@dataclass(frozen=True)
class SetProtocol(PipelineOp):
    """Convert queries to *proto* (§5.2).  With ``fraction < 1`` a
    seeded subset of **clients** is converted — per-client, so
    connection reuse stays meaningful: a client is either converted or
    not, decided by an order-free hash of (seed, client address)."""

    proto: str
    fraction: float = 1.0
    seed: int = 0

    needs_first_time = False
    frame_capable = True

    def __post_init__(self):
        if self.proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.proto!r}")

    def _converts(self, src: bytes) -> bool:
        return (self.fraction >= 1.0
                or client_unit(self.seed, src) < self.fraction)

    def map_record(self, record, index, ctx):
        if self._converts(record.src.encode()):
            return record.with_(proto=self.proto)
        return record

    def map_frame(self, frame, qname_off, index, ctx):
        if self.fraction < 1.0:     # only then is the client read
            src = SRC_OFFSET + 1
            if not self._converts(bytes(
                    frame[src:src + frame[SRC_OFFSET]])):
                return
        frame[PROTO_OFFSET] = PROTOCOLS.index(self.proto)


@dataclass(frozen=True)
class SetDoFraction(PipelineOp):
    """Set the DNSSEC-OK bit on *fraction* of queries (§5.1's what-if
    is ``fraction=1.0``).  The per-query choice hashes (seed, global
    index), so it is identical however the input is chunked.  Converted
    queries get ``edns_payload=payload``; the rest only lose the DO bit
    (their payload is left alone, as the legacy mutator did)."""

    fraction: float
    payload: int = 4096
    seed: int = 0

    needs_first_time = False
    frame_capable = True

    def _sets(self, index: int) -> bool:
        return (self.fraction >= 1.0
                or index_unit(self.seed, index) < self.fraction)

    def map_record(self, record, index, ctx):
        if self._sets(index):
            return record.with_(do=True, edns_payload=self.payload)
        return record.with_(do=False)

    def map_frame(self, frame, qname_off, index, ctx):
        if self._sets(index):
            frame[FLAGS_OFFSET] |= FLAG_DO
            _U16.pack_into(frame, PAYLOAD_OFFSET, self.payload)
        else:
            frame[FLAGS_OFFSET] &= ~FLAG_DO & 0xFF


@dataclass(frozen=True)
class PrependUnique(PipelineOp):
    """Make every query name unique — ``<prefix><global index>.<name>``
    — the paper's §4.2 trick for matching queries to replies."""

    prefix: str = "q"

    needs_first_time = False
    frame_capable = True

    def map_record(self, record, index, ctx):
        base = "" if record.qname == "." else record.qname
        return record.with_(qname=f"{self.prefix}{index}.{base}"
                            if base else f"{self.prefix}{index}.")

    def map_frame(self, frame, qname_off, index, ctx):
        label = f"{self.prefix}{index}.".encode()
        if frame[qname_off:] == b".":
            frame[qname_off:] = label
        else:
            frame[qname_off:qname_off] = label


@dataclass(frozen=True)
class ScaleTime(PipelineOp):
    """Stretch (>1) or compress (<1) interarrivals around the stream's
    first timestamp."""

    factor: float

    needs_first_time = True
    frame_capable = True

    def map_record(self, record, index, ctx):
        t0 = ctx.first_time
        return record.with_(time=t0 + (record.time - t0) * self.factor)

    def map_frame(self, frame, qname_off, index, ctx):
        (t,) = _F64.unpack_from(frame, TIME_OFFSET)
        t0 = ctx.first_time
        _F64.pack_into(frame, TIME_OFFSET, t0 + (t - t0) * self.factor)


@dataclass(frozen=True)
class RebaseTime(PipelineOp):
    """Shift timestamps so the stream starts at *start*."""

    start: float = 0.0

    needs_first_time = True
    frame_capable = True

    def map_record(self, record, index, ctx):
        return record.with_(time=record.time
                            + (self.start - ctx.first_time))

    def map_frame(self, frame, qname_off, index, ctx):
        (t,) = _F64.unpack_from(frame, TIME_OFFSET)
        _F64.pack_into(frame, TIME_OFFSET,
                       t + (self.start - ctx.first_time))


@dataclass(frozen=True)
class SetQnameSuffix(PipelineOp):
    """Re-root query names from one domain to another."""

    old: str
    new: str

    needs_first_time = False
    frame_capable = True

    def map_record(self, record, index, ctx):
        if record.qname.endswith(self.old):
            return record.with_(
                qname=record.qname[:-len(self.old)] + self.new)
        return record

    def map_frame(self, frame, qname_off, index, ctx):
        qname = frame[qname_off:]
        old = self.old.encode()
        if qname.endswith(old):
            frame[qname_off:] = qname[:-len(old)] + self.new.encode()


@dataclass(frozen=True)
class FilterRecords(PipelineOp):
    """Keep records the predicate accepts.  The predicate must be
    picklable (a module-level function) for ``jobs > 1``."""

    predicate: Callable[[QueryRecord], bool]

    needs_first_time = False
    frame_capable = False

    def map_record(self, record, index, ctx):
        return record if self.predicate(record) else None


@dataclass(frozen=True)
class MapRecords(PipelineOp):
    """Apply an arbitrary record function (picklable for jobs > 1)."""

    fn: Callable[[QueryRecord], QueryRecord]

    needs_first_time = False
    frame_capable = False

    def map_record(self, record, index, ctx):
        return self.fn(record)


# -- compiled chain --------------------------------------------------------

@dataclass(frozen=True)
class _Chunk:
    """A run of frames as the one frame walk cut it
    (:meth:`TracePipeline._chunks`): the runner reads each frame at its
    noted offset and walks nothing again."""

    frames: array       # each frame's length-prefix offset, then the end
    #                     of the last frame (frames tile the chunk)
    base_index: int     # global index of the first record
    end: int            # byte offset one past the chunk
    tail: tuple | None = None   # (message, index, offset): the walk's
    #                             ruling on a truncated tail after it

    @property
    def start(self) -> int:
        return self.frames[0]

    @property
    def records(self) -> int:
        return len(self.frames) - 1


@dataclass(frozen=True)
class _CompiledChain:
    """The pickled unit of work: ops + context + error policy."""

    ops: tuple[PipelineOp, ...]
    ctx: PipelineContext
    skip_malformed: bool = False

    def run(self, buf, chunk: _Chunk, decode: bool, skipped: list) -> list:
        """The one chunk runner.  Each frame is judged as read
        (:func:`check_frame`), then the ops run in order: a frame op
        patches one ``bytearray`` copy of it in place; at a record-only
        op the frame is decoded once and the op rewrites the record.  A
        record the op keeps as it is stays its frame; one it replaces is
        re-encoded before the next frame op, or at the end.  Returns
        each kept frame with its u16 length prefix, or with *decode*
        each kept record.  :func:`reject` rules on a malformed frame or
        output record at its global index — and at the frame's offset
        until an op has replaced its record."""
        # (frame ops in a row, None) or ((), one record op)
        steps: list[tuple[list, Callable | None]] = []
        for op in self.ops:
            if not op.frame_capable:
                steps.append(((), op.map_record))
            elif steps and steps[-1][1] is None:
                steps[-1][0].append(op.map_frame)
            else:
                steps.append(([op.map_frame], None))
        patching = any(op.frame_capable for op in self.ops)
        ctx, skip = self.ctx, self.skip_malformed
        out: list = []
        append = out.append
        frames = chunk.frames
        for index, offset, end in zip(itertools.count(chunk.base_index),
                                      frames, frames[1:]):
            frame = buf[offset + 2:end]
            at = offset
            record = None           # the frame's record, once decoded
            stale = False           # record replaced: frame behind it
            try:
                qname_off = check_frame(frame)
                if patching:
                    frame = bytearray(frame)
                for patches, rewrite in steps:
                    if rewrite is None:
                        if stale:
                            frame = bytearray(encode_record(record))
                            qname_off = check_frame(frame)
                            at, stale = None, False
                        for patch in patches:
                            patch(frame, qname_off, index, ctx)
                        record = None
                        continue
                    if record is None:
                        if patching:
                            _seal(frame, qname_off)
                        record = decode_record(frame)
                    new = rewrite(record, index, ctx)
                    if new is None:
                        break
                    if new is not record:
                        record, stale = new, True
                else:
                    if stale:
                        at = None
                        framed = encode_frame(record)
                    elif patching:
                        _seal(frame, qname_off)
                    if decode:
                        append(record if record is not None
                               else decode_record(frame))
                    elif stale:
                        append(framed)
                    elif patching:
                        append(_U16.pack(len(frame)) + frame)
                    else:
                        append(buf[offset:end])
            except (BinaryFormatError, struct.error) as exc:
                # struct.error: a frame op wrote a value its field
                # cannot hold — what encode_record reports for a record.
                reject(getattr(exc, "message",
                               f"unencodable record: {exc}"),
                       index, at, skip, skipped)
        if chunk.tail is not None:
            reject(*chunk.tail, skip, skipped)
        return out

    def apply_record(self, record: QueryRecord,
                     index: int) -> QueryRecord | None:
        for op in self.ops:
            record = op.map_record(record, index, self.ctx)
            if record is None:
                return None
        return record


def _seal(frame: bytearray, qname_off: int) -> None:
    """Write a patched frame's qname length: the name is whatever now
    follows *qname_off*."""
    size = len(frame)
    if size > 0xFFFF:
        raise BinaryFormatError("record too large for u16 framing")
    _U16.pack_into(frame, qname_off - 2, size - qname_off)


# -- pool workers ----------------------------------------------------------

# Worker state is process-global, installed by the pool initializer so
# the input buffer is opened (mmapped) once per worker instead of being
# shipped with every chunk.
_WORKER: dict | None = None


def _init_worker(source: tuple[str, object], chain_blob: bytes,
                 mode: str) -> None:
    global _WORKER
    kind, payload = source
    if kind == "file":
        handle = open(payload, "rb")
        buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    else:
        handle = None
        buf = payload
    _WORKER = {"buf": buf, "handle": handle,
               "chain": pickle.loads(chain_blob), "mode": mode}


def _process_chunk(buf, chain: _CompiledChain, mode: str, chunk: _Chunk):
    """One chunk's work, the same inline and in a pool worker:
    ``(payload, records_in, records_out, skipped, seconds)``, the
    payload being frame bytes ("binary"), the output records
    ("records") or StreamingStats ("stats").  A malformed frame raises
    with its global index; the pool re-raises it in the parent (trace
    errors pickle, attributes intact)."""
    started = _time.perf_counter()
    skipped: list[TraceFormatError] = []
    out = chain.run(buf, chunk, mode != "binary", skipped)
    if mode == "binary":
        payload = b"".join(out)
    elif mode == "stats":
        from repro.trace.stats import StreamingStats
        payload = StreamingStats()
        for record in out:
            payload.update(record)
    else:
        payload = out
    return payload, chunk.records, len(out), skipped, \
        _time.perf_counter() - started


def _run_chunk(chunk: _Chunk):
    assert _WORKER is not None
    return _process_chunk(_WORKER["buf"], _WORKER["chain"],
                          _WORKER["mode"], chunk)


# -- results ---------------------------------------------------------------

@dataclass
class PipelineResult:
    """What a sink ran: counts the CLI summaries and obs counters use."""

    records_in: int = 0
    records_out: int = 0
    chunks: int = 0
    worker_seconds: float = 0.0
    skipped: int = 0


# -- the pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class _Source:
    kind: str                    # "file" | "binary" | "records"
    path: str | None = None      # kind == "file"
    data: bytes | None = None    # kind == "binary"
    records: object = None       # kind == "records": iterable factory
    name: str = ""


class TracePipeline:
    """One lazy trace-processing chain: source -> ops -> sink.

    Construction does no work; sinks execute.  See the module docstring
    for the execution model and the determinism contract, and
    ``docs/TRACES.md`` for the user guide.
    """

    def __init__(self, source: _Source,
                 ops: tuple[PipelineOp, ...] = (), *,
                 jobs: int = 1, chunk_records: int = 4096,
                 skip_malformed: bool = False,
                 skipped: list | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self._source = source
        self._ops = tuple(ops)
        self.jobs = jobs
        self.chunk_records = chunk_records
        self.skip_malformed = skip_malformed
        self._skipped = skipped
        self.last_result: PipelineResult | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path, **options) -> "TracePipeline":
        """Open a trace file (format by extension, like the CLIs).

        ``.ldpb`` sources are chunk-parallel capable; ``.txt`` and
        ``.pcap`` stream serially (their framings need a parse to find
        boundaries)."""
        path = Path(path)
        suffix = path.suffix.lower()
        name = path.stem
        if suffix == ".ldpb":
            return cls(_Source("file", path=str(path), name=name),
                       **options)
        if suffix == ".txt":
            def read_text(skip_malformed, skipped):
                from repro.trace.textform import iter_text
                with open(path, encoding="utf-8") as lines:
                    yield from iter_text(lines, skip_malformed, skipped)
            return cls(_Source("records", records=read_text, name=name),
                       **options)
        if suffix == ".pcap":
            def read_pcap(skip_malformed, skipped):
                from repro.trace.convert import pcap_to_trace
                return pcap_to_trace(
                    path.read_bytes(), name=name,
                    skip_malformed=skip_malformed,
                    skipped=skipped).records
            return cls(_Source("records", records=read_pcap, name=name),
                       **options)
        raise ValueError(f"{path}: unknown trace format; expected "
                         f".pcap, .txt, or .ldpb")

    @classmethod
    def from_trace(cls, trace: Trace, **options) -> "TracePipeline":
        return cls(_Source("records",
                           records=lambda skip, skipped: trace.records,
                           name=trace.name), **options)

    @classmethod
    def from_records(cls, records: Iterable[QueryRecord],
                     name: str = "", **options) -> "TracePipeline":
        return cls(_Source("records",
                           records=lambda skip, skipped: records,
                           name=name), **options)

    @classmethod
    def from_binary(cls, data: bytes, name: str = "",
                    **options) -> "TracePipeline":
        return cls(_Source("binary", data=data, name=name), **options)

    def _copy(self, **changes) -> "TracePipeline":
        return TracePipeline(
            changes.get("source", self._source),
            changes.get("ops", self._ops),
            jobs=changes.get("jobs", self.jobs),
            chunk_records=changes.get("chunk_records",
                                      self.chunk_records),
            skip_malformed=changes.get("skip_malformed",
                                       self.skip_malformed),
            skipped=changes.get("skipped", self._skipped))

    # -- chaining ----------------------------------------------------------

    def pipe(self, *ops: PipelineOp) -> "TracePipeline":
        """Append ops; returns a new (still lazy) pipeline."""
        return self._copy(ops=self._ops + tuple(ops))

    def set_protocol(self, proto: str, fraction: float = 1.0,
                     seed: int = 0) -> "TracePipeline":
        return self.pipe(SetProtocol(proto, fraction, seed))

    def set_do_fraction(self, fraction: float, payload: int = 4096,
                        seed: int = 0) -> "TracePipeline":
        return self.pipe(SetDoFraction(fraction, payload, seed))

    def prepend_unique(self, prefix: str = "q") -> "TracePipeline":
        return self.pipe(PrependUnique(prefix))

    def scale_time(self, factor: float) -> "TracePipeline":
        return self.pipe(ScaleTime(factor))

    def rebase_time(self, start: float = 0.0) -> "TracePipeline":
        return self.pipe(RebaseTime(start))

    def set_qname_suffix(self, old: str, new: str) -> "TracePipeline":
        return self.pipe(SetQnameSuffix(old, new))

    def filter(self, predicate) -> "TracePipeline":
        return self.pipe(FilterRecords(predicate))

    def map(self, fn) -> "TracePipeline":
        return self.pipe(MapRecords(fn))

    def with_options(self, **options) -> "TracePipeline":
        """New pipeline with changed execution knobs
        (jobs/chunk_records/skip_malformed/skipped)."""
        return self._copy(**options)

    @property
    def name(self) -> str:
        return self._source.name

    @property
    def chunkable(self) -> bool:
        return self._source.kind in ("file", "binary")

    # -- execution internals -----------------------------------------------

    def _open_buffer(self):
        """(buffer, cleanup) for a chunkable source; mmap for files."""
        if self._source.kind == "file":
            handle = open(self._source.path, "rb")
            try:
                buf = mmap.mmap(handle.fileno(), 0,
                                access=mmap.ACCESS_READ)
            except ValueError:      # zero-length file: mmap refuses
                data = handle.read()
                handle.close()
                return data, lambda: None
            return buf, lambda: (buf.close(), handle.close())
        return self._source.data, lambda: None

    def _context(self, buf) -> PipelineContext:
        """The first record's time, when an op reads it: that of the
        first frame :func:`check_frame` accepts, the record a streaming
        read keeps first.  (A malformed frame before it is raised before
        any op runs, or skipped.)"""
        if not any(op.needs_first_time for op in self._ops):
            return PipelineContext()
        for offset, length in scan_frames(buf, skip_malformed=True):
            frame = buf[offset + 2:offset + 2 + length]
            try:
                check_frame(frame)
            except BinaryFormatError:
                continue
            return PipelineContext(
                first_time=_F64.unpack_from(frame, TIME_OFFSET)[0])
        return PipelineContext()

    def _chunks(self, buf) -> Iterator[_Chunk]:
        """The one frame walk: ``chunk_records`` frames a chunk, each
        frame's offset noted for the runner.  The last chunk runs to the
        end of *buf* and carries the walk's ruling on a truncated tail,
        which its runner applies after every record before it."""
        tails: list[TraceFormatError] = []
        frames = array("q")
        base, end = 0, HEADER_SIZE
        for offset, length in scan_frames(buf, skip_malformed=True,
                                          skipped=tails):
            frames.append(offset)
            end = offset + 2 + length
            if len(frames) == self.chunk_records:
                frames.append(end)
                yield _Chunk(frames, base, end)
                base += self.chunk_records
                frames = array("q")
        if frames or end < len(buf):
            frames.append(end)
            yield _Chunk(frames, base, len(buf), next(
                ((e.message, e.index, e.offset) for e in tails), None))

    def _run_chunked(self, mode: str):
        """Run the chunked executor; yields per-chunk payloads in input
        order.  ``mode`` is "binary" (payload: frame bytes), "records"
        (the output records) or "stats" (payload: StreamingStats)."""
        buf, cleanup = self._open_buffer()
        result = PipelineResult()
        try:
            check_header(buf)
            chunks = self._chunks(buf)
            ctx = self._context(buf)
            chain = _CompiledChain(self._ops, ctx, self.skip_malformed)
            self._check_picklable(chain)
            if self.jobs > 1:
                chunks = list(chunks)
            if self.jobs == 1 or len(chunks) <= 1:
                # Each chunk is cut just before it runs.
                outcomes = (_process_chunk(buf, chain, mode, chunk)
                            for chunk in chunks)
            else:
                outcomes = self._pool_outcomes(chunks, chain, mode)
            for payload, n_in, n_out, skipped, elapsed in outcomes:
                result.chunks += 1
                result.worker_seconds += elapsed
                result.records_in += n_in
                result.records_out += n_out
                result.skipped += len(skipped)
                for error in skipped:
                    note_skipped(self._skipped, error)
                yield payload
        finally:
            cleanup()
            self.last_result = result

    def _check_picklable(self, chain: _CompiledChain) -> None:
        if self.jobs == 1:
            return
        try:
            pickle.dumps(chain)
        except Exception as exc:
            raise ValueError(
                "pipeline ops must be picklable for jobs > 1 (use "
                "module-level functions for filter/map predicates, or "
                "run with jobs=1)") from exc

    def _pool_outcomes(self, chunks, chain, mode):
        import multiprocessing as mp
        if self._source.kind == "file":
            source = ("file", self._source.path)
        else:
            source = ("bytes", self._source.data)
        with mp.get_context().Pool(
                processes=self.jobs, initializer=_init_worker,
                initargs=(source, pickle.dumps(chain), mode)) as pool:
            yield from pool.imap(_run_chunk, chunks, chunksize=1)

    def _stream(self) -> Iterator[tuple[int, QueryRecord]]:
        """Serial path for record sources (Trace/iterator/text/pcap):
        ``(input index, record)`` for each record the chain keeps."""
        result = PipelineResult(chunks=0)
        started = _time.perf_counter()
        try:
            source_records = self._source.records(self.skip_malformed,
                                                  self._skipped)
            iterator = iter(source_records)
            ctx = PipelineContext()
            first: list[QueryRecord] = []
            if any(op.needs_first_time for op in self._ops):
                try:
                    head = next(iterator)
                except StopIteration:
                    iterator = iter(())
                else:
                    ctx = PipelineContext(first_time=head.time)
                    first = [head]
            chain = _CompiledChain(self._ops, ctx, self.skip_malformed)
            for index, record in enumerate(
                    itertools.chain(first, iterator)):
                result.records_in += 1
                out = chain.apply_record(record, index)
                if out is not None:
                    result.records_out += 1
                    yield index, out
        finally:
            result.worker_seconds = _time.perf_counter() - started
            self.last_result = result

    # -- sinks -------------------------------------------------------------

    def __iter__(self) -> Iterator[QueryRecord]:
        return self.records()

    def records(self) -> Iterator[QueryRecord]:
        """Iterate output records.  On an LDPB source each is decoded
        once, by the chunk that read it: the patched frame, or the
        record the chain's last record op left, if LDPB can hold it."""
        if not self.chunkable:
            return (record for _, record in self._stream())
        return itertools.chain.from_iterable(self._run_chunked("records"))

    def collect(self) -> Trace:
        """Materialize the output as a :class:`Trace`."""
        return Trace(list(self.records()), name=self.name)

    def to_binary(self) -> bytes:
        """Run and return the complete LDPB output stream."""
        if self.chunkable:
            out = bytearray(HEADER)
            for frames in self._run_chunked("binary"):
                out += frames
            return bytes(out)
        return self._encode_stream()

    def _encode_stream(self) -> bytes:
        """LDPB from a record source; a record the format cannot hold is
        malformed at its input index, as on an LDPB source."""
        dropped: list[TraceFormatError] = []
        out = bytearray(HEADER)
        for index, record in self._stream():
            try:
                out += encode_frame(record)
            except BinaryFormatError as exc:
                reject(exc.message, index, None, self.skip_malformed,
                       dropped)
        for error in dropped:
            note_skipped(self._skipped, error)
        self.last_result.records_out -= len(dropped)
        self.last_result.skipped += len(dropped)
        return bytes(out)

    def to_file(self, path: str | Path) -> PipelineResult:
        """Run and write the output trace (format by extension).

        ``.ldpb`` output streams chunk results straight to disk —
        nothing is materialized — which with an ``.ldpb`` source is the
        fully parallel file-to-file path the CLIs use."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".ldpb" and self.chunkable:
            with open(path, "wb") as handle:
                handle.write(HEADER)
                for frames in self._run_chunked("binary"):
                    handle.write(frames)
            return self.last_result
        if suffix == ".ldpb":
            path.write_bytes(self._encode_stream())
            return self.last_result
        if suffix == ".txt":
            from repro.trace.textform import trace_to_text
            path.write_text(trace_to_text(self.collect()),
                            encoding="utf-8")
            return self.last_result
        if suffix == ".pcap":
            from repro.trace.convert import trace_to_pcap
            path.write_bytes(trace_to_pcap(self.collect()))
            return self.last_result
        raise ValueError(f"{path}: unknown trace format; expected "
                         f".pcap, .txt, or .ldpb")

    def stats(self):
        """Single-pass statistics over the pipeline output.

        Chunkable sources compute per-chunk partial statistics in the
        workers and merge them in input order (Welford merge for the
        interarrival moments), so a multi-gigabyte trace never
        materializes; other sources stream."""
        from repro.trace.stats import StreamingStats
        if self.chunkable:
            merged = StreamingStats(name=self.name)
            for partial in self._run_chunked("stats"):
                merged.merge(partial)
            return merged
        merged = StreamingStats(name=self.name)
        for _, record in self._stream():
            merged.update(record)
        return merged


def as_trace(feed, observer=None) -> Trace:
    """Coerce a replay feed — Trace, TracePipeline, or record iterable
    — into a Trace.  The replay engines accept any of the three; when
    a pipeline has run, its ``last_result`` counts are recorded under
    *observer*, when given, so they land in the replay's own snapshot."""
    if isinstance(feed, Trace):
        return feed
    if isinstance(feed, TracePipeline):
        trace = feed.collect()
        if observer is not None:
            result = feed.last_result
            observer.pipeline_records_in += result.records_in
            observer.pipeline_records_out += result.records_out
            observer.pipeline_chunks += result.chunks
            observer.pipeline_skipped += result.skipped
            observer.pipeline_worker_seconds += result.worker_seconds
        return trace
    return Trace(list(feed))
