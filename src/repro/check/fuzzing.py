"""Structured DNS fuzzing: shared hypothesis strategies + a budgeted
runner.

One place owns the generators that used to be scattered ad-hoc across
tests/dns and tests/trace:

* **valid inputs** — :func:`dns_names`, :func:`dns_messages`,
  :func:`wire_messages`, :func:`query_records`: structurally valid
  values for round-trip properties;
* **hostile inputs** — :func:`hostile_wire`,
  :func:`hostile_trace_binary`, :func:`hostile_trace_lines`: either
  raw noise or a *valid* value put through targeted mutations —
  spliced compression pointers (forward/self/looping, built from the
  :mod:`repro.dns.wire` pointer constants), cranked section counts,
  truncations, bit flips, malformed tails — so the fuzz spends its
  budget near the parsers' interesting edges instead of deep in
  "first two bytes are garbage" territory.

:func:`run_fuzz` drives the never-crash targets (message parser,
responder plain and precompiled, trace readers, wire round-trip)
outside pytest for ``ldp-verify``: seeded, example-budgeted, no example
database, so a CI conformance run is reproducible from its printed seed.

This module requires ``hypothesis`` (a test/CI dependency, not a
runtime one); importing it without raises with a hint instead of a
bare ImportError.
"""

from __future__ import annotations

import struct
import time as _time
from dataclasses import dataclass, field

try:
    from hypothesis import (HealthCheck, given, seed as hypothesis_seed,
                            settings, strategies as st)
except ImportError as exc:                          # pragma: no cover
    raise ImportError(
        "repro.check.fuzzing requires the 'hypothesis' package "
        "(a test dependency: pip install hypothesis)") from exc

from repro.dns.constants import Flag, RRClass, RRType
from repro.dns.message import Edns, Message, Question
from repro.dns.name import Name
from repro.dns.rdata import A, CNAME, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.wire import POINTER_FLAG, POINTER_MASK

_LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-_"

_labels = st.text(alphabet=_LABEL_ALPHABET, min_size=1,
                  max_size=16).map(lambda s: s.encode())


@st.composite
def dns_names(draw, max_labels: int = 5) -> Name:
    """A syntactically valid (not necessarily pretty) DNS name."""
    count = draw(st.integers(0, max_labels))
    return Name([draw(_labels) for _ in range(count)])


@st.composite
def edns_options(draw) -> bytes:
    """Well-formed EDNS option TLVs (code, length, data)."""
    out = b""
    for _ in range(draw(st.integers(0, 3))):
        data = draw(st.binary(max_size=16))
        code = draw(st.integers(0, 0xFFFF))
        out += struct.pack("!HH", code, len(data)) + data
    return out


_QTYPES = st.sampled_from([RRType.A, RRType.NS, RRType.CNAME,
                           RRType.SOA, RRType.TXT, RRType.MX,
                           RRType.ANY])


@st.composite
def dns_messages(draw) -> Message:
    """A structured DNS message: question, mixed-type answer RRsets,
    optional EDNS with options — the valid core the hostile strategies
    mutate and the round-trip properties exercise."""
    message = Message(
        msg_id=draw(st.integers(0, 0xFFFF)),
        flags=Flag.QR if draw(st.booleans()) else Flag(0),
        question=Question(draw(dns_names()), draw(_QTYPES),
                          RRClass.IN))
    for _ in range(draw(st.integers(0, 4))):
        owner = draw(dns_names())
        ttl = draw(st.integers(0, 86400))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            rdata = A(f"192.0.2.{draw(st.integers(0, 255))}")
            rtype = RRType.A
        elif kind == 1:
            rdata = TXT((draw(st.binary(min_size=0, max_size=40)),))
            rtype = RRType.TXT
        elif kind == 2:
            rdata = NS(draw(dns_names()))
            rtype = RRType.NS
        else:
            rdata = CNAME(draw(dns_names()))
            rtype = RRType.CNAME
        message.answer.append(RRset(owner, rtype, ttl, [rdata]))
    if draw(st.booleans()):
        message.edns = Edns(payload=draw(st.integers(512, 4096)),
                            do=draw(st.booleans()),
                            options=draw(edns_options()))
    return message


def wire_messages():
    """Valid wire-format DNS messages."""
    return dns_messages().map(lambda m: m.to_wire())


# -- hostile mutations --------------------------------------------------------

def _mutate_wire(draw, wire: bytearray) -> bytearray:
    """Apply one targeted mutation to a wire message in place."""
    kind = draw(st.integers(0, 6))
    if kind == 6 and len(wire) >= 12:           # qname past 255 bytes
        return wire[:12] + (b"\x3f" + b"x" * 63) * draw(
            st.integers(4, 5)) + wire[12:]
    if kind == 0 and wire:                      # truncate mid-structure
        return wire[:draw(st.integers(0, len(wire) - 1))]
    if kind == 1 and wire:                      # flip bits somewhere
        pos = draw(st.integers(0, len(wire) - 1))
        wire[pos] ^= draw(st.integers(1, 0xFF))
        return wire
    if kind == 2 and len(wire) >= 2:            # splice a pointer:
        pos = draw(st.integers(0, len(wire) - 2))
        target = draw(st.integers(0, 0x3FFF))   # forward/self/looping
        struct.pack_into("!H", wire, pos, POINTER_FLAG | target)
        return wire
    if kind == 3 and len(wire) >= 12:           # crank a section count
        section = draw(st.integers(0, 3))
        struct.pack_into("!H", wire, 4 + 2 * section,
                         draw(st.integers(0, 0xFFFF)))
        return wire
    if kind == 4 and wire:                      # bad label-length byte
        pos = draw(st.integers(0, len(wire) - 1))
        wire[pos] = POINTER_MASK >> draw(st.integers(0, 1))
        return wire
    return wire + bytearray(draw(st.binary(max_size=40)))  # junk tail


@st.composite
def hostile_wire(draw) -> bytes:
    """Raw noise, a valid message, or a valid message put through up
    to three targeted mutations."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=300))
    wire = bytearray(draw(dns_messages()).to_wire())
    for _ in range(draw(st.integers(0, 3))):
        wire = _mutate_wire(draw, wire)
    return bytes(wire)


# -- trace inputs -------------------------------------------------------------

_addresses = st.integers(1, 0xFFFFFFFE).map(
    lambda n: f"{n >> 24 & 255}.{n >> 16 & 255}.{n >> 8 & 255}.{n & 255}")


@st.composite
def query_records(draw):
    """Valid trace records for reader/pipeline round-trip properties."""
    from repro.trace.record import QueryRecord
    name = draw(dns_names(max_labels=3))
    return QueryRecord(
        time=draw(st.floats(0.0, 1e6, allow_nan=False,
                            allow_infinity=False)),
        src=draw(_addresses),
        qname=name.to_text() if len(name.labels) else "example.",
        qtype=draw(st.integers(1, 0xFFFF)),
        proto=draw(st.sampled_from(("udp", "tcp", "tls", "quic"))),
        sport=draw(st.integers(0, 0xFFFF)),
        msg_id=draw(st.integers(0, 0xFFFF)),
        rd=draw(st.booleans()),
        do=draw(st.booleans()),
        edns_payload=draw(st.sampled_from((0, 512, 1232, 4096))))


def _corrupt_blob(draw, blob: bytearray) -> bytes:
    kind = draw(st.integers(0, 2))
    if kind == 0 and blob:
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if kind == 1 and blob:
        pos = draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= draw(st.integers(1, 0xFF))
        return bytes(blob)
    return bytes(blob) + draw(st.binary(max_size=30))


@st.composite
def hostile_trace_binary(draw) -> bytes:
    """LDPB streams: raw noise or a valid stream truncated/corrupted,
    so the reader's framing and checksum paths both get exercised."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.binary(max_size=200))
    from repro.trace.binaryform import trace_to_binary
    from repro.trace.record import Trace
    records = draw(st.lists(query_records(), max_size=4))
    blob = bytearray(trace_to_binary(Trace(records)))
    for _ in range(draw(st.integers(0, 2))):
        blob = bytearray(_corrupt_blob(draw, blob))
    return bytes(blob)


@st.composite
def hostile_trace_lines(draw) -> str:
    """Text-form trace lines: noise, or a valid line with fields
    dropped, duplicated, or replaced by junk."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.text(max_size=120).filter(
            lambda s: "\x00" not in s))
    from repro.trace.textform import record_to_line
    fields = record_to_line(draw(query_records())).split()
    kind = draw(st.integers(0, 3))
    if kind == 0 and fields:
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == 1 and fields:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.text(alphabet="abcxyz!@#.-", min_size=1, max_size=10))
    elif kind == 2:
        fields.append(draw(st.text(alphabet="abc0123", min_size=1,
                                   max_size=8)))
    return " ".join(fields)


# -- the budgeted never-crash runner ------------------------------------------

@dataclass
class FuzzReport:
    """What one :func:`run_fuzz` call executed."""

    seed: int
    examples: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def total_examples(self) -> int:
        return sum(self.examples.values())


def _target_message_parser(blob: bytes) -> None:
    from repro.dns.wire import WireError
    try:
        message = Message.from_wire(blob)
    except WireError:
        return
    message.to_wire()       # anything parsed must re-encode cleanly


def _make_responder(answer_cache: bool = False):
    from repro.check.scenarios import conformance_wire_zone
    from repro.server.responder import DnsResponder
    return DnsResponder(zones=[conformance_wire_zone()],
                        answer_cache=answer_cache)


def _target_responder(responder, plain=None):
    """Never crashes; given the *plain* engine too, *responder* (cache
    on) asked twice — miss path, then full-question hit — equals it."""
    def target(args) -> None:
        blob, proto = args
        def ask(server):
            return server.reply_wire(proto, blob, "192.0.2.77", 4242)
        out = ask(responder)
        assert out is None or isinstance(out, bytes)
        if plain is not None:
            assert out == ask(responder) == ask(plain)
    return target


def plain_queries():
    """Well-formed queries at and below the wire corpus zone's names —
    the shape ``read_question`` accepts, so a run reaches the templates."""
    return st.builds(
        lambda labels, qtype, msg_id, rd, edns: Message.make_query(
            Name(labels + [b"conf", b"example"]), qtype, msg_id, rd,
            edns).to_wire(),
        st.lists(st.sampled_from((b"sub", b"ns", b"www", b"WWW", b"wild",
                                  b"x" * 63)) | _labels, max_size=3),
        _QTYPES, st.integers(0, 0xFFFF), st.booleans(),
        st.none() | st.builds(Edns, payload=st.sampled_from(
            (512, 1232, 4096)), do=st.booleans()))


def _target_trace_binary(blob: bytes) -> None:
    """Every LDPB reader reads *blob* one way: ``binary_to_trace`` and
    the pipeline's ``collect``/``stats``, at one-record chunks and at
    the default, agree on the records, on the ``(index, offset)`` of
    what ``skip_malformed`` drops and on the located error raised
    without it.  Past the header every error carries an index."""
    from repro.trace.binaryform import (binary_to_trace, check_header,
                                        decode_record, encode_record)
    from repro.trace.errors import TraceFormatError
    from repro.trace.pipeline import TracePipeline
    from repro.trace.stats import StreamingStats
    try:
        decode_record(blob)
    except TraceFormatError:
        pass
    try:
        check_header(blob)
        past_header = True
    except TraceFormatError:
        past_header = False

    def reading(read, skip):
        skipped: list = []
        try:
            out = read(skip_malformed=skip, skipped=skipped)
        except TraceFormatError as error:
            out, skipped = None, skipped + [error]
        assert not past_header or all(e.index is not None
                                      for e in skipped), skipped
        return out, [(type(e), e.index, e.offset) for e in skipped]

    def frames(records):
        # Frames, not records: a NaN time is unequal to itself.
        return None if records is None else [encode_record(r)
                                             for r in records]

    def tally(stats):
        return (stats.records, stats.client_counts, stats.proto_counts,
                stats.do_count)

    for skip in (False, True):
        records, errors = reading(
            lambda **o: binary_to_trace(blob, **o).records, skip)
        expected = None
        if records is not None:
            fed = StreamingStats()
            for record in records:
                fed.update(record)
            expected = tally(fed)
        for chunking in ({"chunk_records": 1}, {}):
            def pipe(**o):
                return TracePipeline.from_binary(blob, **chunking, **o)
            got, got_errors = reading(
                lambda **o: pipe(**o).collect().records, skip)
            assert (frames(got), got_errors) == (frames(records), errors)
            got, got_errors = reading(
                lambda **o: tally(pipe(**o).stats()), skip)
            assert (got, got_errors) == (expected, errors)


def _target_trace_text(line: str) -> None:
    from repro.trace.errors import TraceFormatError
    from repro.trace.textform import line_to_record
    try:
        line_to_record(line, 1)
    except TraceFormatError:
        pass


def _target_wire_round_trip(message: Message) -> None:
    back = Message.from_wire(message.to_wire())
    assert back.msg_id == message.msg_id
    assert back.question == message.question


def fuzz_targets() -> dict:
    """name -> (strategy, target callable).  The responder target is
    built here so its zone/responder are constructed once per run."""
    return {
        "message_parser": (hostile_wire(), _target_message_parser),
        "responder": (st.tuples(hostile_wire(),
                                st.sampled_from(("udp", "tcp"))),
                      _target_responder(_make_responder())),
        "responder_precompiled": (
            st.tuples(hostile_wire() | plain_queries(),
                      st.sampled_from(("udp", "tcp"))),
            _target_responder(_make_responder(True), _make_responder())),
        "trace_binary": (hostile_trace_binary(), _target_trace_binary),
        "trace_text": (hostile_trace_lines(), _target_trace_text),
        "wire_round_trip": (dns_messages(), _target_wire_round_trip),
    }


def run_fuzz(max_examples: int = 10_000, seed: int = 0,
             targets: dict | None = None,
             log=None) -> FuzzReport:
    """Split *max_examples* across the never-crash targets and drive
    each with hypothesis, seeded and database-free so the run is
    reproducible from (*seed*, *max_examples*) alone.  A failing
    target raises with hypothesis's shrunk falsifying example.

    *targets* selects what runs: None for all of
    :func:`fuzz_targets`, an iterable of their names, or a full
    ``name -> (strategy, target)`` dict."""
    if targets is None:
        targets = fuzz_targets()
    elif not isinstance(targets, dict):
        wanted = set(targets)
        registry = fuzz_targets()
        unknown = wanted - set(registry)
        if unknown:
            raise ValueError(f"unknown fuzz targets: {sorted(unknown)}")
        targets = {name: registry[name] for name in wanted}
    report = FuzzReport(seed=seed)
    share = max(1, max_examples // max(1, len(targets)))
    started = _time.monotonic()
    for name, (strategy, target) in sorted(targets.items()):
        if log is not None:
            log(f"fuzz {name}: {share} examples (seed {seed})")
        test = given(strategy)(target)
        test = settings(max_examples=share, deadline=None,
                        database=None, derandomize=False,
                        suppress_health_check=list(HealthCheck))(test)
        test = hypothesis_seed(seed)(test)
        test()
        report.examples[name] = share
    report.elapsed = _time.monotonic() - started
    return report
