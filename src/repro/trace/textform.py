"""Column-oriented plain-text trace format (§2.5).

The paper converts binary traces to "human-readable plain text for
flexible and user-friendly manipulation ... a column-based plain text
file where each line contains necessary information of a DNS message".
One line per query, tab-separated:

    time  src  sport  dst  proto  qname  qclass  qtype  flags  payload  id

``flags`` is a comma-joined subset of {DO, RD} or ``-``.  Lines starting
with ``#`` are comments.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.dns.constants import RRClass, RRType
from repro.trace.errors import TraceFormatError, note_skipped
from repro.trace.record import QueryRecord, Trace, make_record

HEADER = ("# time\tsrc\tsport\tdst\tproto\tqname\tqclass\tqtype"
          "\tflags\tpayload\tid")


class TextFormatError(TraceFormatError):
    """Malformed column-text input; ``line`` is 1-based, and doubles
    as the :class:`TraceFormatError` record index."""

    def __init__(self, message: str, line: int):
        ValueError.__init__(self, f"line {line}: {message}")
        self.message = message
        self.index = line
        self.offset = None
        self.line = line

    def __reduce__(self):
        # Exceptions unpickle as cls(*args), and args is the formatted
        # string alone: without this the positional *line* goes missing.
        return type(self), (self.message, self.line)


def record_to_line(record: QueryRecord) -> str:
    flags = ",".join(name for name, on in (("DO", record.do),
                                           ("RD", record.rd)) if on) or "-"
    return "\t".join([
        f"{record.time:.6f}",
        record.src,
        str(record.sport),
        record.dst or "-",
        record.proto,
        record.qname,
        RRClass.to_text(record.qclass),
        RRType.to_text(record.qtype),
        flags,
        str(record.edns_payload),
        str(record.msg_id),
    ])


# The spellings the reader meets, looked up once per line; any other
# goes the general way (RRType.from_text and friends), which accepts
# and returns the same.
_TYPES = dict(RRType.__members__)
_CLASSES = dict(RRClass.__members__)
_FLAGS = {"-": (False, False), "RD": (True, False), "DO": (False, True),
          "DO,RD": (True, True), "RD,DO": (True, True)}   # (rd, do)


def _flags(text: str) -> tuple[bool, bool]:
    flag_set = set(text.split(","))
    unknown = flag_set - {"DO", "RD"}
    if unknown:
        raise ValueError(f"unknown flags {sorted(unknown)}")
    return "RD" in flag_set, "DO" in flag_set


def line_to_record(line: str, lineno: int = 0) -> QueryRecord:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 11:
        raise TextFormatError(f"expected 11 columns, got {len(fields)}",
                              lineno)
    (time_s, src, sport, dst, proto, qname, qclass, qtype, flags,
     payload, msg_id) = fields
    try:
        rd, do = _FLAGS.get(flags) or _flags(flags)
        # Every member is non-zero, so ``or`` only falls through on a
        # miss; the arguments are parsed in the order they are listed.
        return make_record(
            float(time_s), src, qname,
            _TYPES.get(qtype) or RRType.from_text(qtype),
            _CLASSES.get(qclass) or RRClass.from_text(qclass), proto,
            int(sport), int(msg_id), rd, do, int(payload),
            "" if dst == "-" else dst)
    except ValueError as exc:
        raise TextFormatError(str(exc), lineno) from exc


def trace_to_text(trace: Trace) -> str:
    lines = [HEADER]
    lines.extend(record_to_line(record) for record in trace)
    return "\n".join(lines) + "\n"


def iter_text(lines: Iterable[str], skip_malformed: bool = False,
              skipped: list | None = None) -> Iterator[QueryRecord]:
    """Records from text lines, one at a time (*lines* may be an open
    file: nothing beyond the current line is held).  Blank and ``#``
    lines are passed over; a malformed line raises with its 1-based
    number, or with *skip_malformed* is dropped (and collected into
    *skipped*)."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record = line_to_record(line, lineno)
        except TextFormatError as error:
            if not skip_malformed:
                raise
            note_skipped(skipped, error)
        else:
            yield record


def text_to_trace(text: str, name: str = "",
                  skip_malformed: bool = False,
                  skipped: list | None = None) -> Trace:
    return Trace(list(iter_text(text.splitlines(), skip_malformed,
                                skipped)), name=name)
