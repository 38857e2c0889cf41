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

from repro.dns.constants import RRClass, RRType
from repro.trace.errors import TraceFormatError, note_skipped
from repro.trace.record import QueryRecord, Trace

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


def line_to_record(line: str, lineno: int = 0) -> QueryRecord:
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
        return QueryRecord(
            time=float(time_s), src=src, sport=int(sport),
            dst="" if dst == "-" else dst, proto=proto, qname=qname,
            qclass=RRClass.from_text(qclass),
            qtype=RRType.from_text(qtype),
            do="DO" in flag_set, rd="RD" in flag_set,
            edns_payload=int(payload), msg_id=int(msg_id))
    except ValueError as exc:
        raise TextFormatError(str(exc), lineno) from exc


def trace_to_text(trace: Trace) -> str:
    lines = [HEADER]
    lines.extend(record_to_line(record) for record in trace)
    return "\n".join(lines) + "\n"


def text_to_trace(text: str, name: str = "",
                  skip_malformed: bool = False,
                  skipped: list | None = None) -> Trace:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            records.append(line_to_record(line, lineno))
        except TextFormatError as error:
            if not skip_malformed:
                raise
            note_skipped(skipped, error)
    return Trace(records, name=name)
