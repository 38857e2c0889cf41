"""Trace records: one DNS query as captured or replayed.

A :class:`QueryRecord` is the unit flowing through LDplayer's input
engine (Figure 3): parsed out of a network trace, rendered to editable
text, serialized into the internal binary stream, and finally turned
back into a wire-format query by a querier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from sys import intern

from repro.dns.constants import RRClass, RRType
from repro.dns.message import Edns, Message, plain_query
from repro.dns.name import Name

PROTOCOLS = ("udp", "tcp", "tls", "quic")
# Distinct questions whose encoded form is kept (see _query_tail): a
# bound on memory, not a tuning knob — a trace of any length costs at
# most this many short byte strings.
QUERY_WIRE_MEMO = 4096


@lru_cache(maxsize=QUERY_WIRE_MEMO)
def _query_tail(qname: str, qtype: int, qclass: int, rd: bool, do: bool,
                edns_payload: int) -> bytes:
    """The encoded query minus its two id bytes, keyed on every field
    the bytes depend on: a question that repeats in a trace is parsed
    and encoded once, and each send only prepends its message id (§2.5:
    the generator does almost no per-query work).

    A miss (B-Root's junk names are unique) assembles the bytes of
    ``QueryRecord.to_message().to_wire()`` directly
    (:func:`repro.dns.message.plain_query`);
    ``InvariantChecker.on_query_wire`` holds the two equal under
    ``check=True``."""
    edns = (edns_payload or 4096, do) if edns_payload or do else None
    return plain_query(Name.from_text(qname), qtype, qclass, rd, edns)


@dataclass(frozen=True)
class QueryRecord:
    """One query in a trace."""

    time: float                 # absolute timestamp, seconds
    src: str                    # client source address
    qname: str                  # query name, presentation form
    qtype: int = RRType.A
    qclass: int = RRClass.IN
    proto: str = "udp"
    sport: int = 0              # 0: let the querier pick
    msg_id: int = 0
    rd: bool = False
    do: bool = False
    edns_payload: int = 0       # 0: no EDNS
    dst: str = ""               # original destination (server) address

    def __post_init__(self):
        if self.proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.proto!r}")

    def with_(self, **changes) -> "QueryRecord":
        """``dataclasses.replace(self, **changes)`` at the cost of what
        changes: one shallow copy of the fields plus the new values,
        instead of a 12-field ``__init__`` per call (§2.5 rewrites call
        this several times per record)."""
        if not _FIELD_NAMES.issuperset(changes):
            unknown = min(set(changes) - _FIELD_NAMES)
            raise TypeError(f"QueryRecord has no field {unknown!r}")
        new = _new(type(self))
        new.__dict__.update(self.__dict__, **changes)
        if "proto" in changes:
            new.__post_init__()
        return new

    def to_message(self) -> Message:
        """Build the wire query this record describes."""
        edns = None
        if self.edns_payload or self.do:
            edns = Edns(payload=self.edns_payload or 4096, do=self.do)
        return Message.make_query(Name.from_text(self.qname), self.qtype,
                                  msg_id=self.msg_id, rd=self.rd,
                                  edns=edns, qclass=self.qclass)

    def query_wire(self, msg_id: int) -> bytes:
        """``with_(msg_id=msg_id).to_message().to_wire()``, encoding
        each distinct question once."""
        return msg_id.to_bytes(2, "big") + _query_tail(
            self.qname, self.qtype, self.qclass, self.rd, self.do,
            self.edns_payload)

    @classmethod
    def from_message(cls, message: Message, time: float, src: str,
                     sport: int = 0, proto: str = "udp",
                     dst: str = "") -> "QueryRecord":
        if message.question is None:
            raise ValueError("message has no question")
        return cls(time=time, src=src, sport=sport, proto=proto, dst=dst,
                   qname=message.question.qname.to_text(),
                   qtype=message.question.qtype,
                   qclass=message.question.qclass,
                   msg_id=message.msg_id,
                   rd=bool(message.flags & 0x0100),
                   do=message.edns.do if message.edns else False,
                   edns_payload=message.edns.payload if message.edns else 0)


_new = object.__new__
_FIELD_NAMES = frozenset(f.name for f in fields(QueryRecord))


def make_record(time: float, src: str, qname: str, qtype: int, qclass: int,
                proto: str, sport: int, msg_id: int, rd: bool, do: bool,
                edns_payload: int, dst: str) -> QueryRecord:
    """``QueryRecord(...)`` with every field given, built in one step
    for the trace codecs, which construct one record per line or frame:
    the fields are stored directly instead of through the frozen
    ``__init__``'s twelve ``object.__setattr__`` calls.  Item stores (not
    one ``update(**fields)``) keep the instance dict key-sharing, and
    the addresses are interned: a trace has few clients next to its
    records, so they share one ``str`` per address for as long as any
    record holds it."""
    if proto not in PROTOCOLS:
        raise ValueError(f"unknown protocol {proto!r}")
    record = _new(QueryRecord)
    state = record.__dict__
    state["time"] = time
    state["src"] = intern(src)
    state["qname"] = qname
    state["qtype"] = qtype
    state["qclass"] = qclass
    state["proto"] = proto
    state["sport"] = sport
    state["msg_id"] = msg_id
    state["rd"] = rd
    state["do"] = do
    state["edns_payload"] = edns_payload
    state["dst"] = intern(dst)
    return record


@dataclass
class Trace:
    """An ordered sequence of query records plus provenance."""

    records: list[QueryRecord] = field(default_factory=list)
    name: str = ""

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def sorted(self) -> "Trace":
        return Trace(sorted(self.records, key=lambda r: r.time),
                     name=self.name)

    def duration(self) -> float:
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].time - self.records[0].time

    def clients(self) -> set[str]:
        return {record.src for record in self.records}

    def rebase_time(self, start: float = 0.0) -> "Trace":
        """Shift timestamps so the first query lands at *start*."""
        if not self.records:
            return Trace([], name=self.name)
        offset = start - self.records[0].time
        return Trace([r.with_(time=r.time + offset)
                      for r in self.records], name=self.name)
