"""Trace records: one DNS query as captured or replayed.

A :class:`QueryRecord` is the unit flowing through LDplayer's input
engine (Figure 3): parsed out of a network trace, rendered to editable
text, serialized into the internal binary stream, and finally turned
back into a wire-format query by a querier.
"""

from __future__ import annotations

from collections import _tuplegetter
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import lru_cache
from sys import intern

from repro.dns.constants import RRClass, RRType
from repro.dns.message import Edns, Message, plain_query
from repro.dns.name import Name, text_labels

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
    (:func:`repro.dns.message.plain_query`) from the labels
    ``Name.from_text`` would hold, without building the ``Name``;
    ``InvariantChecker.on_query_wire`` holds the two equal under
    ``check=True``."""
    edns = (edns_payload or 4096, do) if edns_payload or do else None
    return plain_query(text_labels(qname), qtype, qclass, rd, edns)


@dataclass(frozen=True)
class _Fields:
    """The record's fields, declared once: :class:`QueryRecord` takes
    its dataclass contract (``dataclasses.fields``/``replace``/
    ``astuple``) from this declaration."""

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


_FIELD_NAMES = tuple(f.name for f in fields(_Fields))
_new = tuple.__new__


class QueryRecord(tuple):
    """One query in a trace: an immutable frozen-dataclass record stored
    as a tuple of its twelve fields, so it has no per-instance
    ``__dict__`` and a decode builds it in one C-level step
    (:func:`make_record`).  Fields read by position through
    ``_tuplegetter``; equality, hashing, repr, pickling and the
    ``dataclasses`` functions behave as for ``@dataclass(frozen=True)``
    over the same fields."""

    __slots__ = ()
    __dataclass_fields__ = _Fields.__dataclass_fields__
    __dataclass_params__ = _Fields.__dataclass_params__
    __match_args__ = _FIELD_NAMES

    def __new__(cls, time: float, src: str, qname: str,
                qtype: int = RRType.A, qclass: int = RRClass.IN,
                proto: str = "udp", sport: int = 0, msg_id: int = 0,
                rd: bool = False, do: bool = False, edns_payload: int = 0,
                dst: str = "") -> "QueryRecord":
        if proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol {proto!r}")
        return _new(cls, (time, src, qname, qtype, qclass, proto, sport,
                          msg_id, rd, do, edns_payload, dst))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return NotImplemented

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return "QueryRecord(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(_FIELD_NAMES, self)) + ")"

    def with_(self, **changes) -> "QueryRecord":
        """``dataclasses.replace(self, **changes)`` at the cost of what
        changes: one tuple built from the old values and the new ones
        (§2.5 rewrites call this several times per record)."""
        values = _new(QueryRecord, map(changes.pop, _FIELD_NAMES, self))
        if changes:
            raise TypeError(f"QueryRecord has no field {min(changes)!r}")
        if values[5] not in PROTOCOLS:
            raise ValueError(f"unknown protocol {values[5]!r}")
        return values

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


for _position, _name in enumerate(_FIELD_NAMES):
    setattr(QueryRecord, _name, _tuplegetter(_position, None))
del _position, _name


def make_record(time: float, src: str, qname: str, qtype: int, qclass: int,
                proto: str, sport: int, msg_id: int, rd: bool, do: bool,
                edns_payload: int, dst: str) -> QueryRecord:
    """``QueryRecord(...)`` with every field given, built in one step
    for the trace codecs, which construct one record per line or frame.
    The addresses are interned: a trace has few clients next to its
    records, so they share one ``str`` per address for as long as any
    record holds it."""
    if proto not in PROTOCOLS:
        raise ValueError(f"unknown protocol {proto!r}")
    return _new(QueryRecord, (time, intern(src), qname, qtype, qclass,
                              proto, sport, msg_id, rd, do, edns_payload,
                              intern(dst)))


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
