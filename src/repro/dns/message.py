"""DNS messages: header, question, sections, EDNS0, and the wire codec."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.dns.constants import (DEFAULT_EDNS_PAYLOAD, EDNS_DO, MAX_LABEL,
                                 MAX_NAME_WIRE, Flag, Opcode, Rcode, RRClass,
                                 RRType)
from repro.dns.name import Name, fold
from repro.dns.rdata import Rdata
from repro.dns.rrset import RRset
from repro.dns.wire import WireError, WireReader, WireWriter


@dataclass(frozen=True)
class Question:
    qname: Name
    qtype: int
    qclass: int = RRClass.IN

    def to_text(self) -> str:
        return (f"{self.qname.to_text()} {RRClass.to_text(self.qclass)} "
                f"{RRType.to_text(self.qtype)}")


@dataclass
class Edns:
    """EDNS0 parameters carried by the OPT pseudo-record (RFC 6891)."""

    payload: int = DEFAULT_EDNS_PAYLOAD
    do: bool = False
    version: int = 0
    ext_rcode: int = 0
    options: bytes = b""

    def wire_size(self) -> int:
        """OPT RR size: root name + fixed RR header + options."""
        return 1 + 2 + 2 + 4 + 2 + len(self.options)


# -- EDNS option TLV codec (RFC 6891 §6.1.2) ---------------------------
#
# ``Edns.options`` stores the OPT RDATA verbatim; these helpers walk and
# rewrite the {option-code, option-length, option-data} sequence without
# forcing every EDNS consumer to learn the framing.

def encode_edns_option(code: int, data: bytes) -> bytes:
    """One TLV: 2-byte code, 2-byte length, data."""
    return (code.to_bytes(2, "big") + len(data).to_bytes(2, "big")
            + data)


def decode_edns_options(options: bytes) -> list[tuple[int, bytes]]:
    """All well-formed ``(code, data)`` TLVs in *options*; a trailing
    truncated TLV is ignored rather than raising (liberal receive)."""
    decoded: list[tuple[int, bytes]] = []
    pos = 0
    while pos + 4 <= len(options):
        code = int.from_bytes(options[pos:pos + 2], "big")
        length = int.from_bytes(options[pos + 2:pos + 4], "big")
        if pos + 4 + length > len(options):
            break
        decoded.append((code, options[pos + 4:pos + 4 + length]))
        pos += 4 + length
    return decoded


def get_edns_option(options: bytes, code: int) -> bytes | None:
    """Data of the first option with *code*, or None."""
    for found, data in decode_edns_options(options):
        if found == code:
            return data
    return None


def set_edns_option(options: bytes, code: int, data: bytes) -> bytes:
    """*options* with the option *code* set to *data* — replacing the
    existing occurrence in place, or appended when absent."""
    out = b""
    replaced = False
    for found, existing in decode_edns_options(options):
        if found == code and not replaced:
            out += encode_edns_option(code, data)
            replaced = True
        else:
            out += encode_edns_option(found, existing)
    if not replaced:
        out += encode_edns_option(code, data)
    return out


HEADER_SIZE = 12


def read_header(wire: bytes) -> tuple[int, bool, bool, int]:
    """``(msg_id, qr, tc, rcode)`` from the fixed 12-byte header, without
    touching the body — all a client needs to match a response to its
    query, notice truncation and record the outcome.

    *rcode* is the header's 4 bits.  The upper 8 bits of an extended
    rcode ride in the OPT TTL (RFC 6891 §6.1.3), which only a full
    :meth:`Message.from_wire` sees; nothing in this tree sets
    ``Edns.ext_rcode`` non-zero, so for every response these servers
    produce the two agree (``ReplayConfig(check=True)`` enforces it)."""
    if len(wire) < HEADER_SIZE:
        raise WireError(f"{len(wire)}-byte message: shorter than the "
                        f"{HEADER_SIZE}-byte header")
    high = wire[2]                  # QR, opcode(4), AA, TC, RD
    return (wire[0] << 8 | wire[1], bool(high & 0x80), bool(high & 0x02),
            wire[3] & 0x0F)


def read_question(wire: bytes):
    """``(rd, qname, qtype, qclass, question_end, (payload, do) | None)``
    for a plain query — the server-side inverse of
    :meth:`QueryRecord.query_wire` — and None for everything else.  Plain
    means exactly: QR clear, opcode QUERY, QDCOUNT 1, ANCOUNT = NSCOUNT
    = 0, an uncompressed qname of at most 255 wire bytes, then nothing or
    one root-owned, option-less, version-0, ext-rcode-0 OPT that ends
    the message.  A pointer in the qname, trailing bytes, a second
    additional record, any EDNS option (so cookies too) are
    :meth:`Message.from_wire`'s to judge; where this answers, the decoder
    does not raise and agrees on every field."""
    size = len(wire)
    if (size < HEADER_SIZE or wire[2] & 0xF8
            or wire[4:10] != b"\x00\x01\x00\x00\x00\x00"):
        return None
    labels = []
    pos = HEADER_SIZE
    while pos < size and wire[pos]:
        length = wire[pos]
        if length > MAX_LABEL or pos > HEADER_SIZE + MAX_NAME_WIRE:
            return None                 # a pointer, or too long a name
        labels.append(wire[pos + 1:pos + 1 + length])
        pos += 1 + length
    end = pos + 5
    if end > size or end - 4 - HEADER_SIZE > MAX_NAME_WIRE:
        return None
    edns, opt = None, wire[end:]
    if (wire[10:12] == b"\x00\x01" and len(opt) == 11
            and opt[:3] == b"\x00\x00\x29"
            and opt[5:7] == opt[9:] == b"\x00\x00"):
        edns = (opt[3] << 8 | opt[4], bool(opt[7] & 0x80))
    elif opt or wire[10:12] != b"\x00\x00":
        return None
    labels = tuple(labels)
    qname = Name._trusted(labels, fold(labels))
    return (bool(wire[2] & 0x01), qname, wire[pos + 1] << 8 | wire[pos + 2],
            wire[pos + 3] << 8 | wire[pos + 4], end, edns)


# A plain query after its id: flags (RD or nothing), QDCOUNT 1, ANCOUNT
# 0, NSCOUNT 0, ARCOUNT (the OPT); then the question, then the OPT.
_QUERY_HEADERS = {(rd, edns): struct.pack("!5H", Flag.RD if rd else 0,
                                          1, 0, 0, edns)
                  for rd in (False, True) for edns in (False, True)}
_QUESTION_END = struct.Struct("!BHH")   # root label, qtype, qclass
_QTYPE_QCLASS = struct.Struct("!HH")
_OPT = struct.Struct("!BHHIH")  # root, OPT, payload, ttl (DO), no options
OPT_SIZE = _OPT.size            # an option-less OPT record: 11 bytes


def plain_query(labels: list[bytes] | tuple[bytes, ...], qtype: int,
                qclass: int, rd: bool,
                edns: tuple[int, bool] | None) -> bytes:
    """:func:`read_question`'s inverse: the bytes of
    ``Message.make_query(...).to_wire()`` after the two id bytes for a
    qname with these *labels* (``Name.labels``, or labels held to the
    same limits), *edns* being ``(payload, do)`` for an option-less OPT.
    Assembled, not encoded: a question name is never compressed, so a
    plain query is a fixed header, the length-prefixed labels,
    qtype/qclass and, with EDNS, one fixed 11-byte OPT.  Whoever sends
    these bytes holds them to the full encoder under
    ``ReplayConfig(check=True)``."""
    tail = bytearray(_QUERY_HEADERS[bool(rd), edns is not None])
    for label in labels:
        tail.append(len(label))
        tail += label
    tail += _QUESTION_END.pack(0, qtype & 0xFFFF, qclass & 0xFFFF)
    if edns is not None:
        tail += _OPT.pack(0, RRType.OPT, edns[0] & 0xFFFF,
                          EDNS_DO if edns[1] else 0, 0)
    return bytes(tail)


_HEADER = struct.Struct("!6H")
# An answer record owned by the question's name: a pointer to offset 12,
# type, class, TTL, RDLENGTH.
_OWNED_RR = struct.Struct("!HHHIH")
_QNAME_POINTER = 0xC000 | HEADER_SIZE
_ADDRESS_SIZES = {RRType.A: 4, RRType.AAAA: 16}


def address_reply(msg_id: int, flags_word: int, question: bytes,
                  rrset: RRset, edns: tuple[int, bool] | None,
                  max_size: int) -> bytes | None:
    """The bytes of ``encode(msg_id, flags_word, <question>, [rrset], (),
    (), <option-less OPT from edns>, max_size, None)``, assembled, for
    the commonest reply: *question* is the query's question section as
    received (so no pointer in it) and *rrset* an A or AAAA RRset owned
    by its name.  The encoder writes that owner as a pointer to offset 12
    in every record — unless it is the root, which it writes as itself —
    and an address is its packed bytes.  None when *rrset* holds no
    addresses, the name is the root or the reply would pass *max_size*
    (> 0): the encoder's to write or truncate."""
    rdlength = _ADDRESS_SIZES.get(rrset.rtype)
    rdatas = rrset.rdatas
    if rdlength is None or not question[0] or (
            HEADER_SIZE + len(question) + (OPT_SIZE if edns else 0)
            + len(rdatas) * (_OWNED_RR.size + rdlength) > max_size):
        return None
    out = bytearray(_HEADER.pack(msg_id, flags_word, 1, len(rdatas), 0,
                                 edns is not None))
    out += question
    fixed = _OWNED_RR.pack(_QNAME_POINTER, rrset.rtype, rrset.rclass & 0xFFFF,
                           rrset.ttl & 0xFFFFFFFF, rdlength)
    for rdata in rdatas:
        out += fixed
        out += rdata.packed()
    if edns is not None:
        out += _OPT.pack(0, RRType.OPT, edns[0] & 0xFFFF,
                         EDNS_DO if edns[1] else 0, 0)
    return bytes(out)


# Header fields the decoder hands out as enum members, by value: a
# lookup, not an enum call per message.
_OPCODES = {int(opcode): opcode for opcode in Opcode}
_FLAG_MASK = 0x87F0             # the flags word minus opcode and rcode
_FLAGS = {bits: Flag(bits) for bits in range(0, 0x10000, 0x10)
          if not bits & ~_FLAG_MASK}
_TC = int(Flag.TC)


def encode(msg_id: int, flags_word: int, question: Question | None,
           answer, authority, additional, edns: Edns | None,
           max_size: int, notes: list | None) -> bytes:
    """The one encoder, under :meth:`Message.to_wire` and for a caller
    that holds a response's parts and no :class:`Message` (the recursive
    resolver's reply).  *flags_word* is the header's second word: flags,
    opcode and the rcode's low four bits.  *max_size* and *notes* as in
    ``to_wire``."""
    wire = _encode(msg_id, flags_word, question,
                   (answer, authority, additional), edns, notes)
    if max_size and len(wire) > max_size:
        wire = _encode(msg_id, flags_word | _TC, question, (), edns, None)
    return wire


def _encode(msg_id, flags_word, question, sections, edns, notes) -> bytes:
    writer = WireWriter(notes)
    counts = [0, 0, 0]
    for i, section in enumerate(sections):
        for rrset in section:
            counts[i] += len(rrset.rdatas)
    writer.header(msg_id, flags_word, 1 if question else 0, counts[0],
                  counts[1], counts[2] + (edns is not None))
    if question:
        writer.name(question.qname)
        writer.raw(_QTYPE_QCLASS.pack(question.qtype & 0xFFFF,
                                      question.qclass & 0xFFFF))
    for section in sections:
        for rrset in section:
            name, rtype = rrset.name, rrset.rtype
            rclass, ttl = rrset.rclass, rrset.ttl
            for rdata in rrset.rdatas:
                writer.name(name)
                start = writer.rr_fixed(rtype, rclass, ttl)
                rdata.write(writer)
                writer.patch_u16(start - 2, len(writer) - start)
    if edns is not None:
        # The OPT pseudo-record: root owner, payload as class, extended
        # rcode / version / DO as ttl, options as rdata.
        writer.u8(0)
        ttl = (edns.ext_rcode & 0xFF) << 24 | (edns.version & 0xFF) << 16
        start = writer.rr_fixed(RRType.OPT, edns.payload,
                                ttl | EDNS_DO if edns.do else ttl)
        writer.raw(edns.options)
        writer.patch_u16(start - 2, len(edns.options))
    return writer.getvalue()


@dataclass
class Message:
    """A DNS message; mutable while being assembled, then encoded."""

    msg_id: int = 0
    opcode: int = Opcode.QUERY
    rcode: int = Rcode.NOERROR
    flags: Flag = Flag(0)
    question: Question | None = None
    answer: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    additional: list[RRset] = field(default_factory=list)
    edns: Edns | None = None

    # -- convenience --------------------------------------------------

    @classmethod
    def make_query(cls, qname: Name | str, qtype: int,
                   msg_id: int = 0, rd: bool = False,
                   edns: Edns | None = None,
                   qclass: int = RRClass.IN) -> "Message":
        if isinstance(qname, str):
            qname = Name.from_text(qname)
        flags = Flag.RD if rd else Flag(0)
        return cls(msg_id=msg_id, flags=flags, edns=edns,
                   question=Question(qname, qtype, qclass))

    def make_response(self) -> "Message":
        """A skeleton response echoing id, question, opcode, RD, and EDNS."""
        response = Message(msg_id=self.msg_id, opcode=self.opcode,
                           question=self.question,
                           flags=Flag.QR | (self.flags & Flag.RD))
        if self.edns is not None:
            response.edns = Edns(do=self.edns.do)
        return response

    @property
    def is_response(self) -> bool:
        return bool(self.flags & Flag.QR)

    @property
    def dnssec_ok(self) -> bool:
        return self.edns is not None and self.edns.do

    def all_rrsets(self) -> list[RRset]:
        return self.answer + self.authority + self.additional

    def find_rrset(self, section: list[RRset], name: Name,
                   rtype: int) -> RRset | None:
        for rrset in section:
            if rrset.name == name and rrset.rtype == rtype:
                return rrset
        return None

    # -- wire format ---------------------------------------------------

    def to_wire(self, max_size: int = 0, notes: list | None = None) -> bytes:
        """Encode.  If *max_size* > 0 and the message exceeds it, the
        answer/authority/additional sections are dropped and TC set,
        mimicking UDP truncation behaviour of real servers.  *notes* is
        :class:`WireWriter`'s, filled by the untruncated encoding."""
        return encode(self.msg_id,
                      int(self.flags) | (self.opcode & 0xF) << 11
                      | self.rcode & 0xF,
                      self.question, self.answer, self.authority,
                      self.additional, self.edns, max_size, notes)

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        reader = WireReader(data)
        msg_id, flags_word, questions, *counts = reader.header()
        if questions > 1:
            raise WireError("multi-question messages unsupported")
        question = None
        if questions:
            qname = reader.name()
            question = Question(qname, reader.u16(), reader.u16())
        return cls._decoded(reader, msg_id, flags_word, question, counts)

    @classmethod
    def _decoded(cls, reader: WireReader, msg_id: int, flags_word: int,
                 question: Question | None, counts) -> "Message":
        """The message whose header is read, from the reader at the
        first record behind its *question* on."""
        opcode = (flags_word >> 11) & 0xF
        message = cls(msg_id=msg_id, opcode=_OPCODES.get(opcode, opcode),
                      rcode=flags_word & 0xF,
                      flags=_FLAGS[flags_word & _FLAG_MASK],
                      question=question)
        sections = (message.answer, message.authority, message.additional)
        for section, count in zip(sections, counts):
            if count:
                cls._decode_section(reader, section, count, message)
        return message

    @staticmethod
    def _decode_section(reader: WireReader, section: list[RRset],
                        count: int, message: "Message") -> None:
        # (owner, type, class) -> the section's RRset for it; an owner
        # read through a pointer is the very Name read before.
        rrsets: dict[tuple[Name, int, int], RRset] = {}
        for _ in range(count):
            name = reader.name()
            rtype, rclass, ttl, rdlength = reader.rr_fixed()
            if rtype == RRType.OPT:
                options = reader.raw(rdlength)
                message.edns = Edns(
                    payload=rclass,
                    ext_rcode=(ttl >> 24) & 0xFF,
                    version=(ttl >> 16) & 0xFF,
                    do=bool(ttl & EDNS_DO),
                    options=options)
                message.rcode = (((ttl >> 24) & 0xFF) << 4) | (message.rcode & 0xF)
                continue
            rdata = Rdata.build(rtype, reader, rdlength)
            key = (name, rtype, rclass)
            existing = rrsets.get(key)
            if existing is not None:
                existing.add(rdata)
            else:
                rrsets[key] = rrset = RRset(name, rtype, ttl, [rdata], rclass)
                section.append(rrset)

    def wire_size(self, max_size: int = 0) -> int:
        return len(self.to_wire(max_size))

    def to_text(self) -> str:
        lines = [f";; id {self.msg_id} opcode {Opcode(self.opcode).name} "
                 f"rcode {Rcode.to_text(self.rcode)} flags "
                 f"{'+'.join(f.name for f in Flag if f & self.flags) or '-'}"]
        if self.edns is not None:
            lines.append(f";; edns payload {self.edns.payload} "
                         f"do {int(self.edns.do)}")
        if self.question:
            lines.append(";; QUESTION")
            lines.append(self.question.to_text())
        for title, section in (("ANSWER", self.answer),
                               ("AUTHORITY", self.authority),
                               ("ADDITIONAL", self.additional)):
            if section:
                lines.append(f";; {title}")
                lines.extend(rrset.to_text() for rrset in section)
        return "\n".join(lines)


def decode_response(wire: bytes, question: Question) -> Message:
    """``Message.from_wire(wire)`` for a response already proved to hold
    one question, *question*'s bytes exactly as :func:`plain_query` sent
    them (uncompressed, in the case asked): what a resolver knows of a
    reply before it decodes one.  The reader starts behind the question
    with *question*'s name at offset 12 of its pointer table, so the
    message's question is *question* itself and an owner that points at
    the qname is a table hit.  ``ReplayConfig(check=True)`` holds the
    result to ``from_wire``."""
    reader = WireReader(wire)
    msg_id, flags_word, _, *counts = reader.header()
    reader.skip_name(question.qname)
    reader.pos += 4                             # qtype, qclass
    return Message._decoded(reader, msg_id, flags_word, question, counts)
