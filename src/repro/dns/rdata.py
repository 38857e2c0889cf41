"""RDATA types: typed record payloads with wire and presentation codecs.

Each concrete class registers itself by type code; unknown types fall back
to :class:`GenericRdata`, which round-trips opaque bytes using the RFC 3597
``\\# <len> <hex>`` presentation syntax.

Names inside RDATA are compressed on output only for the types RFC 1035
permits (NS, CNAME, PTR, MX, SOA); RRSIG signer names and other modern
types are never compressed (RFC 3597 §4).
"""

from __future__ import annotations

import base64
import binascii
import functools
import ipaddress
from dataclasses import dataclass
from typing import ClassVar

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.wire import WireError, WireReader, WireWriter

_REGISTRY: dict[int, type["Rdata"]] = {}


def register(cls: type["Rdata"]) -> type["Rdata"]:
    _REGISTRY[cls.rtype] = cls
    return cls


class Rdata:
    """Base class for record data."""

    rtype: ClassVar[int] = 0

    # -- wire --------------------------------------------------------

    def write(self, writer: WireWriter) -> None:
        raise NotImplementedError

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_wire(self) -> bytes:
        writer = WireWriter()
        self.write(writer)
        return writer.getvalue()

    def wire_size(self) -> int:
        """``len(self.to_wire())``; types that know it say so without
        encoding."""
        return len(self.to_wire())

    # -- presentation --------------------------------------------------

    def to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "Rdata":
        raise NotImplementedError

    # -- dispatch ------------------------------------------------------

    @staticmethod
    def class_for(rtype: int) -> type["Rdata"]:
        return _REGISTRY.get(rtype, GenericRdata)

    @staticmethod
    def build(rtype: int, reader: WireReader, rdlength: int) -> "Rdata":
        cls = _REGISTRY.get(rtype)
        end = reader.pos + rdlength
        if end > len(reader.data):
            raise WireError("RDLENGTH runs past end of message")
        if cls is None:
            return GenericRdata(rtype, reader.raw(rdlength))
        rdata = cls.read(reader, rdlength)
        if reader.pos != end:
            raise WireError(
                f"RDATA length mismatch for type {rtype}: "
                f"consumed {reader.pos - (end - rdlength)}, declared {rdlength}")
        return rdata

    @staticmethod
    def parse(rtype: int, tokens: list[str], origin: Name) -> "Rdata":
        cls = Rdata.class_for(rtype)
        if cls is GenericRdata:
            return GenericRdata.from_text_generic(rtype, tokens)
        return cls.from_text(tokens, origin)


def _parse_name(token: str, origin: Name) -> Name:
    """Resolve a possibly-relative name token against *origin*."""
    if token == "@":
        return origin
    if token.endswith(".") and not token.endswith("\\."):
        return Name.from_text(token)
    return Name.from_text(token).concatenate(origin)


@dataclass(frozen=True)
class GenericRdata(Rdata):
    """Opaque RDATA for types without a dedicated codec (RFC 3597)."""

    gtype: int
    data: bytes

    @property
    def rtype(self) -> int:  # type: ignore[override]
        return self.gtype

    def write(self, writer: WireWriter) -> None:
        writer.raw(self.data)

    def to_text(self) -> str:
        if not self.data:
            return "\\# 0"
        return f"\\# {len(self.data)} {self.data.hex()}"

    @classmethod
    def from_text_generic(cls, rtype: int, tokens: list[str]) -> "GenericRdata":
        if not tokens or tokens[0] != "\\#":
            raise ValueError("generic RDATA must use \\# syntax")
        length = int(tokens[1])
        data = binascii.unhexlify("".join(tokens[2:]))
        if len(data) != length:
            raise ValueError("generic RDATA length mismatch")
        return cls(rtype, data)


# Distinct address texts whose packed form is kept: a bound on memory;
# a zone's or a resolver's addresses repeat far more often than that.
ADDRESS_MEMO = 4096


@functools.lru_cache(maxsize=ADDRESS_MEMO)
def _packed(kind: type, address: str) -> bytes:
    """``kind(address).packed`` (raising what it raises), parsed once
    per distinct text instead of once per record written."""
    return kind(address).packed


@functools.lru_cache(maxsize=ADDRESS_MEMO)
def _v6_text(packed: bytes) -> str:
    """The canonical text of 16 address bytes, as ``from_text`` makes it
    (so whatever this Python's ``ipaddress`` prints), once per distinct
    address."""
    return str(ipaddress.IPv6Address(packed))


@register
@dataclass(frozen=True)
class A(Rdata):
    rtype: ClassVar[int] = RRType.A
    address: str

    def write(self, writer: WireWriter) -> None:
        writer.raw(_packed(ipaddress.IPv4Address, self.address))

    def packed(self) -> bytes:
        """The RDATA :meth:`write` writes: four address bytes."""
        return _packed(ipaddress.IPv4Address, self.address)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "A":
        return cls("%d.%d.%d.%d" % tuple(reader.raw(4)))

    def wire_size(self) -> int:
        return 4

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "A":
        return cls(str(ipaddress.IPv4Address(tokens[0])))


@register
@dataclass(frozen=True)
class AAAA(Rdata):
    rtype: ClassVar[int] = RRType.AAAA
    address: str

    def write(self, writer: WireWriter) -> None:
        writer.raw(_packed(ipaddress.IPv6Address, self.address))

    def packed(self) -> bytes:
        """The RDATA :meth:`write` writes: sixteen address bytes."""
        return _packed(ipaddress.IPv6Address, self.address)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "AAAA":
        return cls(_v6_text(reader.raw(16)))

    def wire_size(self) -> int:
        return 16

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "AAAA":
        return cls(str(ipaddress.IPv6Address(tokens[0])))


class _SingleName(Rdata):
    """Common shape for NS/CNAME/PTR."""

    compressible: ClassVar[bool] = True
    __slots__ = ("target",)

    def __init__(self, target: Name):
        self.target = target

    def write(self, writer: WireWriter) -> None:
        writer.name(self.target, compress=self.compressible)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int):
        return cls(reader.name())

    def wire_size(self) -> int:
        return self.target.wire_length()    # alone, nothing to point at

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name):
        return cls(_parse_name(tokens[0], origin))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.target == self.target

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.target))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.target.to_text()!r})"


@register
class NS(_SingleName):
    rtype: ClassVar[int] = RRType.NS


@register
class CNAME(_SingleName):
    rtype: ClassVar[int] = RRType.CNAME


@register
class PTR(_SingleName):
    rtype: ClassVar[int] = RRType.PTR


@register
@dataclass(frozen=True)
class MX(Rdata):
    rtype: ClassVar[int] = RRType.MX
    preference: int
    exchange: Name

    def write(self, writer: WireWriter) -> None:
        writer.u16(self.preference)
        writer.name(self.exchange, compress=True)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "MX":
        return cls(reader.u16(), reader.name())

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "MX":
        return cls(int(tokens[0]), _parse_name(tokens[1], origin))


@register
@dataclass(frozen=True)
class SOA(Rdata):
    rtype: ClassVar[int] = RRType.SOA
    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    def write(self, writer: WireWriter) -> None:
        writer.name(self.mname, compress=True)
        writer.name(self.rname, compress=True)
        for field in (self.serial, self.refresh, self.retry,
                      self.expire, self.minimum):
            writer.u32(field)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "SOA":
        mname = reader.name()
        rname = reader.name()
        return cls(mname, rname, reader.u32(), reader.u32(), reader.u32(),
                   reader.u32(), reader.u32())

    def to_text(self) -> str:
        return (f"{self.mname.to_text()} {self.rname.to_text()} "
                f"{self.serial} {self.refresh} {self.retry} "
                f"{self.expire} {self.minimum}")

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "SOA":
        return cls(_parse_name(tokens[0], origin),
                   _parse_name(tokens[1], origin),
                   int(tokens[2]), int(tokens[3]), int(tokens[4]),
                   int(tokens[5]), int(tokens[6]))


@register
@dataclass(frozen=True)
class TXT(Rdata):
    rtype: ClassVar[int] = RRType.TXT
    strings: tuple[bytes, ...]

    def write(self, writer: WireWriter) -> None:
        for chunk in self.strings:
            writer.u8(len(chunk))
            writer.raw(chunk)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "TXT":
        end = reader.pos + rdlength
        strings = []
        while reader.pos < end:
            strings.append(reader.raw(reader.u8()))
        return cls(tuple(strings))

    def to_text(self) -> str:
        parts = []
        for chunk in self.strings:
            escaped = "".join(
                chr(b) if 0x20 <= b <= 0x7E and b not in (0x22, 0x5C)
                else f"\\{b:03d}" for b in chunk)
            parts.append(f'"{escaped}"')
        return " ".join(parts)

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "TXT":
        strings = []
        for token in tokens:
            if token.startswith('"') and token.endswith('"') and len(token) >= 2:
                token = token[1:-1]
            strings.append(_unescape_txt(token))
        return cls(tuple(strings))


def _unescape_txt(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 3 < len(text) + 1 and text[i + 1:i + 4].isdigit():
            out.append(int(text[i + 1:i + 4]))
            i += 4
        elif text[i] == "\\" and i + 1 < len(text):
            out.append(ord(text[i + 1]))
            i += 2
        else:
            out.append(ord(text[i]))
            i += 1
    return bytes(out)


@register
@dataclass(frozen=True)
class SRV(Rdata):
    rtype: ClassVar[int] = RRType.SRV
    priority: int
    weight: int
    port: int
    target: Name

    def write(self, writer: WireWriter) -> None:
        writer.u16(self.priority)
        writer.u16(self.weight)
        writer.u16(self.port)
        writer.name(self.target, compress=False)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "SRV":
        return cls(reader.u16(), reader.u16(), reader.u16(), reader.name())

    def to_text(self) -> str:
        return (f"{self.priority} {self.weight} {self.port} "
                f"{self.target.to_text()}")

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "SRV":
        return cls(int(tokens[0]), int(tokens[1]), int(tokens[2]),
                   _parse_name(tokens[3], origin))


@register
@dataclass(frozen=True)
class DS(Rdata):
    rtype: ClassVar[int] = RRType.DS
    key_tag: int
    algorithm: int
    digest_type: int
    digest: bytes

    def write(self, writer: WireWriter) -> None:
        writer.u16(self.key_tag)
        writer.u8(self.algorithm)
        writer.u8(self.digest_type)
        writer.raw(self.digest)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "DS":
        return cls(reader.u16(), reader.u8(), reader.u8(),
                   reader.raw(rdlength - 4))

    def to_text(self) -> str:
        return (f"{self.key_tag} {self.algorithm} {self.digest_type} "
                f"{self.digest.hex().upper()}")

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "DS":
        return cls(int(tokens[0]), int(tokens[1]), int(tokens[2]),
                   binascii.unhexlify("".join(tokens[3:])))


@register
@dataclass(frozen=True)
class DNSKEY(Rdata):
    rtype: ClassVar[int] = RRType.DNSKEY
    flags: int
    protocol: int
    algorithm: int
    key: bytes

    def write(self, writer: WireWriter) -> None:
        writer.u16(self.flags)
        writer.u8(self.protocol)
        writer.u8(self.algorithm)
        writer.raw(self.key)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "DNSKEY":
        return cls(reader.u16(), reader.u8(), reader.u8(),
                   reader.raw(rdlength - 4))

    def to_text(self) -> str:
        encoded = base64.b64encode(self.key).decode()
        return f"{self.flags} {self.protocol} {self.algorithm} {encoded}"

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "DNSKEY":
        return cls(int(tokens[0]), int(tokens[1]), int(tokens[2]),
                   base64.b64decode("".join(tokens[3:])))

    def key_tag(self) -> int:
        """RFC 4034 appendix B key-tag computation."""
        wire = self.to_wire()
        total = 0
        for i, byte in enumerate(wire):
            total += byte << 8 if i % 2 == 0 else byte
        total += (total >> 16) & 0xFFFF
        return total & 0xFFFF


@register
@dataclass(frozen=True)
class RRSIG(Rdata):
    rtype: ClassVar[int] = RRType.RRSIG
    type_covered: int
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer: Name
    signature: bytes

    def write(self, writer: WireWriter) -> None:
        writer.u16(self.type_covered)
        writer.u8(self.algorithm)
        writer.u8(self.labels)
        writer.u32(self.original_ttl)
        writer.u32(self.expiration)
        writer.u32(self.inception)
        writer.u16(self.key_tag)
        writer.name(self.signer, compress=False)
        writer.raw(self.signature)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "RRSIG":
        start = reader.pos
        type_covered = reader.u16()
        algorithm = reader.u8()
        labels = reader.u8()
        original_ttl = reader.u32()
        expiration = reader.u32()
        inception = reader.u32()
        key_tag = reader.u16()
        signer = reader.name()
        signature = reader.raw(rdlength - (reader.pos - start))
        return cls(type_covered, algorithm, labels, original_ttl,
                   expiration, inception, key_tag, signer, signature)

    def to_text(self) -> str:
        encoded = base64.b64encode(self.signature).decode()
        return (f"{RRType.to_text(self.type_covered)} {self.algorithm} "
                f"{self.labels} {self.original_ttl} {self.expiration} "
                f"{self.inception} {self.key_tag} {self.signer.to_text()} "
                f"{encoded}")

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "RRSIG":
        return cls(RRType.from_text(tokens[0]), int(tokens[1]),
                   int(tokens[2]), int(tokens[3]), int(tokens[4]),
                   int(tokens[5]), int(tokens[6]),
                   _parse_name(tokens[7], origin),
                   base64.b64decode("".join(tokens[8:])))


@register
@dataclass(frozen=True)
class NSEC(Rdata):
    rtype: ClassVar[int] = RRType.NSEC
    next_name: Name
    types: tuple[int, ...]

    def write(self, writer: WireWriter) -> None:
        writer.name(self.next_name, compress=False)
        writer.raw(_encode_type_bitmap(self.types))

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "NSEC":
        start = reader.pos
        next_name = reader.name()
        bitmap = reader.raw(rdlength - (reader.pos - start))
        return cls(next_name, _decode_type_bitmap(bitmap))

    def to_text(self) -> str:
        types = " ".join(RRType.to_text(t) for t in self.types)
        return f"{self.next_name.to_text()} {types}".rstrip()

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "NSEC":
        return cls(_parse_name(tokens[0], origin),
                   tuple(sorted(RRType.from_text(t) for t in tokens[1:])))


def _encode_type_bitmap(types: tuple[int, ...]) -> bytes:
    """RFC 4034 §4.1.2 windowed type bitmap."""
    windows: dict[int, bytearray] = {}
    for rtype in sorted(types):
        window, low = divmod(rtype, 256)
        bitmap = windows.setdefault(window, bytearray(32))
        bitmap[low // 8] |= 0x80 >> (low % 8)
    out = bytearray()
    for window in sorted(windows):
        bitmap = windows[window]
        length = max(i + 1 for i, b in enumerate(bitmap) if b)
        out.append(window)
        out.append(length)
        out += bitmap[:length]
    return bytes(out)


def _decode_type_bitmap(data: bytes) -> tuple[int, ...]:
    types = []
    pos = 0
    while pos + 2 <= len(data):
        window = data[pos]
        length = data[pos + 1]
        chunk = data[pos + 2:pos + 2 + length]
        for i, byte in enumerate(chunk):
            for bit in range(8):
                if byte & (0x80 >> bit):
                    types.append(window * 256 + i * 8 + bit)
        pos += 2 + length
    return tuple(types)


@register
@dataclass(frozen=True)
class HINFO(Rdata):
    rtype: ClassVar[int] = RRType.HINFO
    cpu: bytes
    os: bytes

    def write(self, writer: WireWriter) -> None:
        for chunk in (self.cpu, self.os):
            writer.u8(len(chunk))
            writer.raw(chunk)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "HINFO":
        cpu = reader.raw(reader.u8())
        os = reader.raw(reader.u8())
        return cls(cpu, os)

    def to_text(self) -> str:
        return (f'"{self.cpu.decode(errors="replace")}" '
                f'"{self.os.decode(errors="replace")}"')

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "HINFO":
        cleaned = [t[1:-1] if t.startswith('"') and t.endswith('"')
                   else t for t in tokens]
        return cls(cleaned[0].encode(), cleaned[1].encode())


@register
@dataclass(frozen=True)
class NAPTR(Rdata):
    rtype: ClassVar[int] = RRType.NAPTR
    order: int
    preference: int
    flags_field: bytes
    service: bytes
    regexp: bytes
    replacement: Name

    def write(self, writer: WireWriter) -> None:
        writer.u16(self.order)
        writer.u16(self.preference)
        for chunk in (self.flags_field, self.service, self.regexp):
            writer.u8(len(chunk))
            writer.raw(chunk)
        writer.name(self.replacement, compress=False)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "NAPTR":
        order = reader.u16()
        preference = reader.u16()
        flags_field = reader.raw(reader.u8())
        service = reader.raw(reader.u8())
        regexp = reader.raw(reader.u8())
        return cls(order, preference, flags_field, service, regexp,
                   reader.name())

    def to_text(self) -> str:
        return (f"{self.order} {self.preference} "
                f'"{self.flags_field.decode(errors="replace")}" '
                f'"{self.service.decode(errors="replace")}" '
                f'"{self.regexp.decode(errors="replace")}" '
                f"{self.replacement.to_text()}")

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "NAPTR":
        cleaned = [t[1:-1] if t.startswith('"') and t.endswith('"')
                   else t for t in tokens]
        return cls(int(cleaned[0]), int(cleaned[1]),
                   cleaned[2].encode(), cleaned[3].encode(),
                   cleaned[4].encode(), _parse_name(cleaned[5], origin))


@register
@dataclass(frozen=True)
class TLSA(Rdata):
    rtype: ClassVar[int] = RRType.TLSA
    usage: int
    selector: int
    matching_type: int
    cert_data: bytes

    def write(self, writer: WireWriter) -> None:
        writer.u8(self.usage)
        writer.u8(self.selector)
        writer.u8(self.matching_type)
        writer.raw(self.cert_data)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "TLSA":
        return cls(reader.u8(), reader.u8(), reader.u8(),
                   reader.raw(rdlength - 3))

    def to_text(self) -> str:
        return (f"{self.usage} {self.selector} {self.matching_type} "
                f"{self.cert_data.hex().upper()}")

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "TLSA":
        return cls(int(tokens[0]), int(tokens[1]), int(tokens[2]),
                   binascii.unhexlify("".join(tokens[3:])))


@register
@dataclass(frozen=True)
class CAA(Rdata):
    rtype: ClassVar[int] = RRType.CAA
    flags_field: int
    tag: bytes
    value: bytes

    def write(self, writer: WireWriter) -> None:
        writer.u8(self.flags_field)
        writer.u8(len(self.tag))
        writer.raw(self.tag)
        writer.raw(self.value)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "CAA":
        start = reader.pos
        flags_field = reader.u8()
        tag = reader.raw(reader.u8())
        value = reader.raw(rdlength - (reader.pos - start))
        return cls(flags_field, tag, value)

    def to_text(self) -> str:
        return (f"{self.flags_field} {self.tag.decode(errors='replace')} "
                f'"{self.value.decode(errors="replace")}"')

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "CAA":
        value = tokens[2]
        if value.startswith('"') and value.endswith('"'):
            value = value[1:-1]
        return cls(int(tokens[0]), tokens[1].encode(), value.encode())


@register
@dataclass(frozen=True)
class OPT(Rdata):
    """EDNS0 pseudo-record payload: raw options blob (usually empty)."""

    rtype: ClassVar[int] = RRType.OPT
    options: bytes = b""

    def write(self, writer: WireWriter) -> None:
        writer.raw(self.options)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "OPT":
        return cls(reader.raw(rdlength))

    def to_text(self) -> str:
        return self.options.hex()
