"""DNS protocol constants: types, classes, opcodes, rcodes, header flags.

Values follow RFC 1035 and the IANA DNS parameter registry.  Only the
subset needed by LDplayer-style experiments is enumerated; unknown values
survive round trips as plain integers (see :mod:`repro.dns.rdata`).
"""

from __future__ import annotations

import enum


class RRType(enum.IntEnum):
    """Resource record types."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    HINFO = 13
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    NAPTR = 35
    DS = 43
    RRSIG = 46
    NSEC = 47
    DNSKEY = 48
    NSEC3 = 50
    OPT = 41
    TLSA = 52
    SPF = 99
    ANY = 255
    CAA = 257

    @classmethod
    def from_text(cls, text: str) -> int:
        """Parse a type mnemonic (``"A"``) or ``TYPE123`` form."""
        text = text.strip().upper()
        if text.startswith("TYPE") and text[4:].isdigit():
            return int(text[4:])
        try:
            return cls[text]
        except KeyError:
            raise ValueError(f"unknown RR type {text!r}") from None

    @classmethod
    def to_text(cls, value: int) -> str:
        """Render a type code as a mnemonic, or ``TYPE123`` if unknown."""
        try:
            return cls(value).name
        except ValueError:
            return f"TYPE{value}"


class RRClass(enum.IntEnum):
    """Resource record classes."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255

    @classmethod
    def from_text(cls, text: str) -> int:
        text = text.strip().upper()
        if text.startswith("CLASS") and text[5:].isdigit():
            return int(text[5:])
        try:
            return cls[text]
        except KeyError:
            raise ValueError(f"unknown RR class {text!r}") from None

    @classmethod
    def to_text(cls, value: int) -> str:
        try:
            return cls(value).name
        except ValueError:
            return f"CLASS{value}"


class Opcode(enum.IntEnum):
    """DNS header opcodes."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    """DNS response codes."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10
    BADVERS = 16

    @classmethod
    def to_text(cls, value: int) -> str:
        try:
            return cls(value).name
        except ValueError:
            return f"RCODE{value}"


class Flag(enum.IntFlag):
    """Header flag bits (the 16-bit flags word, excluding opcode/rcode)."""

    QR = 0x8000
    AA = 0x0400
    TC = 0x0200
    RD = 0x0100
    RA = 0x0080
    AD = 0x0020
    CD = 0x0010


# EDNS0 flag bits live in the OPT TTL field.
EDNS_DO = 0x8000

# EDNS option codes (IANA DNS EDNS0 option registry).
EDNS_COOKIE = 10

# Wire-format limits (RFC 1035 §2.3.4).
MAX_NAME_WIRE = 255
MAX_LABEL = 63
MAX_UDP_PAYLOAD = 512
DEFAULT_EDNS_PAYLOAD = 4096

# Well-known ports (DNS over TLS is RFC 7858's; the QUIC port is this
# model's own).
DNS_PORT = 53
TLS_PORT = 853
QUIC_PORT = 8853
