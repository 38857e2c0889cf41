"""Server-side overload control: RRL, DNS Cookies, admission control.

Real authoritative servers do not melt quietly under a water-torture
attack — operators turn on response rate limiting (BIND/NSD RRL), DNS
Cookies (RFC 7873), and bounded request queues, each of which trades a
little legitimate-client collateral for survival.  This module is the
shared, transport-independent implementation of those three defenses,
consumed by :class:`~repro.server.responder.DnsResponder` so both the
simulated server and the live loopback backend get them for free:

* **Response rate limiting** — token buckets keyed by (client address
  prefix, response tuple).  NXDOMAIN responses aggregate per zone, so a
  random-label flood against one zone shares a single bucket per source
  prefix while legitimate unique answers each get their own.  Limited
  responses are dropped, except every ``slip``-th one, which goes out
  as a minimal truncated (TC=1) response — a spoofed-victim resolver
  retries over TCP (exempt from RRL) and still gets its answer.
* **DNS Cookies** — the server cookie is a keyed hash of the client
  cookie and source address.  Clients that echo a valid server cookie
  have proven they can receive our packets (not spoofed) and are exempt
  from RRL; cookie-less clients can be held to a stricter rate.
* **Admission control** — a bounded queue in front of the worker pool
  with drop-oldest shedding at the hard limit and an optional soft
  limit above which queries get an immediate minimal REFUSED response
  instead of service (cheap to send, tells the client to go away now
  rather than time out later).

Everything is off by default — a responder without an
:class:`OverloadConfig` builds none of the three and serves the same
bytes as one with an empty config (tests/server/test_overload.py::
test_responder_defenses_off_byte_identical) — and deterministic:
buckets advance on the backend's clock (the sim clock in the
simulator), and the cookie hash is keyed by a constant, so a seeded
run replays exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.dns.constants import Flag, Rcode

# Header flag bits a minimal response echoes from the query: opcode
# (bits 11-14) and RD.
_ECHO_MASK = 0x7900

# FIFO bound on the RRL bucket table: a flood of distinct sources
# recycles buckets instead of growing memory.
RRL_TABLE_SIZE = 10_000
# Keys the server-cookie hash; fixed, so a seeded run replays.
COOKIE_SECRET = 0x1DB7A7E12


@dataclass(frozen=True)
class RrlConfig:
    """Response rate limiting (BIND/NSD-style).

    *rate* is responses/second per (prefix, response-tuple) bucket;
    *burst* is the bucket depth (defaults to ``max(1, rate)``, i.e. one
    second of credit).  Every *slip*-th limited response is sent as a
    minimal TC=1 response instead of dropped (0 = never slip, drop
    all).  Sources aggregate on a /*prefix_len* IPv4 prefix, and the
    bucket table is FIFO-bounded at :data:`RRL_TABLE_SIZE` entries.  With
    *exempt_verified* (default), clients that presented a valid DNS
    Cookie bypass RRL entirely — they have proven their address."""

    rate: float = 10.0
    burst: float | None = None
    slip: int = 2
    prefix_len: int = 24
    exempt_verified: bool = True

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rrl: rate must be > 0, got {self.rate}")
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"rrl: burst must be >= 1, got {self.burst}")
        if self.slip < 0:
            raise ValueError(f"rrl: slip must be >= 0, got {self.slip}")
        if not 0 < self.prefix_len <= 32:
            raise ValueError(
                f"rrl: prefix_len must be in 1..32, got {self.prefix_len}")

    def effective_burst(self) -> float:
        return self.burst if self.burst is not None else max(1.0, self.rate)


@dataclass(frozen=True)
class CookieConfig:
    """DNS Cookies (RFC 7873).

    Cookie-less clients have their RRL refill rate scaled by
    *nocookie_scale* (< 1 = stricter)."""

    nocookie_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.nocookie_scale <= 0:
            raise ValueError(
                f"cookies: nocookie_scale must be > 0, got "
                f"{self.nocookie_scale}")


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounded admission queue in front of query processing.

    At *limit* queued queries the oldest is shed (drop-oldest) to admit
    the newcomer.  With *soft_limit* set (< limit), queries arriving
    while the queue is at or above it get an immediate minimal REFUSED
    response instead of being queued."""

    limit: int = 512
    soft_limit: int | None = None

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(
                f"admission: limit must be >= 1, got {self.limit}")
        if self.soft_limit is not None \
                and not 0 < self.soft_limit <= self.limit:
            raise ValueError(
                f"admission: soft_limit must be in 1..limit, got "
                f"{self.soft_limit}")


@dataclass(frozen=True)
class OverloadConfig:
    """The defense posture: any subset of the three mechanisms, each
    checked when it is built."""

    rrl: RrlConfig | None = None
    cookies: CookieConfig | None = None
    admission: AdmissionConfig | None = None


# -- response classification -------------------------------------------

def _name_text(name) -> str:
    return name.to_text() if hasattr(name, "to_text") else str(name)


def response_key(rcode: int, qname, qtype: int, zone) -> tuple:
    """The RRL aggregation key for one response, BIND-style:

    * NXDOMAIN aggregates on the answering zone — a random-label flood
      shares one bucket per source prefix regardless of qname;
    * NOERROR keys on (qname, qtype) — distinct legitimate answers get
      distinct buckets;
    * other rcodes (REFUSED, SERVFAIL, ...) aggregate per rcode."""
    if rcode == Rcode.NXDOMAIN and zone is not None:
        return ("nx", _name_text(zone.origin))
    if rcode == Rcode.NOERROR:
        return ("ok", _name_text(qname), int(qtype))
    return ("err", int(rcode))


# -- token buckets ------------------------------------------------------

class TokenBucket:
    """One (prefix, response-tuple) bucket: continuous refill, spend 1
    per response, never negative."""

    __slots__ = ("tokens", "updated", "limited")

    def __init__(self, burst: float, now: float):
        self.tokens = burst
        self.updated = now
        self.limited = 0        # responses limited so far (drives slip)


class ResponseRateLimiter:
    """The RRL decision engine shared by both backends.

    ``decide()`` returns one of ``"send"`` (under the rate, or exempt),
    ``"slip"`` (limited, but send a minimal TC=1 response so real
    clients can retry over TCP), or ``"drop"``.  The bucket table is a
    FIFO-bounded insertion-ordered dict, so eviction is deterministic.
    """

    def __init__(self, config: RrlConfig,
                 nocookie_scale: float = 1.0):
        self.config = config
        self.nocookie_scale = nocookie_scale
        self._buckets: dict[tuple, TokenBucket] = {}

    def __len__(self) -> int:
        return len(self._buckets)

    def _prefix(self, src: str):
        """The aggregation prefix for a source address: the masked
        integer for dotted-quad IPv4, the raw string otherwise."""
        parts = src.split(".")
        if len(parts) == 4:
            try:
                addr = ((int(parts[0]) << 24) | (int(parts[1]) << 16)
                        | (int(parts[2]) << 8) | int(parts[3]))
            except ValueError:
                return src
            shift = 32 - self.config.prefix_len
            return (addr >> shift) << shift
        return src

    def decide(self, now: float, src: str, key: tuple,
               verified: bool = False) -> str:
        config = self.config
        if verified and config.exempt_verified:
            return "send"
        bucket_key = (self._prefix(src), key)
        buckets = self._buckets
        bucket = buckets.get(bucket_key)
        burst = config.effective_burst()
        if bucket is None:
            if len(buckets) >= RRL_TABLE_SIZE:
                del buckets[next(iter(buckets))]
            bucket = TokenBucket(burst, now)
            buckets[bucket_key] = bucket
        rate = config.rate * (1.0 if verified else self.nocookie_scale)
        bucket.tokens = min(
            burst, bucket.tokens + (now - bucket.updated) * rate)
        bucket.updated = now
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return "send"
        bucket.limited += 1
        if config.slip and bucket.limited % config.slip == 0:
            return "slip"
        return "drop"


# -- DNS Cookies --------------------------------------------------------

class ServerCookies:
    """Server-side RFC 7873 cookie generation and validation.

    The server cookie is ``blake2b(client_cookie + src)`` keyed by
    :data:`COOKIE_SECRET`, truncated to 8 bytes — stateless (any server
    instance with the secret validates it), deterministic (no
    timestamp, so cookie-bearing responses stay answer-cacheable), and
    unforgeable without receiving a prior response at *src*."""

    def __init__(self):
        self._key = COOKIE_SECRET.to_bytes(16, "big", signed=False)

    def server_cookie(self, client_cookie: bytes, src: str) -> bytes:
        return hashlib.blake2b(client_cookie + src.encode(),
                               key=self._key, digest_size=8).digest()

    def process(self, query, response, src: str) -> bool:
        """Validate the query's COOKIE option and attach the full
        client+server cookie echo to *response*.  Returns True when the
        client presented a valid server cookie for *src*."""
        from repro.dns.constants import EDNS_COOKIE
        from repro.dns.message import get_edns_option, set_edns_option
        if query.edns is None:
            return False
        data = get_edns_option(query.edns.options, EDNS_COOKIE)
        if data is None or not 8 <= len(data) <= 40:
            return False
        client_cookie = data[:8]
        expected = self.server_cookie(client_cookie, src)
        verified = len(data) > 8 and data[8:] == expected
        if response is not None and response.edns is not None:
            response.edns.options = set_edns_option(
                response.edns.options, EDNS_COOKIE,
                client_cookie + expected)
        return verified


def client_cookie(src: str) -> bytes:
    """The deterministic per-source client cookie our queriers use
    (RFC 7873 recommends a hash of client+server identity; the replay
    clients key on the emulated source address)."""
    return hashlib.blake2b(src.encode(), key=b"ldplayer-client",
                           digest_size=8).digest()


# -- minimal responses --------------------------------------------------

def minimal_response(wire: bytes, rcode: int,
                     tc: bool = False) -> bytes | None:
    """A header-plus-question response built straight from the query
    bytes — no parse, no lookup, no encode.  This is what RRL slip and
    soft-limit REFUSED send: cheap enough to emit while overloaded, and
    enough for the client to match (id + question echoed) and react
    (TC=1 drives TCP retry; REFUSED terminates the wait).

    Returns None for runts, responses, or malformed question names."""
    if len(wire) < 12:
        return None
    flags_in = int.from_bytes(wire[2:4], "big")
    if flags_in & int(Flag.QR):
        return None
    qdcount = int.from_bytes(wire[4:6], "big")
    question = b""
    if qdcount:
        pos = 12
        while True:
            if pos >= len(wire):
                return None
            length = wire[pos]
            if length == 0:
                pos += 1
                break
            if length & 0xC0:
                # Compression in a query's question never happens; a
                # pointer here means garbage.
                return None
            pos += 1 + length
        if pos + 4 > len(wire):
            return None
        question = wire[12:pos + 4]
    flags = (int(Flag.QR) | (flags_in & _ECHO_MASK)
             | (int(Flag.TC) if tc else 0) | (rcode & 0xF))
    return (wire[0:2] + flags.to_bytes(2, "big")
            + (b"\x00\x01" if question else b"\x00\x00")
            + b"\x00\x00\x00\x00\x00\x00" + question)
