"""Recursive (caching, iterative) DNS resolver.

The resolver walks the hierarchy exactly the way §2.3/§2.4 describe:
with a cold cache an incoming query for ``www.google.com A`` produces
iterative queries to a root server, a TLD server, and the SLD's
nameservers, each query carrying the *same* question but a different
destination address — the property the meta-DNS-server's split-horizon
views depend on.

The resolver serves stub clients over UDP on port 53, performs its own
upstream queries over UDP from ephemeral ports (so the recursive proxy's
dport-53 capture rule sees them), caches positive and negative answers
in a :class:`~repro.server.cache.DnsCache` (bounded LRU, serve-stale,
refresh-ahead prefetch — docs/RECURSIVE.md), chases CNAMEs, fetches
missing glue across every NS candidate, retries on timeout, and returns
SERVFAIL when it runs out of options.

No step of the round trip runs the full codec.  A plain stub query's
question is read off the wire, upstream queries are assembled from
bytes, an upstream response is decoded from behind the question it was
proved to echo, and the stub's reply is assembled when it is one address
RRset owned by the qname and one :func:`repro.dns.message.encode` call
otherwise; ``ReplayConfig(check=True)`` holds all four to the full codec
(docs/RECURSIVE.md, "Wire path").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.dns.constants import (DEFAULT_EDNS_PAYLOAD, DNS_PORT, Flag,
                                 Rcode, RRClass, RRType)
from repro.dns.message import (HEADER_SIZE, OPT_SIZE, Edns, Message,
                               Question, address_reply, decode_response,
                               encode, plain_query, read_question)
from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.dns.wire import WireError
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.host import Host
from repro.obs.report import counter_state, zero_counters
from repro.server.cache import CacheConfig, DnsCache

MAX_CNAME_DEPTH = 8
MAX_REFERRALS = 24
MAX_GLUE_DEPTH = 4
QUERY_TIMEOUT = 0.8
MAX_TRIES = 6

ResolveCallback = Callable[[Message], None]

# A stub reply's flags word before opcode and rcode, by the query's RD;
# its OPT, by the query's DO (shared, never written to), as the encoder
# and as address_reply take it.
_REPLY_FLAGS = {rd: int(Flag.QR | Flag.RA | (Flag.RD if rd else 0))
                for rd in (False, True)}
_REPLY_EDNS = {do: Edns(do=do) for do in (False, True)}
_REPLY_OPT = {do: (edns.payload, do) for do, edns in _REPLY_EDNS.items()}
_QR = Flag.QR


@dataclass
class RootHint:
    name: Name
    addr: str


@dataclass
class _Pending:
    """One in-flight upstream query."""

    msg_id: int
    wire: bytes             # the query as sent
    question: bytes         # its question section, for _answers
    asked: Question         # and as decode_response takes it
    server_addr: str
    on_response: Callable[[Message], None]
    on_timeout: Callable[[], None]
    timer: object = None


@dataclass
class _Resolution:
    """State for one client question being resolved."""

    qname: Name
    qtype: int
    callback: ResolveCallback
    cname_depth: int = 0
    referrals: int = 0
    tries: int = 0
    glue_depth: int = 0
    # Refresh-ahead resolutions must not answer from the very cache
    # entry they are refreshing: skip the cache on the first step.
    fresh_only: bool = False
    answer_sections: list[RRset] = field(default_factory=list)
    servers: list[str] = field(default_factory=list)
    server_index: int = 0


def _answers(wire: bytes, pending: _Pending) -> bool:
    """*wire* is a response under *pending*'s id whose one question is,
    byte for byte (so in the case sent), the one asked — read off the
    header and one slice, before any decoding."""
    return (len(wire) >= HEADER_SIZE
            and wire[0] << 8 | wire[1] == pending.msg_id
            and wire[2] & 0x80 and wire[4:6] == b"\x00\x01"
            and wire.startswith(pending.question, HEADER_SIZE))


class RecursiveResolver:
    """A caching recursive resolver bound to a host."""

    # Declared counters (repro.obs.report): attribute -> report name;
    # ``stats`` is the same set as a dict.
    COUNTERS = {
        "client_queries": "server.recursive_queries",
        "upstream_queries": "server.recursive_upstream_queries",
        "servfail": "server.recursive_servfail",
        "cache_answers": "server.recursive_cache_hits",
        "tcp_fallbacks": "server.recursive_tcp_fallbacks",
        "coalesced": "server.recursive_coalesced",
        "stale_answers": "server.recursive_stale_answers",
        "prefetches": "server.recursive_prefetches",
    }
    COUNTING_PARTS = ("cache",)          # owned; counts for itself

    def __init__(self, host: Host, root_hints: list[RootHint],
                 cache: DnsCache | CacheConfig | None = None):
        self.host = host
        self.root_hints = list(root_hints)
        if isinstance(cache, DnsCache):
            self.cache = cache
        else:
            self.cache = DnsCache(cache)
        self.cache.on_refresh = self._schedule_refresh
        self.edns_payload = DEFAULT_EDNS_PAYLOAD    # advertised upstream
        self.dnssec_ok = False                      # DO on upstream queries
        # ReplayConfig(check=True): InvariantChecker holds what is read
        # and assembled at wire level here to the full codec.
        self.check = None
        zero_counters(self)
        self._msg_ids = itertools.count(1)
        # Upstream message-id space; tests shrink it to force wrap.
        self._id_space = 0x10000
        self._pending: dict[int, _Pending] = {}
        # In-flight coalescing: identical concurrent questions share one
        # resolution (real resolvers deduplicate; without this a burst
        # of the same stub query would multiply upstream load).
        self._inflight: dict[tuple[Name, int], list[ResolveCallback]] = {}
        self._client_sock = host.udp_socket(DNS_PORT)
        self._client_sock.on_datagram = self._on_client_query
        self._upstream_sock = host.udp_socket()
        self._upstream_sock.on_datagram = self._on_upstream_response
        host.apps.append(self)

    @property
    def stats(self) -> dict[str, int]:
        """The declared counters as a dict: a read-only view, built
        fresh on each access — writing to it changes nothing; the
        counters are the attributes (``resolver.client_queries``)."""
        return counter_state(self)

    # -- client side ------------------------------------------------------

    def _on_client_query(self, payload: bytes, src: str,
                         sport: int) -> None:
        plain = read_question(payload)
        if plain is not None:
            rd, qname, qtype, qclass, end, edns = plain
            msg_id, opcode = payload[0] << 8 | payload[1], 0
            # The question section as received, for an assembled reply.
            asked = payload[HEADER_SIZE:end]
            if self.check is not None:
                self.check.on_resolver_question(
                    self, payload, (msg_id, rd, qname, qtype, qclass, edns))
        else:
            # Whatever read_question declines is the full decoder's to
            # judge (the server's rule, docs/RECURSIVE.md).
            try:
                query = Message.from_wire(payload)
            except WireError:
                return
            if query.question is None or query.is_response:
                return
            msg_id, opcode = query.msg_id, query.opcode
            rd = bool(query.flags & Flag.RD)
            qname, qtype = query.question.qname, query.question.qtype
            qclass = query.question.qclass
            edns = None if query.edns is None else (query.edns.payload,
                                                    query.edns.do)
            asked = None
        self.client_queries += 1

        # RFC 6891 §6.2.5: a stub that advertised no EDNS gets at most
        # 512 bytes (oversized answers truncate with TC=1); with EDNS
        # we honour its payload up to our own limit.
        if edns is not None:
            limit = min(self.edns_payload, max(512, edns[0]))
            opt, opt_fields = _REPLY_EDNS[edns[1]], _REPLY_OPT[edns[1]]
        else:
            limit, opt, opt_fields = 512, None, None
        flags_word = _REPLY_FLAGS[rd] | (opcode & 0xF) << 11

        def reply(result: Message) -> None:
            # The query's id, question, opcode and RD echoed, RA set,
            # the result's rcode and sections: one address RRset owned
            # by the qname (in the encoder's sense: the same lower-cased
            # labels) assembled behind the stub's own question bytes,
            # anything else encoded in one step.
            word, answer = flags_word | result.rcode & 0xF, result.answer
            wire = None
            if (asked is not None and len(answer) == 1
                    and not result.authority
                    and answer[0].name.folded == qname.folded):
                wire = address_reply(msg_id, word, asked, answer[0],
                                     opt_fields, limit)
            if wire is None:
                wire = encode(msg_id, word, Question(qname, qtype, qclass),
                              answer, result.authority, (), opt, limit,
                              None)
            if self.check is not None:
                self.check.on_resolver_reply(self, payload, result, wire)
            self._client_sock.sendto(wire, src, sport)

        self.resolve(qname, qtype, reply)

    # -- public API -----------------------------------------------------------

    def resolve(self, qname: Name, qtype: int,
                callback: ResolveCallback,
                _glue_depth: int = 0) -> None:
        """Resolve and call *callback* with a result Message whose
        answer/authority sections and rcode describe the outcome.

        *_glue_depth* is internal: nested glue resolutions inherit their
        parent's depth so self-referential glueless delegations
        terminate instead of recursing forever."""
        key = (qname, int(qtype))
        waiters = self._inflight.get(key)
        if waiters is not None:
            self.coalesced += 1
            waiters.append(callback)
            return
        self._inflight[key] = [callback]
        state = _Resolution(qname=qname, qtype=int(qtype),
                            callback=self._finisher(key),
                            glue_depth=_glue_depth)
        self._step(state)

    def _finisher(self, key: tuple[Name, int]) -> ResolveCallback:
        def finish(result: Message) -> None:
            callbacks = self._inflight.pop(key, [])
            self.cache.refresh_done(key[0], key[1])
            for waiting in callbacks:
                waiting(result)
        return finish

    # -- refresh-ahead prefetch ---------------------------------------------

    def _schedule_refresh(self, name: Name, rtype: int) -> None:
        """DnsCache hook: a hot entry is close to expiry.  Refresh on
        the resolver's own event, never synchronously out of the cache
        hit that noticed it."""
        self.host.scheduler.after(0.0, self._start_refresh, name, rtype)

    def _start_refresh(self, name: Name, rtype: int) -> None:
        key = (name, int(rtype))
        if key in self._inflight:
            return  # a client resolution will refresh the entry anyway
        self.prefetches += 1
        self._inflight[key] = []
        state = _Resolution(qname=name, qtype=int(rtype),
                            callback=self._finisher(key),
                            fresh_only=True)
        self._step(state)

    # -- resolution engine ---------------------------------------------------------

    def _finish(self, state: _Resolution, rcode: int,
                answers: list[RRset] | None = None,
                authority: list[RRset] | None = None) -> None:
        state.callback(Message(
            rcode=rcode, flags=_QR,
            answer=state.answer_sections + list(answers or []),
            authority=list(authority or [])))

    def _servfail(self, state: _Resolution) -> None:
        # RFC 8767 serve-stale: before giving up, an expired-but-kept
        # answer beats no answer at all.
        if self.cache.config.serve_stale:
            stale = self.cache.get_stale(
                state.qname, state.qtype, self.host.scheduler.now)
            if stale is not None:
                self.stale_answers += 1
                self._finish(state, Rcode.NOERROR, answers=[stale])
                return
        self.servfail += 1
        self._finish(state, Rcode.SERVFAIL)

    def _step(self, state: _Resolution) -> None:
        """Answer from cache if possible, otherwise query the best-known
        zone cut's nameservers."""
        now = self.host.scheduler.now

        if state.fresh_only:
            state.fresh_only = False
        else:
            negative = self.cache.get_negative(state.qname, state.qtype,
                                               now)
            if negative is not None:
                self.cache_answers += 1
                rcode = (Rcode.NXDOMAIN if negative.nxdomain
                         else Rcode.NOERROR)
                soa = [negative.soa] if negative.soa is not None else []
                self._finish(state, rcode, authority=soa)
                return

            cached = self.cache.get_rrset(state.qname, state.qtype, now)
            if cached is not None:
                self.cache_answers += 1
                self._finish(state, Rcode.NOERROR, answers=[cached])
                return

            cname = self.cache.get_rrset(state.qname, RRType.CNAME, now)
            if cname is not None and state.qtype not in (RRType.CNAME,
                                                         RRType.ANY):
                self._follow_cname(state, cname)
                return

        state.servers = self._candidate_servers(state.qname, now)
        state.server_index = 0
        if not state.servers:
            self._servfail(state)
            return
        self._query_next_server(state)

    def _candidate_servers(self, qname: Name, now: float) -> list[str]:
        """Addresses of the deepest known zone cut's nameservers."""
        best = self.cache.best_nameservers(qname, now)
        addrs: list[str] = []
        if best is not None:
            _, ns_rrset = best
            for rdata in ns_rrset.rdatas:
                addrs.extend(self.cache.addresses_for(rdata.target, now))
        if not addrs:
            addrs = [hint.addr for hint in self.root_hints]
        return addrs

    def _query_next_server(self, state: _Resolution) -> None:
        if state.tries >= MAX_TRIES or not state.servers:
            self._servfail(state)
            return
        if state.server_index >= len(state.servers):
            state.server_index = 0  # wrap: re-try the server list
        server_addr = state.servers[state.server_index]
        state.server_index += 1
        state.tries += 1
        self._send_upstream(
            state.qname, state.qtype, server_addr,
            on_response=lambda msg: self._handle_response(state, msg),
            on_timeout=lambda: self._query_next_server(state))

    def _next_msg_id(self) -> int | None:
        """A message id not pending on the upstream socket.  After the
        id space wraps (65536 upstream queries) the naive next-id would
        overwrite a still-pending exchange, stranding its resolution
        and letting the old timer prematurely time out the new one —
        the same bug the replay querier fixed.  None = every id busy."""
        for _ in range(self._id_space):
            msg_id = next(self._msg_ids) % self._id_space
            if msg_id not in self._pending:
                return msg_id
        return None

    def _send_upstream(self, qname: Name, qtype: int, server_addr: str,
                       on_response: Callable[[Message], None],
                       on_timeout: Callable[[], None]) -> None:
        msg_id = self._next_msg_id()
        if msg_id is None:
            # Id space exhausted: fail this attempt like a timeout so
            # the resolution retries or SERVFAILs cleanly.
            self.host.scheduler.after(0.0, on_timeout)
            return
        # RD clear, our payload in an option-less OPT: assembled, not
        # encoded (docs/RECURSIVE.md, "Wire path").
        wire = msg_id.to_bytes(2, "big") + plain_query(
            qname, qtype, RRClass.IN, False,
            (self.edns_payload, self.dnssec_ok))
        pending = _Pending(msg_id=msg_id, wire=wire,
                           question=wire[HEADER_SIZE:-OPT_SIZE],
                           asked=Question(qname, qtype),
                           server_addr=server_addr,
                           on_response=on_response, on_timeout=on_timeout)
        pending.timer = self.host.scheduler.after(
            QUERY_TIMEOUT, self._timeout, msg_id)
        self._pending[msg_id] = pending
        self.upstream_queries += 1
        if self.check is not None:
            self.check.on_upstream_query(self, qname, qtype, msg_id, wire)
        self._upstream_sock.sendto(wire, server_addr, DNS_PORT)

    def _timeout(self, msg_id: int) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is not None:
            pending.on_timeout()

    def _on_upstream_response(self, payload: bytes, src: str,
                              sport: int) -> None:
        pending = self._pending.get(int.from_bytes(payload[:2], "big"))
        # RFC 5452: the reply must come from where we sent the query
        # and be about what we asked.
        if (pending is None or src != pending.server_addr
                or not _answers(payload, pending)):
            return
        message = self._decode(payload, pending)
        if message is None:
            return
        del self._pending[pending.msg_id]
        if pending.timer is not None:
            pending.timer.cancel()
        if payload[2] & 0x02:                   # the header's TC bit
            # Truncated: retry this exchange over TCP (RFC 7766).
            self.tcp_fallbacks += 1
            self._send_upstream_tcp(pending)
            return
        self._cache_message(message)
        pending.on_response(message)

    def _decode(self, wire: bytes, pending: _Pending) -> Message | None:
        """The response *wire*, which :func:`_answers` accepted for
        *pending*, decoded from behind its question; None if it does not
        parse."""
        try:
            message = decode_response(wire, pending.asked)
        except WireError:
            return None
        if self.check is not None:
            self.check.on_upstream_response(self, wire, message)
        return message

    def _send_upstream_tcp(self, pending: _Pending) -> None:
        """Re-ask one truncated exchange over a fresh TCP connection."""
        conn = self.host.tcp_connect(pending.server_addr, DNS_PORT)
        done = {"answered": False}

        def on_message(wire: bytes) -> None:
            if done["answered"] or not _answers(wire, pending):
                return
            message = self._decode(wire, pending)
            if message is None:
                return
            done["answered"] = True
            timer.cancel()
            conn.close()
            self._cache_message(message)
            pending.on_response(message)

        def on_timeout() -> None:
            if done["answered"]:
                return
            done["answered"] = True
            # Whatever state the connection reached: a SYN nobody
            # listens for is dropped without a RST, and a connection
            # left in SYN_SENT would hold its port for good.
            conn.close()
            pending.on_timeout()

        framer = LengthPrefixFramer(on_message)
        conn.on_data = framer.feed
        conn.send(frame_message(pending.wire))
        timer = self.host.scheduler.after(QUERY_TIMEOUT * 2, on_timeout)

    # -- response classification ---------------------------------------------------

    def _cache_message(self, message: Message) -> None:
        now = self.host.scheduler.now
        for rrset in message.all_rrsets():
            if rrset.rtype != RRType.SOA:
                self.cache.put_rrset(rrset, now)

    def _handle_response(self, state: _Resolution,
                         message: Message) -> None:
        now = self.host.scheduler.now
        if message.rcode == Rcode.NXDOMAIN:
            soa = next((r for r in message.authority
                        if r.rtype == RRType.SOA), None)
            self.cache.put_negative(state.qname, state.qtype, True, soa,
                                    now)
            self._finish(state, Rcode.NXDOMAIN,
                         authority=[soa] if soa else [])
            return
        if message.rcode != Rcode.NOERROR:
            self._query_next_server(state)
            return

        answers = self._extract_answers(state, message)
        if answers is not None:
            return  # _extract_answers finished or redirected

        ns_rrsets = [r for r in message.authority
                     if r.rtype == RRType.NS]
        if ns_rrsets:
            self._follow_referral(state, message, ns_rrsets[0])
            return

        # NOERROR, no answers, no referral: NODATA.
        soa = next((r for r in message.authority
                    if r.rtype == RRType.SOA), None)
        self.cache.put_negative(state.qname, state.qtype, False, soa, now)
        self._finish(state, Rcode.NOERROR,
                     authority=[soa] if soa else [])

    def _extract_answers(self, state: _Resolution,
                         message: Message) -> bool | None:
        """Returns True-ish if the message resolved (or redirected) the
        question, None if the caller should keep classifying."""
        direct = [r for r in message.answer
                  if r.rtype == state.qtype and r.name == state.qname]
        if direct or (state.qtype == RRType.ANY and message.answer):
            # Include the CNAME chain we may have accumulated plus the
            # whole answer section.
            self._finish(state, Rcode.NOERROR, answers=message.answer)
            return True
        cname = next((r for r in message.answer
                      if r.name == state.qname
                      and r.rtype == RRType.CNAME), None)
        if cname is not None:
            # The answer may already contain the chain's target records;
            # if the final target's records are present, finish now.
            target = cname.rdatas[0].target
            resolved_in_place = any(
                r.name == target and r.rtype == state.qtype
                for r in message.answer)
            if resolved_in_place:
                self._finish(state, Rcode.NOERROR, answers=message.answer)
                return True
            state.answer_sections.append(cname)
            self._follow_cname(state, cname, already_appended=True)
            return True
        return None

    def _follow_cname(self, state: _Resolution, cname: RRset,
                      already_appended: bool = False) -> None:
        if state.cname_depth >= MAX_CNAME_DEPTH:
            self._servfail(state)
            return
        if not already_appended:
            state.answer_sections.append(cname)
        state.qname = cname.rdatas[0].target
        state.cname_depth += 1
        state.tries = 0
        self._step(state)

    def _follow_referral(self, state: _Resolution, message: Message,
                         ns_rrset: RRset) -> None:
        if state.referrals >= MAX_REFERRALS:
            self._servfail(state)
            return
        state.referrals += 1
        now = self.host.scheduler.now
        addrs: list[str] = []
        for rdata in ns_rrset.rdatas:
            addrs.extend(self.cache.addresses_for(rdata.target, now))
        if addrs:
            state.servers = addrs
            state.server_index = 0
            state.tries = 0
            self._query_next_server(state)
            return
        # Glueless delegation: resolve a nameserver address first.
        if state.glue_depth >= MAX_GLUE_DEPTH:
            self._servfail(state)
            return
        state.glue_depth += 1
        self._resolve_glue(state,
                           [rdata.target for rdata in ns_rrset.rdatas],
                           0)

    def _resolve_glue(self, state: _Resolution, ns_names: list[Name],
                      index: int) -> None:
        """Chase the address of the *index*-th NS candidate, falling
        through to the next one when it is dead or cyclic — a zone with
        one broken nameserver and one working one must still resolve."""
        while index < len(ns_names):
            ns_name = ns_names[index]
            if (ns_name, int(RRType.A)) in self._inflight:
                # This glue target's resolution is already in flight
                # above us: joining it would deadlock (a dependency
                # cycle, e.g. a zone whose only nameserver lives inside
                # itself).  Try the next NS name instead.
                index += 1
                continue

            def with_glue(result: Message, index: int = index) -> None:
                glue = [r for r in result.answer
                        if r.rtype == RRType.A]
                if result.rcode != Rcode.NOERROR or not glue:
                    self._resolve_glue(state, ns_names, index + 1)
                    return
                state.servers = [rd.address
                                 for r in glue for rd in r.rdatas]
                state.server_index = 0
                state.tries = 0
                self._query_next_server(state)

            self.resolve(ns_name, RRType.A, with_glue,
                         _glue_depth=state.glue_depth)
            return
        self._servfail(state)
