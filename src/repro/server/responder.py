"""The transport-independent DNS answering core.

:class:`DnsResponder` owns everything about turning a wire-format query
into a wire-format response — views, zone lookup, response-building
rules, the precompiled-answer cache, and the query log — and nothing
about how queries arrive.  Both replay backends serve the same
responder:

* the simulated :class:`~repro.server.authoritative.AuthoritativeServer`
  subclasses it and binds it to a :class:`~repro.netsim.host.Host`'s
  simulated UDP/TCP/TLS/QUIC endpoints;
* the live backend (:mod:`repro.replay.backends.live`) serves it behind
  real ``asyncio`` datagram/stream endpoints on loopback sockets.

Because the answering logic is defined once, the two backends cannot
drift: a cache-eligible query produces the same bytes whether it
arrived through the event-driven fabric or a kernel socket.

The ``clock``/``observer`` hooks default to inert (time 0, no metrics);
each backend supplies its own notion of "now" and its own observer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from struct import Struct
from sys import intern
from typing import Callable

from repro.dns.constants import Flag, Opcode, Rcode
from repro.dns.message import (HEADER_SIZE, Edns, Message, Question, encode,
                               read_question)
from repro.dns.name import Name
from repro.dns.wire import WireError, WireReader
from repro.dns.zone import LookupStatus, Zone
from repro.obs.report import zero_counters
from repro.server.answercache import AnswerCache, CachedAnswer
from repro.server.overload import (OverloadConfig, ResponseRateLimiter,
                                   ServerCookies, minimal_response,
                                   response_key)
from repro.server.views import ViewSelector, catch_all_view
from repro.util.rows import Rows

# The largest UDP response sent, whatever the client's EDNS advertises.
UDP_PAYLOAD_LIMIT = 4096

# A plain query's response flags word (flags and rcode; RD echoed on
# top), as _fill makes it: QR; AA unless a referral; the NXDOMAIN or
# REFUSED rcode.  And its OPT, by the query's DO (shared, never written
# to).
_RD, _TC = int(Flag.RD), int(Flag.TC)
_REFERRAL_WORD = int(Flag.QR)
_ANSWER_WORD = int(Flag.QR | Flag.AA)
_NXDOMAIN_WORD = _ANSWER_WORD | Rcode.NXDOMAIN
_REFUSED_WORD = _REFERRAL_WORD | Rcode.REFUSED
_RESPONSE_EDNS = {do: Edns(do=do) for do in (False, True)}


@dataclass(slots=True)
class QueryLogEntry:
    """One row of a :class:`QueryLog`, as it reads."""

    time: float
    qname: Name
    qtype: int
    src: str
    sport: int
    proto: str
    rcode: int
    response_size: int


_PROTOS = ("udp", "tcp", "tls", "quic")
_PROTO_CODES = {proto: code for code, proto in enumerate(_PROTOS)}


class QueryLog(Rows):
    """The server's query log, one packed row per handled query and two
    references beside it: the interned source, and what the qname reads
    back from — the cached entry's shared :class:`Name` when the answer
    cache holds one, otherwise the query bytes, never a per-query
    ``Name``.  It reads as a list of :class:`QueryLogEntry`."""

    # time, qtype, sport, protocol (index into _PROTOS), rcode and the
    # untruncated response size (0 when dropped).
    ROW = Struct("<dHHBHI")
    FIELDS = ("time", "qtype", "sport", "proto", "rcode", "size")
    OBJECTS = 2                 # qname (Name or query bytes), src

    __slots__ = ()

    def append(self, time: float, qname, qtype: int, src: str, sport: int,
               proto: str, rcode: int, size: int) -> None:
        """Log one query; *qname* is a :class:`Name` or the query wire."""
        self.data += _LOG_ROW.pack(time, qtype, sport, _PROTO_CODES[proto],
                                   rcode, size)
        self.objects += (qname, intern(src))

    def _read(self, row: int) -> QueryLogEntry:
        time, qtype, sport, proto, rcode, size = _LOG_ROW.unpack_from(
            self.data, row * _LOG_ROW.size)
        qname, src = self.objects[2 * row:2 * row + 2]
        if type(qname) is not Name:     # the query: read it again
            reader = WireReader(qname)
            reader.pos = HEADER_SIZE
            qname = reader.name()
        return QueryLogEntry(time, qname, qtype, src, sport, _PROTOS[proto],
                             rcode, size)


_LOG_ROW = QueryLog.ROW


class DnsResponder:
    """Query -> response logic for one authoritative identity."""

    # Declared counters (repro.obs.report): attribute -> report name.
    COUNTERS = {
        "queries_handled": "server.queries",
        "refused": "server.refused",
        "responses_sent": "server.responses_sent",
        "rrl_dropped": "server.rrl_dropped",
        "rrl_slipped": "server.rrl_slipped",
        "cookies_validated": "server.cookies_validated",
        "admission_received": "server.admission_received",
        "admission_processed": "server.admission_processed",
        "admission_shed": "server.admission_shed",
        "admission_refused": "server.refused_overload",
    }
    COUNTING_PARTS = ("answer_cache",)   # owned; counts for itself

    def __init__(self, zones: list[Zone] | None = None,
                 views: ViewSelector | None = None,
                 log_queries: bool = False,
                 answer_cache: bool = True,
                 clock: Callable[[], float] | None = None,
                 observer=None,
                 overload: OverloadConfig | None = None):
        if views is None:
            views = ViewSelector([catch_all_view(list(zones or []))])
        elif zones:
            raise ValueError("pass either zones or views, not both")
        self.views = views
        # Precompiled wire-format answers (the NSD analogue, §5.2.1):
        # identical queries skip parse/lookup/encode and get the stored
        # response bytes with only the 2-byte message id patched.
        self.answer_cache = AnswerCache(views) if answer_cache else None
        self.log_queries = log_queries
        self.query_log = QueryLog()
        zero_counters(self)
        self._clock = clock
        self._observer = observer
        # Overload control (docs/RESILIENCE.md): everything below is
        # inert when *overload* is None — the default posture.
        self.overload = overload
        self._rrl: ResponseRateLimiter | None = None
        self._cookie_jar: ServerCookies | None = None
        self.admission_queue: deque | None = None
        if overload is not None:
            if overload.rrl is not None:
                scale = (overload.cookies.nocookie_scale
                         if overload.cookies is not None else 1.0)
                self._rrl = ResponseRateLimiter(overload.rrl, scale)
            if overload.cookies is not None:
                self._cookie_jar = ServerCookies()
            if overload.admission is not None:
                self.admission_queue = deque()
        # ReplayConfig(check=True): InvariantChecker.on_server_response.
        self.check = None

    # -- backend hooks ----------------------------------------------------

    def _now(self) -> float:
        """Current time for query-log stamps and trace spans; the
        simulated server overrides this with the scheduler clock."""
        return self._clock() if self._clock is not None else 0.0

    def _obs(self):
        """The attached observer, if any; the simulated server
        overrides this to reach the scheduler's run-wide observer."""
        return self._observer

    # -- query processing -------------------------------------------------

    def reply_wire(self, proto: str, wire: bytes, src: str,
                   sport: int) -> bytes | None:
        """Wire-format response for a wire-format query, via the
        precompiled-answer cache when possible.  Returns the bytes to
        send (UDP entries are size-limited/truncated, stream entries
        full-size), or None when no response is due.

        A hit and a miss differ only in where the entry comes from; the
        bookkeeping is replayed from it either way, so a cached run is
        observably identical to an uncached one.  A hit still charges
        the rate limiter: the cookie option is in the cache key bytes,
        so the stored ``cookie_verified`` is what re-validation finds."""
        stream = proto != "udp"
        cache = self.answer_cache
        obs = self._obs()
        start = self._now() if obs is not None else 0.0
        entry = cache.get(src, stream, wire) if cache is not None else None
        hit = kept = entry is not None
        cacheable = True
        if not hit:
            made = self._compile(wire, src, stream, cache)
            if made is None:
                return None
            entry, cacheable, templated = made
            # Stored only when no section template makes it: a referral
            # or denial is spliced again from its template on a repeat.
            kept = cacheable and not templated and cache is not None
            if self.check is not None and cache is not None:
                self.check.on_server_response(self, wire, src, stream,
                                              entry)
        self.queries_handled += 1
        if entry.refused:
            self.refused += 1
        if entry.cookie_verified:
            self.cookies_validated += 1
        if obs is not None:
            if not stream:
                obs.server_queries_udp += 1
            elif proto == "tcp":
                obs.server_queries_tcp += 1
            elif proto == "tls":
                obs.server_queries_tls += 1
            else:
                obs.server_queries_quic += 1
            if cacheable:
                if entry.view_selected:
                    obs.view_selections += 1
                else:
                    obs.view_misses += 1
            obs.tracer.emit("server.handle", start, self._now(),
                            detail=proto)
        decision = self._rrl_gate(src, entry.rcode, entry.qname,
                                  entry.qtype, entry.zone,
                                  entry.cookie_verified, stream)
        if self.log_queries:
            # The row reads its qname back from the cached entry's shared
            # Name, or from the query bytes: no per-query Name is kept.
            self.query_log.append(
                self._now(), entry.qname if kept else wire, entry.qtype,
                src, sport, proto, entry.rcode,
                0 if decision == "drop" else entry.full_size)
        if kept and not hit:
            # Cached regardless of the RRL outcome: the cache stores
            # the *answer*, and RRL re-decides on every hit.
            cache.put(src, stream, wire, entry)
        return self._finish(decision, wire, entry.rcode,
                            wire[:2] + entry.body)

    def _compile(self, wire: bytes, src: str, stream: bool,
                 cache: AnswerCache | None) \
            -> tuple[CachedAnswer, bool, bool] | None:
        """``(entry, cacheable, templated)`` for the query *wire*, None
        when no response is due; no counter, span or log side effect.
        *templated*: a section template of *cache* made the response, or
        was learned from it and makes it from now on.
        With *cache* the first and last step take their wire-level forms
        where they apply (docs/BACKENDS.md): a plain query's question is
        read off the wire, and its response is a shared lookup result
        answered from *cache*'s section templates or, failing that, one
        ``encode`` straight from the lookup result.  With None this is
        the plain engine — full decode, lookup, response message, full
        encode — that ``answer_cache=False`` serves and ``check=True``
        holds those forms to.  Cookies need the full decoder (the jar
        reads the option) and a per-client body."""
        query = plain = None
        if cache is not None and self._cookie_jar is None:
            plain = read_question(wire)
        if plain is not None:
            rd, qname, qtype, qclass, _, edns = plain
        else:
            try:
                query = Message.from_wire(wire)
            except WireError:
                return None
            if query.is_response or query.question is None:
                return None
            qname, qtype = query.question.qname, query.question.qtype
            edns = query.edns and (query.edns.payload, query.edns.do)
        cacheable = query is None or query.opcode == Opcode.QUERY
        zone, view_selected, result = (
            self._resolve(qname, qtype, bool(edns and edns[1]), src)
            if cacheable else (None, False, None))
        limit = 0 if stream else 512
        if edns and not stream:
            limit = min(UDP_PAYLOAD_LIMIT, max(512, edns[0]))
        shared = plain is not None and result is not None and result.shared
        body = cache.spliced(result, plain, wire, limit) if shared else None
        templated = body is not None
        verified = False
        if body is not None:
            rcode, full_size = body[1] & 0xF, 2 + len(body)
        elif plain is not None:
            # Encoded straight from the lookup: the flags word and the
            # sections _fill would put in a response message.
            if result is None:
                word, sections = _REFUSED_WORD, ((), (), ())
            else:
                status = result.status
                word = (_REFERRAL_WORD if status is LookupStatus.DELEGATION
                        else _NXDOMAIN_WORD if status is LookupStatus.NXDOMAIN
                        else _ANSWER_WORD)
                sections = (result.answers, result.authority,
                            result.additional)
            if rd:
                word |= _RD
            question = Question(qname, qtype, qclass)
            opt = edns and _RESPONSE_EDNS[edns[1]]
            notes = [] if shared else None
            out = full = encode(0, word, question, *sections, opt, 0, notes)
            if limit and len(full) > limit:
                # What to_wire(max_size=) does: TC, every section empty.
                # The template waits for the TCP retry.
                out = encode(0, word | _TC, question, (), (), (), opt, 0,
                             None)
            elif shared:
                templated = cache.learn(result, plain, wire, full, notes)
            body, rcode, full_size = out[2:], word & 0xF, len(full)
        else:
            response = self._fill(query.make_response(), result, cacheable)
            if self._cookie_jar is not None:
                # Validate + attach the cookie echo before encoding: the
                # echoed option is part of the cached response bytes.
                verified = self._cookie_jar.process(query, response, src)
            out = full = response.to_wire()
            if limit and len(full) > limit:
                out = response.to_wire(max_size=limit)
            body, rcode, full_size = out[2:], response.rcode, len(full)
        refused = zone is None
        return CachedAnswer(
            body, rcode, full_size, qname, qtype, view_selected,
            cacheable and refused, zone, 0 if refused else zone.version,
            verified), cacheable, templated

    # -- overload control -------------------------------------------------

    def _rrl_gate(self, src: str, rcode: int, qname, qtype: int, zone,
                  verified: bool, stream: bool) -> str:
        """The RRL decision for one about-to-be-sent response.  Stream
        transports are exempt (the address is proven by the handshake —
        exactly why slip steers real clients to TCP)."""
        if self._rrl is None or stream:
            return "send"
        return self._rrl.decide(
            self._now(), src, response_key(rcode, qname, qtype, zone),
            verified)

    def _finish(self, decision: str, wire: bytes, rcode: int,
                out: bytes) -> bytes | None:
        """Apply the RRL decision to the encoded response."""
        if decision == "drop":
            self.rrl_dropped += 1
            return None
        if decision == "slip":
            self.rrl_slipped += 1
            self.responses_sent += 1
            return minimal_response(wire, rcode, tc=True)
        self.responses_sent += 1
        return out

    # -- admission control ------------------------------------------------
    #
    # The responder owns the queue and the accounting; each backend
    # owns arrival (datagram handler) and drain (worker pool / task).
    # Conservation: admission_received == admission_processed +
    # admission_shed + admission_refused + len(admission_queue).

    def admission_offer(self, wire: bytes, item) \
            -> tuple[str, bytes | None]:
        """Admission decision for one arriving datagram.  Returns
        ``("queued", None)`` after enqueuing *item* (shedding the
        oldest queued query first when the hard limit is reached), or
        ``("refused", response)`` at the soft limit — *response* is a
        minimal REFUSED built straight from the query bytes (None for
        unanswerable garbage, which still counts as refused)."""
        self.admission_received += 1
        queue = self.admission_queue
        config = self.overload.admission
        if len(queue) >= config.limit:
            queue.popleft()
            self.admission_shed += 1
        elif config.soft_limit is not None \
                and len(queue) >= config.soft_limit:
            self.admission_refused += 1
            return "refused", minimal_response(wire, Rcode.REFUSED)
        queue.append(item)
        return "queued", None

    def admission_pop(self):
        """Dequeue the oldest admitted query for processing."""
        self.admission_processed += 1
        return self.admission_queue.popleft()

    def handle_query(self, query: Message, src: str) -> Message:
        """Pure query->response logic (transport-independent)."""
        plain = query.opcode == Opcode.QUERY
        result = self._resolve(
            query.question.qname, query.question.qtype, query.dnssec_ok,
            src)[2] if plain else None
        return self._fill(query.make_response(), result, plain)

    def _resolve(self, qname: Name, qtype: int, do: bool, src: str):
        """``(answering zone or None, view matched?, lookup result or
        None)`` for a question from *src*."""
        view = self.views.match(src)
        zone = view.zone_for(qname) if view is not None else None
        if zone is None:
            return None, view is not None, None
        return zone, True, zone.lookup(qname, qtype,
                                       dnssec=do and zone.is_signed())

    @staticmethod
    def _fill(response: Message, result, implemented: bool) -> Message:
        """*response* completed from a lookup result (None: no zone
        answers, REFUSED)."""
        if not implemented:
            # NOTIFY/UPDATE/etc. are not implemented, like a pure
            # authoritative-only server.
            response.rcode = Rcode.NOTIMP
        elif result is None:
            response.rcode = Rcode.REFUSED
        else:
            if result.status != LookupStatus.DELEGATION:
                # A referral is not authoritative data: AA stays clear.
                response.flags |= Flag.AA
            if result.status == LookupStatus.NXDOMAIN:
                response.rcode = Rcode.NXDOMAIN
            response.answer.extend(result.answers)
            response.authority.extend(result.authority)
            response.additional.extend(result.additional)
        return response

    # -- instrumentation --------------------------------------------------

    def response_sizes(self) -> list[int]:
        return list(self.query_log.column("size"))
