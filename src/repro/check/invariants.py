"""Online replay invariants: what must hold while a replay runs.

The replay engine's accounting promises are easy to state and easy to
break silently — a querier that drops a result on a retry path keeps
producing plausible reports with slightly-wrong fractions.  This module
turns the promises into machine-checked invariants:

* **query conservation** — per querier, every sent query has exactly
  one result, and every result is in exactly one state: answered,
  timed out, failed over, or still open; open results are accounted by
  ``pending_count() + unanswered_at_close``;
* **same-source pinning** — with ``sticky_sources`` every emulated
  source's queries come from one querier (§2.6's connection-reuse
  rule), unless supervision failover legitimately moved it;
* **read horizon** — every record a reader held back until its ΔT
  instant was within :data:`~repro.replay.timing.READ_HORIZON` is read
  at least half a horizon before the instant its querier schedules, so
  no record reaches its querier after its instant because of the
  horizon;
* **message-id uniqueness** — a freshly allocated id never collides
  with an id pending on the same socket/channel (a collision would
  complete the wrong :class:`QueryResult`);
* **non-negative accounting** — counters, backlogs, and pending maps
  never go below zero, and no result sits in two pending maps at once;
* **wire fast path == full codec** — the querier sends memoised bytes
  and matches responses on the 12-byte header; every query it sends
  must equal what the full encoder makes of its record, and every
  response it accepts must decode, with the header fields it acted on
  equal to the decoded message's (so no extended rcode went unseen);
  and every response a server's miss path makes with the answer cache on
  (question read off the wire, sections spliced from a template or
  encoded straight from the lookup result) must be what the plain engine
  — full decode, lookup, full encode — makes; the recursive resolver's
  four wire-level steps are held to the full codec the same way.

Enable with ``ReplayConfig(check=True)`` (shaped like ``observe=``):
either backend then verifies each message-id allocation and message
inline, rescans full querier state every :data:`SCAN_EVERY` sends — or
every :data:`SCAN_SHARE`-th of the sends so far, once that is more, so
the rescans of a long replay cost O(n log n), not O(n²) — and runs a
final verification before the report.  The checker only
*reads* state — it schedules no events of its own — so a checked run
is byte-identical to an unchecked one, scheduler accounting included.
Violations raise :class:`InvariantViolation` listing every failure.
"""

from __future__ import annotations

from repro.dns.constants import Flag
from repro.dns.message import Edns, Message
from repro.dns.wire import WireError
from repro.obs.report import counter_state
from repro.replay.querier import FAILED_OVER, TIMED_OUT
from repro.replay.timing import READ_HORIZON

# How often (in message-id allocations, i.e. sends) the attached
# checker rescans full querier state mid-run: every SCAN_EVERY sends,
# or every 1/SCAN_SHARE of the sends so far when that is more.
SCAN_EVERY = 256
SCAN_SHARE = 16


class InvariantViolation(AssertionError):
    """A replay-engine invariant did not hold."""


def _states(answered: bool, flags: int) -> list[str]:
    states = ["answered"] if answered else []
    if flags & TIMED_OUT:
        states.append("timed_out")
    if flags & FAILED_OVER:
        states.append("failed_over")
    return states


def _terminal_states(result) -> list[str]:
    return _states(result.response_time is not None, result.flags)


def _check_counters(obj, errors: list[str], prefix: str = "") -> None:
    """No counter *obj*'s class declares (``COUNTERS``) is negative."""
    for counter, value in counter_state(obj).items():
        if value < 0:
            errors.append(f"{prefix}counter {counter} is negative "
                          f"({value})")


def _check_querier(querier, errors: list[str]) -> None:
    name = querier.name
    _check_counters(querier, errors, f"{name}: ")
    backlog = querier.backlog_depth()
    if backlog < 0:
        errors.append(f"{name}: negative backlog depth ({backlog})")
    pending = querier.pending_count()
    if pending < 0:
        errors.append(f"{name}: negative pending count ({pending})")

    results = querier.results
    if querier.sent != len(results):
        errors.append(
            f"{name}: sent={querier.sent} but {len(results)} results "
            "(every send must create exactly one result)")
    tally = dict.fromkeys(("answered", "timed_out", "failed_over", "open"), 0)
    # Read off the columns: a row is answered when its response time is
    # not NaN, and the flags carry the other two terminal states.
    for row, (time, flags) in enumerate(zip(results.column("response"),
                                            results.column("flags"))):
        states = _states(time == time, flags) or ["open"]
        if len(states) > 1:
            errors.append(
                f"{name}: result for {results[row].record.qname!r} is in "
                f"multiple terminal states {states}")
        else:
            tally[states[0]] += 1
    answered, timed_out, failed_over, open_ = tally.values()
    total = answered + timed_out + failed_over + open_
    if total != querier.sent:
        errors.append(
            f"{name}: conservation broken: answered={answered} + "
            f"timed_out={timed_out} + failed_over={failed_over} + "
            f"open={open_} = {total} != sent={querier.sent}")
    if open_ != pending + querier.unanswered_at_close:
        errors.append(
            f"{name}: {open_} open results but pending={pending} + "
            f"unanswered_at_close={querier.unanswered_at_close}")

    seen: set[int] = set()
    for result in querier.pending_results():
        if _terminal_states(result):
            errors.append(
                f"{name}: pending map holds a finished result for "
                f"{result.record.qname!r} "
                f"({'/'.join(_terminal_states(result))})")
        if id(result) in seen:
            errors.append(
                f"{name}: result for {result.record.qname!r} is "
                "pending on two sockets at once")
        seen.add(id(result))


def _check_pinning(queriers, errors: list[str]) -> None:
    """Every emulated source's results live on exactly one querier."""
    owner: dict[str, str] = {}
    for querier in queriers:
        name = querier.name
        inputs = querier.results.inputs
        for index in querier.results.column("index"):
            src = inputs[index].src
            first = owner.setdefault(src, name)
            if first != name:
                errors.append(
                    f"source {src} split across queriers {first} and "
                    f"{name} (sticky_sources pinning broken)")
                return      # one example is enough; the map is broken


def _fields(message) -> tuple:
    """Everything a decoded message says, names in the case read."""
    question = message.question
    return (message.msg_id, message.opcode, message.rcode, message.flags,
            question and (question.qname.labels, question.qtype,
                          question.qclass),
            message.edns,
            [[(rrset.name.labels, rrset.rtype, rrset.rclass, rrset.ttl,
               [rdata.to_wire() for rdata in rrset.rdatas])
              for rrset in section]
             for section in (message.answer, message.authority,
                             message.additional)])


def _raise_if_any(errors: list[str], context: str) -> None:
    if errors:
        detail = "\n".join(f"  - {e}" for e in errors)
        raise InvariantViolation(
            f"{context}: {len(errors)} invariant violation(s):\n{detail}")


def verify_queriers(queriers, *, sticky: bool = True,
                    supervised: bool = False,
                    expected_results: int | None = None,
                    context: str = "replay") -> None:
    """Verify the querier-side invariants, raising
    :class:`InvariantViolation` with every failure listed.

    The scan :class:`InvariantChecker` runs, on either backend.
    Pinning is only checked when *sticky* and no querier crashed and
    not *supervised* — failover legitimately re-homes sources."""
    errors: list[str] = []
    for querier in queriers:
        _check_querier(querier, errors)
    crashed = any(q.crashed for q in queriers)
    if sticky and not supervised and not crashed:
        _check_pinning(queriers, errors)
    if expected_results is not None:
        total = sum(len(q.results) for q in queriers)
        if total != expected_results:
            errors.append(
                f"{total} results for {expected_results} trace "
                "records (records lost or duplicated in dispatch)")
    _raise_if_any(errors, context)


def verify_responder(responder, *, context: str = "server") -> None:
    """Verify the server-side overload-control accounting
    (docs/RESILIENCE.md): every handled query ends in exactly one of
    sent/slipped/dropped, and every datagram offered to the admission
    queue is processed, shed, refused, or still queued.  Holds with
    defenses off too (all the defense counters just stay zero)."""
    errors: list[str] = []
    _check_counters(responder, errors)
    sent = responder.responses_sent
    dropped = responder.rrl_dropped
    handled = responder.queries_handled
    if sent + dropped != handled:
        errors.append(
            f"responses_sent={sent} + rrl_dropped={dropped} = "
            f"{sent + dropped} != queries_handled={handled} "
            "(a handled query neither answered nor rate-limited)")
    if responder.rrl_slipped > sent:
        errors.append(
            f"rrl_slipped={responder.rrl_slipped} > "
            f"responses_sent={sent} (slips are a subset of sends)")
    queue = responder.admission_queue
    queued = len(queue) if queue is not None else 0
    settled = (responder.admission_processed + responder.admission_shed
               + responder.admission_refused + queued)
    if responder.admission_received != settled:
        errors.append(
            f"admission_received={responder.admission_received} != "
            f"processed={responder.admission_processed} + "
            f"shed={responder.admission_shed} + "
            f"refused={responder.admission_refused} + "
            f"queued={queued} = {settled} (admitted datagrams lost)")
    _raise_if_any(errors, context)


def verify_cache(cache, *, context: str = "cache") -> None:
    """Verify the resolver-cache conservation laws
    (docs/RECURSIVE.md): every lookup is exactly one hit or miss,
    negative hits are a subset of hits, stored entries never exceed
    the configured capacity, and the memory estimate and counters
    never go negative.  Holds for the default (unbounded) config too."""
    errors: list[str] = []
    _check_counters(cache, errors)
    if cache.hits + cache.misses != cache.lookups:
        errors.append(
            f"hits={cache.hits} + misses={cache.misses} = "
            f"{cache.hits + cache.misses} != lookups={cache.lookups} "
            "(a lookup neither hit nor missed)")
    if cache.neg_hits > cache.hits:
        errors.append(
            f"neg_hits={cache.neg_hits} > hits={cache.hits} "
            "(negative hits are a subset of hits)")
    limit = cache.config.max_entries
    if limit is not None and cache.entry_count() > limit:
        errors.append(
            f"{cache.entry_count()} entries exceed max_entries="
            f"{limit} (LRU eviction failed to bound the cache)")
    if cache.entry_count() == 0 and cache.memory_bytes != 0:
        errors.append(
            f"empty cache reports memory_bytes={cache.memory_bytes} "
            "(size accounting leaked)")
    _raise_if_any(errors, context)


class InvariantChecker:
    """The ``ReplayConfig(check=True)`` hook, on either backend.

    Bound to the run's *queriers*, its *servers* (``(where, app)``
    pairs; the responders and resolvers among them are checked), the
    *config* (pinning rules) and a *clock* (anything with ``.now``).
    ``attach()`` points every querier's and server's ``check`` slot
    here; a querier calls :meth:`on_msg_id` at each id allocation,
    which also drives the full scan every :data:`SCAN_EVERY` sends, and
    the backend calls :meth:`final` before assembling the report.  The
    checker never schedules events, so it cannot perturb the timeline."""

    def __init__(self, queriers, servers, config, clock):
        from repro.server.recursive import RecursiveResolver
        from repro.server.responder import DnsResponder
        self.queriers = queriers
        self.servers = [(where, app) for where, app in servers
                        if isinstance(app, (DnsResponder,
                                            RecursiveResolver))]
        self.config = config
        self.clock = clock
        self.scans = 0
        self.id_checks = 0
        self._next_scan = SCAN_EVERY
        # Input index -> when a reader let it past the read horizon, for
        # the records still on their way to a querier.
        self._held: dict[int, float] = {}

    def attach(self) -> "InvariantChecker":
        for checked in (*self.queriers, *(app for _, app in self.servers)):
            checked.check = self
        return self

    # -- send-time hook -----------------------------------------------------

    def on_msg_id(self, querier, record, msg_id: int,
                  scan: bool = True) -> None:
        """A querier allocated *msg_id* for *record*: it must be a
        valid id and free on the destination socket/channel.  *scan*
        is False at allocation sites that run mid-transition (TC
        fallback re-ids a query while it is between pending maps), so
        only the id check runs there."""
        self.id_checks += 1
        if scan and self.id_checks >= self._next_scan:
            self._next_scan = self.id_checks + max(
                SCAN_EVERY, self.id_checks // SCAN_SHARE)
            self.scan()
        if not 0 <= msg_id <= 0xFFFF:
            raise InvariantViolation(
                f"{querier.name}: allocated message id {msg_id} "
                "outside 0..65535")
        if msg_id in querier._taken_ids(record):
            raise InvariantViolation(
                f"{querier.name}: message id {msg_id} allocated for "
                f"{record.qname!r} collides with a query pending on "
                f"the same {record.proto} socket")

    # -- the read horizon ---------------------------------------------------

    def on_held(self, index: int, released: float) -> None:
        """A reader held input *index* back at the read horizon and let
        it go at *released*."""
        self._held[index] = released

    def on_arrival(self, querier, index: int, instant: float) -> None:
        """Input *index* reached *querier*, which schedules it at its ΔT
        *instant*: if the horizon held it, it was let go with at least
        half a horizon to spare (so only the path after the reader can
        make it late)."""
        released = self._held.pop(index, None)
        if released is not None \
                and released > instant - READ_HORIZON / 2 + 1e-9:
            raise InvariantViolation(
                f"{querier.name}: record {index} was held at the read "
                f"horizon until {released:.6f}, less than "
                f"READ_HORIZON/2 = {READ_HORIZON / 2} before its ΔT "
                f"instant {instant:.6f}")

    # -- wire fast path vs full codec ---------------------------------------

    def on_query_wire(self, querier, record, msg_id: int,
                      wire: bytes) -> None:
        """*wire* is about to carry *record* under *msg_id*: it must be
        what the full encoder makes of the record.  (With cookies on the
        COOKIE option is not in the record, and the querier builds the
        message with the full encoder anyway.)"""
        if querier.cookies:
            return
        expected = record.with_(msg_id=msg_id).to_message().to_wire()
        if wire != expected:
            raise InvariantViolation(
                f"{querier.name}: query bytes for {record.qname!r} id "
                f"{msg_id} differ from the full encoder's: "
                f"{wire.hex()} != {expected.hex()}")

    def on_response(self, querier, wire: bytes, header: tuple) -> None:
        """The querier accepted *wire* on its *header* ``(msg_id, qr,
        tc, rcode)`` alone: the body must parse and say the same."""
        try:
            message = Message.from_wire(wire)
        except WireError as exc:
            raise InvariantViolation(
                f"{querier.name}: accepted a response on its header "
                f"whose body does not parse ({exc}): {wire.hex()}") from exc
        decoded = (message.msg_id, message.is_response,
                   bool(message.flags & Flag.TC), message.rcode)
        if decoded != header:
            raise InvariantViolation(
                f"{querier.name}: header read (id, qr, tc, rcode) = "
                f"{header} but the decoded message says {decoded} "
                "(a non-zero extended rcode lives in the OPT TTL)")

    def on_server_response(self, responder, wire: bytes, src: str,
                           stream: bool, entry) -> None:
        """*entry* is what *responder*'s miss path made of *wire* with
        its wire-level forms allowed: the plain engine, run with no side
        effects, must make the same bytes."""
        expected = responder._compile(wire, src, stream, None)
        if expected is None or expected[0].body != entry.body:
            raise InvariantViolation(
                f"server: precompiled response to {wire.hex()} differs "
                f"from the plain engine's: {entry.body.hex()} != "
                f"{expected[0].body.hex() if expected else None}")

    # -- the resolver's wire path vs the full codec (docs/RECURSIVE.md) -----

    def on_resolver_question(self, resolver, wire: bytes,
                             fields: tuple) -> None:
        """The resolver read *fields* ``(msg_id, rd, qname, qtype,
        qclass, (payload, do) | None)`` off a stub query with
        ``read_question``: the full decoder must say the same."""
        read = fields[:2] + (fields[2].labels,) + fields[3:]
        try:
            query = Message.from_wire(wire)
        except WireError as exc:
            raise InvariantViolation(
                f"resolver: question read off {wire.hex()} as {read} but "
                f"the message does not parse ({exc})") from exc
        question, edns = query.question, query.edns
        decoded = question and (
            query.msg_id, bool(query.flags & Flag.RD), question.qname.labels,
            question.qtype, question.qclass,
            edns and (edns.payload, edns.do))
        if read != decoded or query.opcode or query.is_response:
            raise InvariantViolation(
                f"resolver: question read off {wire.hex()} as {read} but "
                f"the decoded message says {decoded}")

    def on_upstream_query(self, resolver, qname, qtype: int, msg_id: int,
                          wire: bytes) -> None:
        """*wire* is about to ask an upstream server for *qname*/*qtype*
        under *msg_id*: it must be what the full encoder makes of it."""
        expected = Message.make_query(
            qname, qtype, msg_id=msg_id, rd=False,
            edns=Edns(payload=resolver.edns_payload,
                      do=resolver.dnssec_ok)).to_wire()
        if wire != expected:
            raise InvariantViolation(
                f"resolver: upstream query bytes for {qname} id {msg_id} "
                f"differ from the full encoder's: {wire.hex()} != "
                f"{expected.hex()}")

    def on_upstream_response(self, resolver, wire: bytes, message) -> None:
        """The resolver decoded the upstream response *wire* from behind
        the question it had proved echoed (``decode_response``): the full
        decoder must read the same header, question and records."""
        try:
            expected = _fields(Message.from_wire(wire))
        except WireError as exc:
            expected = f"no message ({exc})"
        if _fields(message) != expected:
            raise InvariantViolation(
                f"resolver: upstream response {wire.hex()} decoded from "
                f"behind its question as {_fields(message)} but the full "
                f"decoder says {expected}")

    def on_resolver_reply(self, resolver, query_wire: bytes, result,
                          wire: bytes) -> None:
        """*wire* is the resolver's one-step reply to the stub query
        *query_wire* with *result*: the decoded query's skeleton
        response, filled in and encoded, must be the same bytes."""
        query = Message.from_wire(query_wire)
        response = query.make_response()
        response.flags |= Flag.RA
        response.rcode = result.rcode
        response.answer = result.answer
        response.authority = result.authority
        limit = 512
        if query.edns is not None:
            limit = min(resolver.edns_payload, max(512, query.edns.payload))
        expected = response.to_wire(max_size=limit)
        if wire != expected:
            raise InvariantViolation(
                f"resolver: reply to {query_wire.hex()} differs from the "
                f"two-message reference: {wire.hex()} != {expected.hex()}")

    # -- scans --------------------------------------------------------------

    def scan(self, expected_results: int | None = None) -> None:
        self.scans += 1
        config = self.config
        verify_queriers(
            self.queriers, sticky=config.sticky_sources,
            supervised=config.supervision is not None,
            expected_results=expected_results,
            context=f"replay t={self.clock.now:.3f}")

    def final(self, expected_results: int | None = None) -> None:
        self.scan(expected_results=expected_results)
        # Server-side accounting: every DnsResponder app in the world
        # (authoritative, meta, recursive) must conserve its queries.
        from repro.server.recursive import RecursiveResolver
        for where, app in self.servers:
            if isinstance(app, RecursiveResolver):
                verify_cache(app.cache, context=f"cache {where}")
            else:
                verify_responder(app, context=f"server {where}")
