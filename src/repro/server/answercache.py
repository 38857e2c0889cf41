"""Precompiled wire-format answers — the NSD analogue (§5.2.1).

The paper's server sustains its query rates because NSD precompiles
response packets; our Python server used to re-run zone lookup and
re-encode every response from scratch.  This cache stores the encoded
response bytes for each distinct query the server has answered, keyed
by everything the response depends on:

* the raw query wire bytes *after* the 2-byte message id — qname,
  qtype, qclass, flags (RD), and the whole EDNS OPT record (DO bit,
  advertised payload size) are all in there, so two queries share an
  entry exactly when their responses are byte-identical modulo id;
* the query source address (split-horizon views select the zone by
  source, §2.4);
* the transport class — ``udp`` entries store the size-limited
  (possibly TC-truncated) datagram, ``stream`` entries the full
  message.  The UDP size limit is itself a function of the query's
  EDNS payload field, which is part of the key bytes.

On a hit the server sends ``query[:2] + entry.body`` — the 2-byte id
patch NSD does — and replays the bookkeeping side effects (query log,
counters) from the entry, so a cached run is observably identical to an
uncached one.

Invalidation is O(1) per lookup: the cache remembers the view
selector's ``generation`` (any view/zone-set change flushes everything)
and each entry carries the answering zone's ``version`` (any mutation
of that zone drops its entries lazily).

**Section templates** are the same idea one level down, for names seen
once.  A referral or a denial depends not on the qname but on the zone's
*shared* :class:`LookupResult` (one per cut, one per pair of covering
NSEC owners), so what the full encoder wrote after the question is kept
per ``(result, rd, EDNS/DO, matched suffix)`` and a later query gets
``id + stored header + its own question bytes + stored tail``, every
compression pointer in the tail moved by the difference in qname length.
Why that equals the full encoder's bytes: after the question the encoder
depends on the qname only through which suffixes of the names it writes
there the qname has already registered; that set is suffix-closed, so
the *longest* qname suffix in it — the matched suffix, the same label
tuple for both queries — decides it.  A pointer then targets either the
matched suffix, which ends the qname, or a name after the question; both
move with the qname's length, nothing points into the qname before the
matched suffix (that is what longest means), and the writer registers a
suffix at its first occurrence only.  Templates are keyed on the result
object, so :meth:`Zone.add`, which drops its shared results, orphans
them; they hold for any source, view or size limit (applied when
splicing); the store is FIFO-bounded at :data:`TEMPLATE_STORE`, each
template's moved tails (one per question end) at :data:`SHIFTED_TAILS`;
and ``ReplayConfig(check=True)`` compares every response made this way
with the plain engine's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.dns.name import Name
from repro.dns.wire import MAX_POINTER_OFFSET
from repro.obs.report import volatile, zero_counters

# Templates kept per AnswerCache, FIFO beyond: a sweep of hostile qnames
# cannot grow the store past this.
TEMPLATE_STORE = 1024
# Pointer-shifted tails kept per template (one per question end), FIFO
# beyond: a sweep of qname lengths cannot grow a template past this.
SHIFTED_TAILS = 16


@dataclass(slots=True)
class CachedAnswer:
    """Everything needed to replay one response without the DNS engine.
    Read-only for everyone (every hit shares the entry); built on every
    miss, so slotted rather than frozen, whose ``__init__`` pays one
    ``object.__setattr__`` per field."""

    body: bytes            # response wire minus the 2-byte message id
    rcode: int
    full_size: int         # untruncated response size (query-log field)
    qname: Name
    qtype: int
    view_selected: bool    # a view matched the source address
    refused: bool          # no zone answered (REFUSED)
    zone: object | None    # answering Zone, None for REFUSED
    zone_version: int
    # The query presented a valid DNS Cookie.  Part of the entry, not
    # re-derived: the COOKIE option lives in the cache key bytes and
    # the source address in the key, so the stored verdict is exactly
    # what re-validation would produce.
    cookie_verified: bool = False


class _Template(NamedTuple):
    """What the full encoder wrote around one reference question."""

    head: bytes             # flags and counts
    end: int                # where the reference question ended
    tail: bytes             # everything behind it
    pointers: tuple         # offsets of the compression pointers in tail
    suffixes: frozenset     # of every name written in tail
    shifted: dict           # question end -> tail_behind(end), memoised

    def tail_behind(self, end: int) -> bytes:
        """The tail with every pointer moved for a question ending at
        *end*.  Qname lengths recur, so each end's tail is kept, the
        last :data:`SHIFTED_TAILS` of them first-in first-out."""
        if end == self.end:
            return self.tail
        shifted = self.shifted
        tail = shifted.get(end)
        if tail is None:
            moved = bytearray(self.tail)
            for at in self.pointers:
                offset = (moved[at] << 8 | moved[at + 1]) + end - self.end
                moved[at], moved[at + 1] = offset >> 8, offset & 0xFF
            if len(shifted) >= SHIFTED_TAILS:
                del shifted[next(iter(shifted))]
            tail = shifted[end] = bytes(moved)
        return tail


class AnswerCache:
    """Bounded map of (source, transport class, query tail) -> answer,
    and the bounded store of section templates behind it."""

    # Volatile, all four: a run with the cache off must report the same
    # default bytes as one with it on (repro.obs.report).
    COUNTERS = {
        "hits": volatile("server.answer_cache_hits"),
        "misses": volatile("server.answer_cache_misses"),
        "template_hits": volatile("server.answer_template_hits"),
        "template_builds": volatile("server.answer_template_builds"),
    }

    def __init__(self, views):
        self._views = views
        self._generation = views.generation
        self._entries: dict[tuple, CachedAnswer] = {}
        self.max_entries = 100_000
        # (result, rd, do, matched suffix) -> what was encoded for it.
        self.templates: dict[tuple, _Template] = {}
        zero_counters(self)

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate(self) -> None:
        """Drop every entry (zone/view change, or explicit flush)."""
        self._entries.clear()
        self._generation = self._views.generation

    def get(self, src: str, stream: bool,
            wire: bytes) -> CachedAnswer | None:
        if self._generation != self._views.generation:
            self.invalidate()
            self.misses += 1
            return None
        entry = self._entries.get((src, stream, wire[2:]))
        if entry is None:
            self.misses += 1
            return None
        zone = entry.zone
        if zone is not None and zone.version != entry.zone_version:
            # The answering zone changed: this entry (and its siblings,
            # lazily) is stale.
            del self._entries[(src, stream, wire[2:])]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, src: str, stream: bool, wire: bytes,
            entry: CachedAnswer) -> None:
        entries = self._entries
        if len(entries) >= self.max_entries:
            # Deterministic FIFO eviction: drop the oldest insertion.
            del entries[next(iter(entries))]
        entries[(src, stream, wire[2:])] = entry

    # -- section templates: *plain* is read_question()'s tuple for the
    # query *wire*, *result* a shared LookupResult ----------------------

    def spliced(self, result, plain: tuple, wire: bytes,
                limit: int) -> bytes | None:
        """The response to *wire* after its id, from a template — or
        None when there is none yet, when a longer qname suffix matches
        than the template was built for, or when the message would pass
        *limit* (0: none; truncation is the full encoder's job) or the
        reach of a pointer."""
        rd, qname, _, _, end, edns = plain
        do = edns[1] if edns else None
        key = qname.folded
        for i in range(len(key) + 1):
            template = self.templates.get((result, rd, do, key[i:]))
            if template is not None:
                break
        else:
            return None
        size = end + len(template.tail)
        if size > MAX_POINTER_OFFSET or (limit and size > limit):
            return None
        for j in range(i):
            if key[j:] in template.suffixes:
                return None
        self.template_hits += 1
        return template.head + wire[12:end] + template.tail_behind(end)

    def learn(self, result, plain: tuple, wire: bytes, full: bytes,
              notes: list) -> None:
        """Keep *full*, the untruncated reference encoding of the
        response to *wire* with the writer's *notes*, as a template —
        unless one is kept or the shift argument does not hold here."""
        rd, qname, _, _, end, edns = plain
        body = [note for note in notes if note[0] >= end]
        suffixes = frozenset({name[i:] for _, name, _ in body
                              for i in range(len(name))})
        key = qname.folded
        matched = ()
        for i in range(len(key)):
            if key[i:] in suffixes:
                matched = key[i:]
                break
        store, store_key = self.templates, (
            result, rd, edns[1] if edns else None, matched)
        # Pointers must target the matched suffix (it starts at floor;
        # end - 5 is the qname's root byte) or a name behind the question.
        floor = end - 5 - len(matched) - sum(map(len, matched))
        pointers = tuple([at - end for _, _, at in body if at >= 0])
        targets = [(full[end + at] << 8 | full[end + at + 1])
                   & MAX_POINTER_OFFSET for at in pointers]
        if (store_key in store or len(full) > MAX_POINTER_OFFSET
                or full[12:end] != wire[12:end]
                or any([t < floor or end - 5 <= t < end for t in targets])):
            return
        if len(store) >= TEMPLATE_STORE:
            del store[next(iter(store))]
        store[store_key] = _Template(full[2:12], end, full[end:], pointers,
                                     suffixes, {})
        self.template_builds += 1
