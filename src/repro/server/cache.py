"""Resolver cache: bounded, observable, TTL-indexed (docs/RECURSIVE.md).

Caching is the behaviour LDplayer exists to capture faithfully: the paper
stresses that DNS performance questions "are challenging because of
details of how caching and optimizations interact across levels of the
DNS hierarchy" (§1).  The recursive resolver stores individual RRsets
(positive entries) and NXDOMAIN/NODATA outcomes (negative entries, RFC
2308, TTL-bounded by the SOA minimum).

The cache is production-shaped, configured by :class:`CacheConfig`:

* **bounded LRU** — ``max_entries`` caps positive + negative entries in
  one LRU order (dict insertion order, touch-on-hit); inserting past
  capacity evicts the least recently used entry;
* **bucketed expiry index** — entries are indexed by reclaim deadline
  into coarse time buckets (a dict of per-tick key lists plus a heap
  of occupied ticks: O(1) insert into an existing bucket, drain in
  tick order), so expired entries are reclaimed incrementally on
  writes instead of by full scans;
* **serve-stale** (RFC 8767) — with ``serve_stale`` expired positive
  entries are retained for ``stale_ttl`` seconds and can be served (at
  TTL :data:`STALE_ANSWER_TTL`) when every upstream has failed;
* **refresh-ahead prefetch** — hot entries (top-``prefetch_top_k`` by
  hit count, at least ``prefetch_min_hits`` hits) trigger the
  ``on_refresh`` hook when a hit finds less than ``prefetch_fraction``
  of the original TTL remaining, letting the resolver refresh before
  expiry instead of eating a cold miss;
* **full counters** — ``lookups``/``hits``/``misses``/``neg_hits``/
  ``evictions``/``stale_served``/``prefetches``/``expired`` plus an
  incrementally maintained ``memory_bytes`` estimate, declared once
  (``COUNTERS``) as the ``server.cache_*`` rows of every report and
  checked by :func:`repro.check.invariants.verify_cache`
  (``hits + misses == lookups``, entries never exceed capacity).

The default config is unbounded, no stale, no prefetch
(tests/server/test_cache.py::test_stale_disabled_by_default,
::test_prefetch_disabled_by_default).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rrset import RRset
from repro.obs.report import counter_state, zero_counters

# Fixed per-entry bookkeeping estimate (dict slot, entry object, index
# reference) added to the wire-ish payload size in `memory_bytes`.
ENTRY_OVERHEAD = 64

# Expiry-index geometry: one bucket per EXPIRY_GRANULARITY seconds of
# reclaim deadline.  Coarse on purpose — the index only has to beat a
# full scan, not order individual expiries.
EXPIRY_GRANULARITY = 1.0

# TTL stamped on served stale answers (RFC 8767 §4 recommends 30 s).
STALE_ANSWER_TTL = 30


@dataclass(frozen=True)
class CacheConfig:
    """Resolver-cache policy knobs (docs/RECURSIVE.md).

    Defaults: unbounded, no serve-stale, no prefetch."""

    max_entries: int | None = None      # None = unbounded
    serve_stale: bool = False           # RFC 8767
    stale_ttl: float = 3600.0           # how long past expiry to keep
    prefetch: bool = False              # refresh-ahead for hot entries
    prefetch_fraction: float = 0.1      # refresh at <= this TTL fraction
    prefetch_top_k: int = 64            # hot-set size
    prefetch_min_hits: int = 3          # hits before an entry is hot

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got "
                f"{self.max_entries}")
        if self.stale_ttl < 0:
            raise ValueError(
                f"stale_ttl must be >= 0, got {self.stale_ttl}")
        if not 0 < self.prefetch_fraction < 1:
            raise ValueError(
                f"prefetch_fraction must be in (0, 1), got "
                f"{self.prefetch_fraction}")
        if self.prefetch_top_k < 1:
            raise ValueError(
                f"prefetch_top_k must be >= 1, got "
                f"{self.prefetch_top_k}")
        if self.prefetch_min_hits < 1:
            raise ValueError(
                f"prefetch_min_hits must be >= 1, got "
                f"{self.prefetch_min_hits}")


@dataclass
class NegativeEntry:
    nxdomain: bool          # False => NODATA
    soa: RRset | None
    expires: float
    size: int = 0
    hits: int = 0


class _PositiveEntry:
    __slots__ = ("rrset", "expires", "stored_ttl", "size", "hits")

    def __init__(self, rrset: RRset, expires: float, size: int):
        self.rrset = rrset
        self.expires = expires
        self.stored_ttl = rrset.ttl
        self.size = size
        self.hits = 0


def _rrset_size(rrset: RRset) -> int:
    size = rrset.name.wire_length()
    for rdata in rrset.rdatas:
        size += rdata.wire_size() + 16
    return size


_POS = 0
_NEG = 1
_NS, _A, _AAAA = int(RRType.NS), int(RRType.A), int(RRType.AAAA)


class DnsCache:
    """Bounded TTL cache keyed on (name, type); see the module doc."""

    # Declared counters (repro.obs.report): attribute -> report name;
    # ``counters()`` is the same set as a dict.  hits + misses ==
    # lookups always (verify_cache).
    COUNTERS = {
        "lookups": "server.cache_lookups",
        "hits": "server.cache_hits",
        "misses": "server.cache_misses",
        "neg_hits": "server.cache_neg_hits",       # subset of hits
        "evictions": "server.cache_evictions",
        "stale_served": "server.cache_stale_served",
        "prefetches": "server.cache_prefetches",
        "expired": "server.cache_expired",
        "entries": "server.cache_entries",
        "memory_bytes": "server.cache_memory_bytes",
    }

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        # One insertion-ordered dict holds positive and negative
        # entries: key = (kind, name, rtype).  Dict order IS the LRU
        # order (hits re-insert at the end when the cache is bounded).
        self._entries: dict[tuple[int, Name, int],
                            _PositiveEntry | NegativeEntry] = {}
        # Expiry index: reclaim-deadline tick -> keys, and a heap of the
        # occupied ticks so reclaim drains them in order.
        self._buckets: dict[int, list[tuple[int, Name, int]]] = {}
        self._tick_heap: list[int] = []
        # Refresh-ahead state: hot-set (key -> hits) and in-flight
        # refresh marks, both discarded with their entries.
        self._hot: dict[tuple[int, Name, int], int] = {}
        self._refreshing: set[tuple[int, Name, int]] = set()
        # Called as on_refresh(name, rtype) when a hot entry wants a
        # refresh-ahead; the resolver installs its prefetch driver here.
        self.on_refresh: Callable[[Name, int], None] | None = None
        zero_counters(self)

    # -- internal plumbing -------------------------------------------------

    def _live(self, key, now: float) -> _PositiveEntry | None:
        """The fresh positive entry under *key*, counted as one lookup:
        a hit touches it (LRU) and may ask for a refresh-ahead; a miss
        drops an expired entry unless serve-stale keeps it.  Callers
        only read the entry."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry.__class__ is not _PositiveEntry:
            self.misses += 1
            return None
        config = self.config
        if entry.expires - now < 1:
            # Expired (or would serve TTL 0, which real resolvers
            # refuse to re-circulate): a miss.  Without serve-stale
            # the entry dies now; with it, it lives on for get_stale.
            if not config.serve_stale:
                self._discard(key, entry, None)
            self.misses += 1
            return None
        self.hits += 1
        entry.hits += 1
        if config.max_entries is not None:
            del self._entries[key]          # touch: to the LRU tail
            self._entries[key] = entry
        if config.prefetch:
            self._maybe_prefetch(key, entry, now)
        return entry

    def _deadline(self, kind: int, expires: float) -> float:
        if kind == _POS and self.config.serve_stale:
            return expires + self.config.stale_ttl
        return expires

    def _index(self, key, expires: float) -> None:
        tick = int(self._deadline(key[0], expires)
                   / EXPIRY_GRANULARITY) + 1
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [key]
            heapq.heappush(self._tick_heap, tick)
        else:
            bucket.append(key)

    def _discard(self, key, entry, counter: str | None) -> None:
        """Remove *key* (already looked up as *entry*) and its
        prefetch state; index references die lazily at sweep time."""
        del self._entries[key]
        self.memory_bytes -= entry.size
        self._hot.pop(key, None)
        self._refreshing.discard(key)
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)

    def reclaim(self, now: float) -> int:
        """Drain every expiry bucket whose deadline has passed,
        dropping dead entries — incremental, never a full scan."""
        now_tick = int(now / EXPIRY_GRANULARITY)
        removed = 0
        heap = self._tick_heap
        while heap and heap[0] <= now_tick:
            tick = heapq.heappop(heap)
            for key in self._buckets.pop(tick, ()):
                entry = self._entries.get(key)
                if entry is None:
                    continue            # evicted or replaced, ref stale
                deadline = self._deadline(key[0], entry.expires)
                if deadline <= now:
                    self._discard(key, entry, "expired")
                    removed += 1
                elif int(deadline / EXPIRY_GRANULARITY) + 1 > tick:
                    # Replaced with a longer-lived entry: re-index.
                    self._index(key, entry.expires)
        return removed

    def _store(self, key, entry) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.memory_bytes -= old.size
            entry.hits = old.hits
        self._entries[key] = entry
        self.memory_bytes += entry.size
        self._index(key, entry.expires)
        self._refreshing.discard(key)
        limit = self.config.max_entries
        if limit is not None:
            while len(self._entries) > limit:
                victim = next(iter(self._entries))
                self._discard(victim, self._entries[victim],
                              "evictions")

    def _maybe_prefetch(self, key, entry, now: float) -> None:
        """Refresh-ahead (``config.prefetch`` only): a hit on a hot,
        nearly expired entry asks the resolver to refresh it before it
        goes cold."""
        config = self.config
        if self.on_refresh is None:
            return
        hits = entry.hits
        if hits < config.prefetch_min_hits:
            return
        hot = self._hot
        if key in hot:
            hot[key] = hits
        elif len(hot) < config.prefetch_top_k:
            hot[key] = hits
        else:
            coldest = min(hot, key=hot.__getitem__)
            if hot[coldest] >= hits:
                return                  # not top-k hot; no refresh
            del hot[coldest]
            hot[key] = hits
        remaining = entry.expires - now
        if remaining > config.prefetch_fraction * max(
                entry.stored_ttl, 1):
            return
        if key in self._refreshing:
            return
        self._refreshing.add(key)
        self.prefetches += 1
        self.on_refresh(key[1], key[2])

    # -- positive ---------------------------------------------------------

    def put_rrset(self, rrset: RRset, now: float) -> None:
        heap = self._tick_heap
        if heap and heap[0] <= now / EXPIRY_GRANULARITY:
            self.reclaim(now)           # an expiry bucket is due
        expires = now + rrset.ttl
        key = (_POS, rrset.name, rrset.rtype)
        existing = self._entries.get(key)
        if isinstance(existing, _PositiveEntry) \
                and existing.expires > expires:
            return  # keep the longer-lived entry
        self._store(key, _PositiveEntry(
            rrset, expires, ENTRY_OVERHEAD + _rrset_size(rrset)))

    def get_rrset(self, name: Name, rtype: int, now: float) -> RRset | None:
        """A copy of the fresh (*name*, *rtype*) RRset at its remaining
        TTL, or None."""
        entry = self._live((_POS, name, int(rtype)), now)
        if entry is None:
            return None
        return entry.rrset.copy(ttl=int(entry.expires - now))

    def get_stale(self, name: Name, rtype: int,
                  now: float) -> RRset | None:
        """RFC 8767: an expired-but-retained positive entry, served at
        :data:`STALE_ANSWER_TTL` — only meaningful under ``serve_stale``
        and only called when every upstream has failed.  Not a lookup:
        the miss that preceded it is already counted."""
        if not self.config.serve_stale:
            return None
        key = (_POS, name, int(rtype))
        entry = self._entries.get(key)
        if not isinstance(entry, _PositiveEntry):
            return None
        if entry.expires > now:
            return None                 # still fresh: not a stale serve
        if entry.expires + self.config.stale_ttl <= now:
            return None
        self.stale_served += 1
        return entry.rrset.copy(ttl=STALE_ANSWER_TTL)

    # -- negative ------------------------------------------------------------

    def put_negative(self, name: Name, rtype: int, nxdomain: bool,
                     soa: RRset | None, now: float) -> None:
        heap = self._tick_heap
        if heap and heap[0] <= now / EXPIRY_GRANULARITY:
            self.reclaim(now)           # an expiry bucket is due
        ttl = 0
        if soa is not None and soa.rdatas:
            ttl = min(soa.ttl, soa.rdatas[0].minimum)
        if ttl <= 0:
            return
        size = ENTRY_OVERHEAD + name.wire_length() \
            + (_rrset_size(soa) if soa is not None else 0)
        self._store((_NEG, name, int(rtype)), NegativeEntry(
            nxdomain=nxdomain, soa=soa, expires=now + ttl, size=size))

    def get_negative(self, name: Name, rtype: int,
                     now: float) -> NegativeEntry | None:
        key = (_NEG, name, int(rtype))
        self.lookups += 1
        entry = self._entries.get(key)
        if entry.__class__ is not NegativeEntry or entry.expires <= now:
            if entry.__class__ is NegativeEntry:
                self._discard(key, entry, None)
            self.misses += 1
            return None
        self.hits += 1
        self.neg_hits += 1
        entry.hits += 1
        if self.config.max_entries is not None:
            del self._entries[key]          # touch: to the LRU tail
            self._entries[key] = entry
        return entry

    # -- delegation walking ----------------------------------------------------

    def best_nameservers(self, qname: Name, now: float) \
            -> tuple[Name, RRset] | None:
        """The deepest cached NS RRset enclosing *qname*: the resolver's
        starting rung on the hierarchy ladder.  The RRset is the cache's
        own, at its stored TTL — read its targets, never change it."""
        for ancestor in qname.ancestors():
            entry = self._live((_POS, ancestor, _NS), now)
            if entry is not None:
                return ancestor, entry.rrset
        return None

    def addresses_for(self, server: Name, now: float) -> list[str]:
        """The fresh A then AAAA addresses cached for *server*."""
        addrs = []
        for key in ((_POS, server, _A), (_POS, server, _AAAA)):
            entry = self._live(key, now)
            if entry is not None:
                addrs += [rdata.address for rdata in entry.rrset.rdatas]
        return addrs

    # -- maintenance ---------------------------------------------------------------

    def refresh_done(self, name: Name, rtype: int) -> None:
        """Resolver hook: a resolution for (name, rtype) ended.  Clears
        any refresh-ahead mark so a *failed* refresh (which never calls
        ``_store``) cannot block future prefetches of the entry."""
        self._refreshing.discard((_POS, name, int(rtype)))

    def flush(self) -> None:
        self._entries.clear()
        self._buckets.clear()
        self._tick_heap.clear()
        self._hot.clear()
        self._refreshing.clear()
        self.memory_bytes = 0

    def entry_count(self) -> int:
        return len(self._entries)

    entries = property(entry_count)

    def expire(self, now: float) -> int:
        """Drop expired entries; returns how many were removed."""
        return self.reclaim(now)

    def counters(self) -> dict[str, int]:
        """The accounting block the Rec-17 golden pins: a fresh dict
        of the declared counters (read-only; the attributes count)."""
        return counter_state(self)
