"""Cache policy sweep: hit ratio and upstream load vs capacity and skew.

Wang's *Modeling and Predicting DNS Server Load* result — cache policy
is the dominant driver of recursive load — reduces to one tradeoff
curve: how does a bounded cache's hit ratio (and hence the upstream
query load it induces) degrade as capacity shrinks below the working
set, and how does query-popularity skew bend that curve?  This sweep
reproduces the qualitative shape: capacity x policy (unbounded vs
bounded LRU) x Zipf skew, reporting per cell

* hit ratio (of client lookups; the figure of merit),
* upstream fraction (misses that turn into iterative resolution —
  the server-load proxy),
* evictions and the memory-estimate gauge (what bounding buys).

The sweep drives :class:`~repro.server.cache.DnsCache` directly with a
seeded Zipf lookup stream — no simulated network — so a full grid runs
in well under a second and a tier-1 test
(``tests/experiments/test_cachepolicy.py``) can pin its arithmetic.  The
headline acceptance bar: **bounded LRU at capacity >= working-set size
stays within 5% of unbounded** while capping memory.

Run as a module for the table, or call :func:`sweep` for the cells.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.server.cache import CacheConfig, DnsCache

# The synthetic universe: names the client population ever asks for.
WORKING_SET = 512
TTL = 60.0                  # uniform record TTL (seconds)
QUERY_RATE = 400.0          # lookups/second of simulated time


@dataclass
class CachePolicyCell:
    capacity: int | None            # None = unbounded
    policy: str                     # "unbounded" or "lru"
    zipf_skew: float
    lookups: int
    hit_ratio: float
    upstream_fraction: float        # misses / lookups
    evictions: int
    memory_bytes: int
    entries: int


def _zipf_names(n: int, skew: float) -> tuple[list[Name], list[float]]:
    """*n* names and the cumulative Zipf(skew) distribution over them."""
    names = [Name.from_text(f"h{i}.cachepolicy.example.")
             for i in range(n)]
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    total = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    return names, cumulative


def run_cell(capacity: int | None, zipf_skew: float,
             lookups: int = 20_000, working_set: int = WORKING_SET,
             seed: int = 43) -> CachePolicyCell:
    """One (capacity, skew) cell: a seeded Zipf lookup stream against a
    fresh cache; every miss 'fetches upstream' and stores the answer."""
    config = CacheConfig(max_entries=capacity)
    cache = DnsCache(config)
    rng = random.Random(seed)
    names, cumulative = _zipf_names(working_set, zipf_skew)
    addresses = [f"192.0.2.{i % 254 + 1}" for i in range(working_set)]
    dt = 1.0 / QUERY_RATE
    now = 0.0
    upstream = 0
    for _ in range(lookups):
        now += dt
        pick = min(bisect.bisect_left(cumulative, rng.random()),
                   working_set - 1)
        name = names[pick]
        if cache.get_rrset(name, RRType.A, now) is None:
            upstream += 1
            cache.put_rrset(
                RRset(name, RRType.A, int(TTL), [A(addresses[pick])]),
                now)
    # In the real resolver best_nameservers/addresses_for count lookups
    # too, as get_rrset does; here the stream is pure client lookups, so
    # cache.lookups == lookups exactly (the invariant tests pin this).
    return CachePolicyCell(
        capacity=capacity,
        policy="unbounded" if capacity is None else "lru",
        zipf_skew=zipf_skew,
        lookups=cache.lookups,
        hit_ratio=cache.hits / cache.lookups if cache.lookups else 0.0,
        upstream_fraction=upstream / lookups,
        evictions=cache.evictions,
        memory_bytes=cache.memory_bytes,
        entries=cache.entry_count())


def sweep(capacities=(None, WORKING_SET, 256, 128, 64, 32),
          skews=(0.8, 1.0, 1.2),
          lookups: int = 20_000) -> list[CachePolicyCell]:
    return [run_cell(capacity, skew, lookups=lookups)
            for skew in skews for capacity in capacities]


def lru_vs_unbounded_gap(cells: list[CachePolicyCell],
                         capacity: int = WORKING_SET) -> float:
    """Worst absolute hit-ratio gap between bounded LRU at *capacity*
    and unbounded, across skews — the <= 5% acceptance bar."""
    by_skew: dict[float, dict[int | None, float]] = {}
    for cell in cells:
        by_skew.setdefault(cell.zipf_skew, {})[cell.capacity] = \
            cell.hit_ratio
    gaps = [abs(ratios[None] - ratios[capacity])
            for ratios in by_skew.values()
            if None in ratios and capacity in ratios]
    return max(gaps) if gaps else 0.0


def main() -> None:
    cells = sweep()
    print("== hit ratio / upstream load vs capacity and Zipf skew "
          f"(working set {WORKING_SET}, ttl {TTL:g}s) ==")
    for cell in cells:
        cap = "inf" if cell.capacity is None else str(cell.capacity)
        print(f"skew={cell.zipf_skew:3.1f} policy={cell.policy:<9} "
              f"capacity={cap:>4} hit={cell.hit_ratio:7.2%} "
              f"upstream={cell.upstream_fraction:7.2%} "
              f"evictions={cell.evictions:6d} "
              f"mem={cell.memory_bytes:7d}B entries={cell.entries:4d}")
    gap = lru_vs_unbounded_gap(cells)
    print(f"LRU@{WORKING_SET} vs unbounded worst hit-ratio gap: "
          f"{gap:.2%} (bar: <= 5%)")


if __name__ == "__main__":
    main()
