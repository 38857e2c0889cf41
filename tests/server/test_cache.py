"""Tests for the resolver cache."""

import pytest

from repro.check.invariants import verify_cache
from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.zone import make_soa
from repro.server.cache import CacheConfig, DnsCache

N = Name.from_text


def a_rrset(name, addr, ttl=300):
    return RRset(N(name), RRType.A, ttl, [A(addr)])


def test_put_get_round_trip():
    cache = DnsCache()
    cache.put_rrset(a_rrset("www.example.com.", "192.0.2.1"), now=0.0)
    hit = cache.get_rrset(N("www.example.com."), RRType.A, now=10.0)
    assert hit is not None
    assert hit.rdatas == [A("192.0.2.1")]


def test_ttl_decremented_on_hit():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "192.0.2.1", ttl=300), now=0.0)
    hit = cache.get_rrset(N("a.example."), RRType.A, now=100.0)
    assert hit.ttl == 200


def test_entry_expires():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "192.0.2.1", ttl=300), now=0.0)
    assert cache.get_rrset(N("a.example."), RRType.A, now=300.0) is None
    assert cache.misses == 1


def test_longer_lived_entry_kept():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "192.0.2.1", ttl=1000), now=0.0)
    cache.put_rrset(a_rrset("a.example.", "192.0.2.2", ttl=10), now=0.0)
    hit = cache.get_rrset(N("a.example."), RRType.A, now=500.0)
    assert hit is not None
    assert hit.rdatas == [A("192.0.2.1")]


def test_negative_cache_nxdomain():
    cache = DnsCache()
    soa = make_soa(N("example."), ttl=600)
    cache.put_negative(N("gone.example."), RRType.A, True, soa, now=0.0)
    entry = cache.get_negative(N("gone.example."), RRType.A, now=100.0)
    assert entry is not None and entry.nxdomain
    assert cache.get_negative(N("gone.example."), RRType.A,
                              now=10_000.0) is None


def test_negative_ttl_bounded_by_soa_minimum():
    cache = DnsCache()
    soa = make_soa(N("example."), ttl=999999)
    # make_soa minimum is 3600; entry must expire by then.
    cache.put_negative(N("x.example."), RRType.A, False, soa, now=0.0)
    assert cache.get_negative(N("x.example."), RRType.A,
                              now=3599.0) is not None
    assert cache.get_negative(N("x.example."), RRType.A,
                              now=3601.0) is None


def test_best_nameservers_walks_up():
    cache = DnsCache()
    cache.put_rrset(RRset(N("com."), RRType.NS, 3600,
                          [NS(N("a.gtld-servers.net."))]), now=0.0)
    cache.put_rrset(RRset(N("example.com."), RRType.NS, 3600,
                          [NS(N("ns1.example.com."))]), now=0.0)
    found = cache.best_nameservers(N("www.example.com."), now=0.0)
    assert found is not None
    cut, ns = found
    assert cut == N("example.com.")
    # Deeper name with no cached cut falls back to com.
    found2 = cache.best_nameservers(N("www.google.com."), now=0.0)
    assert found2[0] == N("com.")


def test_addresses_for_combines_a_and_aaaa():
    from repro.dns.rdata import AAAA
    cache = DnsCache()
    cache.put_rrset(a_rrset("ns1.example.com.", "192.0.2.53"), now=0.0)
    cache.put_rrset(RRset(N("ns1.example.com."), RRType.AAAA, 300,
                          [AAAA("2001:db8::53")]), now=0.0)
    addrs = cache.addresses_for(N("ns1.example.com."), now=0.0)
    assert "192.0.2.53" in addrs and "2001:db8::53" in addrs


def test_flush_and_expire():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "192.0.2.1", ttl=10), now=0.0)
    cache.put_rrset(a_rrset("b.example.", "192.0.2.2", ttl=1000), now=0.0)
    assert cache.entry_count() == 2
    assert cache.expire(now=100.0) == 1
    assert cache.entry_count() == 1
    cache.flush()
    assert cache.entry_count() == 0


# -- CacheConfig --------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(max_entries=0),
    dict(stale_ttl=-1.0),
    dict(prefetch_fraction=0.0),
    dict(prefetch_fraction=1.0),
    dict(prefetch_top_k=0),
    dict(prefetch_min_hits=0),
])
def test_cache_config_validates(bad):
    with pytest.raises(ValueError):
        CacheConfig(**bad)


# -- counter scheme (the PR-10 stats-asymmetry fixes) -------------------------


def test_negative_lookups_count_hits_and_misses():
    """`get_negative` used to bypass hit/miss accounting entirely,
    silently under-reporting negative traffic in the hit ratio."""
    cache = DnsCache()
    soa = make_soa(N("example."), ttl=600)
    cache.put_negative(N("gone.example."), RRType.A, True, soa, now=0.0)
    assert cache.get_negative(N("gone.example."), RRType.A,
                              now=1.0) is not None
    assert cache.get_negative(N("other.example."), RRType.A,
                              now=1.0) is None
    assert (cache.lookups, cache.hits, cache.misses,
            cache.neg_hits) == (2, 1, 1, 1)
    verify_cache(cache)


def test_ttl_zero_rrset_not_served_or_restored():
    """At exactly `expires` the remaining TTL is 0: serving it would
    re-circulate a TTL-0 RRset forever (and under the old code the
    dying entry was even re-stored on the way out)."""
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "192.0.2.1", ttl=300), now=0.0)
    assert cache.get_rrset(N("a.example."), RRType.A,
                           now=299.0) is not None
    # < 1 s remaining truncates to TTL 0: a miss, same as expired.
    assert cache.get_rrset(N("a.example."), RRType.A, now=299.5) is None
    # The expired entry is discarded, not kept for re-storing.
    assert cache.entry_count() == 0
    verify_cache(cache)


def test_hits_plus_misses_equals_lookups():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "192.0.2.1"), now=0.0)
    cache.get_rrset(N("a.example."), RRType.A, now=1.0)       # hit
    cache.get_rrset(N("b.example."), RRType.A, now=1.0)       # miss
    cache.get_negative(N("c.example."), RRType.A, now=1.0)    # miss
    assert cache.hits + cache.misses == cache.lookups == 3
    verify_cache(cache)


# -- bounded LRU --------------------------------------------------------------


def test_lru_eviction_bounds_entry_count():
    cache = DnsCache(CacheConfig(max_entries=3))
    for i in range(6):
        cache.put_rrset(a_rrset(f"h{i}.example.", f"10.0.0.{i + 1}"),
                        now=0.0)
    assert cache.entry_count() == 3
    assert cache.evictions == 3
    # The three most recently stored survive.
    for i in (3, 4, 5):
        assert cache.get_rrset(N(f"h{i}.example."), RRType.A,
                               now=1.0) is not None
    verify_cache(cache)


def test_lru_touch_on_hit_protects_hot_entries():
    cache = DnsCache(CacheConfig(max_entries=2))
    cache.put_rrset(a_rrset("hot.example.", "10.0.0.1"), now=0.0)
    cache.put_rrset(a_rrset("cold.example.", "10.0.0.2"), now=0.0)
    # Touch `hot`, then insert a third entry: `cold` must be evicted.
    assert cache.get_rrset(N("hot.example."), RRType.A,
                           now=1.0) is not None
    cache.put_rrset(a_rrset("new.example.", "10.0.0.3"), now=1.0)
    assert cache.get_rrset(N("hot.example."), RRType.A,
                           now=2.0) is not None
    assert cache.get_rrset(N("cold.example."), RRType.A, now=2.0) is None
    verify_cache(cache)


def test_memory_estimate_tracks_entries():
    cache = DnsCache(CacheConfig(max_entries=2))
    assert cache.memory_bytes == 0
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1"), now=0.0)
    one = cache.memory_bytes
    assert one > 0
    cache.put_rrset(a_rrset("b.example.", "10.0.0.2"), now=0.0)
    assert cache.memory_bytes > one
    cache.put_rrset(a_rrset("c.example.", "10.0.0.3"), now=0.0)
    assert cache.entry_count() == 2
    cache.flush()
    assert cache.memory_bytes == 0
    verify_cache(cache)


# -- expiry index -------------------------------------------------------------


def test_reclaim_drops_only_due_entries():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=10), now=0.0)
    cache.put_rrset(a_rrset("b.example.", "10.0.0.2", ttl=20), now=0.0)
    cache.put_rrset(a_rrset("c.example.", "10.0.0.3", ttl=30), now=0.0)
    assert cache.reclaim(15.0) == 1
    assert cache.reclaim(25.0) == 1
    assert cache.reclaim(25.0) == 0          # idempotent
    assert cache.entry_count() == 1
    assert cache.expired == 2
    verify_cache(cache)


def test_reclaim_skips_replaced_entries():
    """A longer-lived replacement leaves a stale reference in the old
    expiry bucket; draining that bucket must not kill the new entry."""
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=10), now=0.0)
    cache.put_rrset(a_rrset("a.example.", "10.0.0.2", ttl=500), now=0.0)
    assert cache.reclaim(20.0) == 0
    assert cache.get_rrset(N("a.example."), RRType.A,
                           now=20.0) is not None
    verify_cache(cache)


def test_put_reclaims_incrementally():
    cache = DnsCache()
    cache.put_rrset(a_rrset("old.example.", "10.0.0.1", ttl=5), now=0.0)
    cache.put_rrset(a_rrset("new.example.", "10.0.0.2", ttl=500),
                    now=100.0)
    # The write at t=100 swept the t=5 expiry without a full scan.
    assert cache.entry_count() == 1
    assert cache.expired == 1
    verify_cache(cache)


# -- serve-stale (RFC 8767) ---------------------------------------------------


def test_stale_entry_kept_and_served_within_window():
    cache = DnsCache(CacheConfig(serve_stale=True, stale_ttl=600.0))
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=300), now=0.0)
    # Expired: a regular lookup misses but the entry survives.
    assert cache.get_rrset(N("a.example."), RRType.A, now=400.0) is None
    stale = cache.get_stale(N("a.example."), RRType.A, now=400.0)
    assert stale is not None
    assert stale.ttl == 30
    assert cache.stale_served == 1
    verify_cache(cache)


def test_stale_not_served_when_fresh_or_too_old():
    cache = DnsCache(CacheConfig(serve_stale=True, stale_ttl=600.0))
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=300), now=0.0)
    assert cache.get_stale(N("a.example."), RRType.A, now=100.0) is None
    assert cache.get_stale(N("a.example."), RRType.A, now=901.0) is None
    assert cache.stale_served == 0


def test_stale_disabled_by_default():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=300), now=0.0)
    assert cache.get_stale(N("a.example."), RRType.A, now=400.0) is None


def test_stale_entry_reclaimed_after_window():
    cache = DnsCache(CacheConfig(serve_stale=True, stale_ttl=100.0))
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=10), now=0.0)
    assert cache.reclaim(50.0) == 0      # within the stale window
    assert cache.reclaim(111.0) == 1     # past expiry + stale_ttl
    verify_cache(cache)


# -- refresh-ahead prefetch ---------------------------------------------------


def prefetch_cache(**kw):
    defaults = dict(prefetch=True, prefetch_fraction=0.5,
                    prefetch_min_hits=2, prefetch_top_k=4)
    defaults.update(kw)
    cache = DnsCache(CacheConfig(**defaults))
    fired = []
    cache.on_refresh = lambda name, rtype: fired.append((name, rtype))
    return cache, fired


def test_prefetch_fires_for_hot_entry_near_expiry():
    cache, fired = prefetch_cache()
    cache.put_rrset(a_rrset("hot.example.", "10.0.0.1", ttl=100), now=0.0)
    cache.get_rrset(N("hot.example."), RRType.A, now=10.0)
    assert fired == []                   # hot but not near expiry
    cache.get_rrset(N("hot.example."), RRType.A, now=60.0)
    assert fired == [(N("hot.example."), RRType.A)]
    assert cache.prefetches == 1
    verify_cache(cache)


def test_prefetch_needs_min_hits():
    cache, fired = prefetch_cache(prefetch_min_hits=3)
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=100), now=0.0)
    cache.get_rrset(N("a.example."), RRType.A, now=60.0)
    cache.get_rrset(N("a.example."), RRType.A, now=61.0)
    assert fired == []                   # 2 hits < min_hits=3
    cache.get_rrset(N("a.example."), RRType.A, now=62.0)
    assert len(fired) == 1


def test_prefetch_not_retriggered_while_refresh_in_flight():
    cache, fired = prefetch_cache()
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=100), now=0.0)
    cache.get_rrset(N("a.example."), RRType.A, now=60.0)
    cache.get_rrset(N("a.example."), RRType.A, now=65.0)
    assert len(fired) == 1               # second hit: refresh pending
    # The refresh stores a fresh answer; later staleness re-arms it.
    cache.put_rrset(a_rrset("a.example.", "10.0.0.2", ttl=100), now=66.0)
    cache.get_rrset(N("a.example."), RRType.A, now=130.0)
    assert len(fired) == 2


def test_failed_refresh_rearms_via_refresh_done():
    cache, fired = prefetch_cache()
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=100), now=0.0)
    cache.get_rrset(N("a.example."), RRType.A, now=10.0)
    cache.get_rrset(N("a.example."), RRType.A, now=60.0)
    assert len(fired) == 1
    # The resolver reports the (failed) refresh finished: no store
    # happened, but the mark must clear so prefetch can fire again.
    cache.refresh_done(N("a.example."), RRType.A)
    cache.get_rrset(N("a.example."), RRType.A, now=65.0)
    assert len(fired) == 2


def test_prefetch_top_k_prefers_hotter_entries():
    cache, fired = prefetch_cache(prefetch_top_k=1, prefetch_min_hits=1)
    cache.put_rrset(a_rrset("hot.example.", "10.0.0.1", ttl=100), now=0.0)
    cache.put_rrset(a_rrset("warm.example.", "10.0.0.2", ttl=100),
                    now=0.0)
    for t in (1.0, 2.0, 3.0):
        cache.get_rrset(N("hot.example."), RRType.A, now=t)
    # `warm` (1 hit) cannot displace `hot` (3 hits) from the size-1
    # hot set, so only `hot` prefetches near expiry.
    cache.get_rrset(N("warm.example."), RRType.A, now=60.0)
    cache.get_rrset(N("hot.example."), RRType.A, now=61.0)
    assert fired == [(N("hot.example."), RRType.A)]


def test_prefetch_disabled_by_default():
    cache = DnsCache()
    fired = []
    cache.on_refresh = lambda name, rtype: fired.append((name, rtype))
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1", ttl=100), now=0.0)
    for t in (50.0, 60.0, 70.0, 80.0):
        cache.get_rrset(N("a.example."), RRType.A, now=t)
    assert fired == []
    assert cache.prefetches == 0


# -- counters block -----------------------------------------------------------


def test_counters_block_shape():
    cache = DnsCache()
    cache.put_rrset(a_rrset("a.example.", "10.0.0.1"), now=0.0)
    cache.get_rrset(N("a.example."), RRType.A, now=1.0)
    block = cache.counters()
    assert block["lookups"] == block["hits"] + block["misses"] == 1
    assert set(block) == {"lookups", "hits", "misses", "neg_hits",
                          "evictions", "stale_served", "prefetches",
                          "expired", "entries", "memory_bytes"}
