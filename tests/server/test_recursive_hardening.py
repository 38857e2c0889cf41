"""Regression tests for the PR-10 resolver correctness fixes:
msg-id wrap, stub truncation (RFC 6891), multi-NS glueless referrals,
CNAME-chain assembly, negative-cache TTLs, and serve-stale/prefetch
wiring through the resolver."""

import pytest

from repro.dns.constants import Flag, Rcode, RRType
from repro.dns.message import Edns, Message, Question
from repro.dns.name import Name
from repro.dns.rdata import A, CNAME, NS
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.netsim import (LengthPrefixFramer, LinkParams, Simulator,
                          frame_message)
from repro.server import (AuthoritativeServer, CacheConfig,
                          RecursiveResolver, RootHint)
from repro.server.recursive import MAX_TRIES, QUERY_TIMEOUT

from tests.server.helpers import (EXAMPLE_NS_ADDR, ROOT_NS_ADDR,
                                  COM_NS_ADDR, make_com_zone,
                                  make_example_zone, make_root_zone)

N = Name.from_text


def hierarchy_world(cache=None):
    """Root -> com -> example.com on separate hosts (the ground-truth
    topology of test_recursive.py), with an optional cache config."""
    sim = Simulator()
    AuthoritativeServer(sim.add_host("root-ns", [ROOT_NS_ADDR],
                                     LinkParams()),
                        zones=[make_root_zone()])
    AuthoritativeServer(sim.add_host("com-ns", [COM_NS_ADDR],
                                     LinkParams()),
                        zones=[make_com_zone()])
    AuthoritativeServer(sim.add_host("example-ns", [EXAMPLE_NS_ADDR],
                                     LinkParams()),
                        zones=[make_example_zone()])
    rec_host = sim.add_host("recursive", ["10.1.0.2"], LinkParams())
    resolver = RecursiveResolver(
        rec_host, [RootHint(N("a.root-servers.net."), ROOT_NS_ADDR)],
        cache=cache)
    return sim, resolver


def resolve(sim, resolver, qname, qtype=RRType.A):
    results = []
    resolver.resolve(N(qname), qtype, results.append)
    sim.run_until_idle()
    assert results, "resolution never completed"
    return results[0]


# -- msg-id wrap (satellite a) ------------------------------------------------


def test_msg_id_allocation_skips_pending_ids():
    """After the id space wraps, the next id must not overwrite a
    still-pending upstream exchange (the pre-PR-10 bug stranded the
    old resolution and let its timer kill the new one)."""
    sim, resolver = hierarchy_world()
    resolver._id_space = 4
    resolver._pending = {0: object(), 1: object(), 2: object()}
    assert resolver._next_msg_id() == 3
    # Counter has moved past 3; the next call must wrap and still
    # land on the only free id.
    assert resolver._next_msg_id() == 3


def test_msg_id_exhaustion_returns_none():
    sim, resolver = hierarchy_world()
    resolver._id_space = 2
    resolver._pending = {0: object(), 1: object()}
    assert resolver._next_msg_id() is None


def test_msg_id_exhaustion_fails_like_timeout():
    """With every id busy, a new upstream attempt must fail cleanly
    (retry/SERVFAIL) instead of corrupting the pending map."""
    sim = Simulator()
    rec_host = sim.add_host("recursive", ["10.1.0.2"], LinkParams())
    resolver = RecursiveResolver(
        rec_host, [RootHint(N("a.root-servers.net."), "203.0.113.250")])
    resolver._id_space = 1
    results = []
    resolver.resolve(N("a.example."), RRType.A, results.append)
    resolver.resolve(N("b.example."), RRType.A, results.append)
    sim.run_until_idle()
    assert len(results) == 2
    assert all(r.rcode == Rcode.SERVFAIL for r in results)
    assert not resolver._pending


def test_full_walk_under_tiny_id_space():
    """A forced-small id space wraps several times across one cold
    hierarchy walk and repeated queries; every answer stays correct."""
    sim, resolver = hierarchy_world()
    resolver._id_space = 2
    for _ in range(3):
        result = resolve(sim, resolver, "www.example.com.")
        assert result.rcode == Rcode.NOERROR
    assert resolver.stats["servfail"] == 0
    assert not resolver._pending


def test_coalescing_under_wrapped_id_space():
    sim, resolver = hierarchy_world()
    resolver._id_space = 2
    results = []
    resolver.resolve(N("www.example.com."), RRType.A, results.append)
    resolver.resolve(N("www.example.com."), RRType.A, results.append)
    sim.run_until_idle()
    assert len(results) == 2
    assert results[0].rcode == results[1].rcode == Rcode.NOERROR
    assert resolver.stats["coalesced"] == 1
    assert resolver.stats["upstream_queries"] == 3  # one walk


# -- stub truncation, RFC 6891 §6.2.5 (satellite b) ---------------------------

BIG_ADDR = "198.41.0.4"


def big_answer_world():
    """One root server whose zone holds a >512-byte answer."""
    zone = Zone(N("."))
    zone.add(make_soa(N(".")))
    zone.add(RRset(N("."), RRType.NS, 3600,
                   [NS(N("a.root-servers.net."))]))
    zone.add(RRset(N("a.root-servers.net."), RRType.A, 3600,
                   [A(BIG_ADDR)]))
    zone.add(RRset(N("big.example."), RRType.A, 60,
                   [A(f"10.7.{i // 250}.{i % 250 + 1}")
                    for i in range(60)]))
    sim = Simulator()
    AuthoritativeServer(sim.add_host("root", [BIG_ADDR], LinkParams()),
                        zones=[zone])
    rec_host = sim.add_host("recursive", ["10.1.0.2"], LinkParams())
    resolver = RecursiveResolver(
        rec_host, [RootHint(N("a.root-servers.net."), BIG_ADDR)])
    stub = sim.add_host("stub", ["10.1.0.3"], LinkParams())
    return sim, resolver, stub


def stub_ask(sim, stub, qname, edns=None):
    raw: list[bytes] = []
    sock = stub.udp_socket()
    sock.on_datagram = lambda data, src, sport: raw.append(data)
    query = Message.make_query(N(qname), RRType.A, msg_id=77, rd=True,
                               edns=edns)
    sock.sendto(query.to_wire(), "10.1.0.2", 53)
    sim.run_until_idle()
    assert raw, "no response from recursive"
    return raw[0]


def test_no_edns_stub_clamped_to_512_with_tc():
    sim, resolver, stub = big_answer_world()
    wire = stub_ask(sim, stub, "big.example.")
    assert len(wire) <= 512
    response = Message.from_wire(wire)
    assert response.flags & Flag.TC
    assert response.answer == []


def test_edns_stub_gets_full_answer():
    sim, resolver, stub = big_answer_world()
    wire = stub_ask(sim, stub, "big.example.",
                    edns=Edns(payload=4096))
    assert len(wire) > 512
    response = Message.from_wire(wire)
    assert not response.flags & Flag.TC
    assert len(response.answer[0]) == 60


def test_small_answer_unaffected_by_clamp():
    sim, resolver = hierarchy_world()
    stub = sim.add_host("stub", ["10.1.0.3"], LinkParams())
    wire = stub_ask(sim, stub, "www.example.com.")
    response = Message.from_wire(wire)
    assert not response.flags & Flag.TC
    assert response.rcode == Rcode.NOERROR
    assert response.answer


# -- multi-NS glueless referrals (satellite d) --------------------------------

LIVE_NS_ADDR = "203.0.113.10"
MULTI_NS_ADDR = "203.0.113.20"


def glueless_world(ns_targets):
    """Root delegates `multi.` to *ns_targets* with no glue; `live.`
    is a normally-delegated zone holding ns2.live.'s address, and a
    separate server serves `multi.` itself."""
    root = Zone(N("."))
    root.add(make_soa(N(".")))
    root.add(RRset(N("."), RRType.NS, 3600,
                   [NS(N("a.root-servers.net."))]))
    root.add(RRset(N("a.root-servers.net."), RRType.A, 3600,
                   [A(ROOT_NS_ADDR)]))
    root.add(RRset(N("multi."), RRType.NS, 3600,
                   [NS(N(t)) for t in ns_targets]))
    root.add(RRset(N("live."), RRType.NS, 3600, [NS(N("ns.live."))]))
    root.add(RRset(N("ns.live."), RRType.A, 3600, [A(LIVE_NS_ADDR)]))

    live = Zone(N("live."))
    live.add(make_soa(N("live.")))
    live.add(RRset(N("live."), RRType.NS, 3600, [NS(N("ns.live."))]))
    live.add(RRset(N("ns.live."), RRType.A, 3600, [A(LIVE_NS_ADDR)]))
    live.add(RRset(N("ns2.live."), RRType.A, 3600, [A(MULTI_NS_ADDR)]))

    multi = Zone(N("multi."))
    multi.add(make_soa(N("multi.")))
    multi.add(RRset(N("multi."), RRType.NS, 3600, [NS(N("ns2.live."))]))
    multi.add(RRset(N("www.multi."), RRType.A, 60, [A("10.99.0.1")]))

    sim = Simulator()
    AuthoritativeServer(sim.add_host("root", [ROOT_NS_ADDR],
                                     LinkParams()), zones=[root])
    AuthoritativeServer(sim.add_host("live-ns", [LIVE_NS_ADDR],
                                     LinkParams()), zones=[live])
    AuthoritativeServer(sim.add_host("multi-ns", [MULTI_NS_ADDR],
                                     LinkParams()), zones=[multi])
    rec_host = sim.add_host("recursive", ["10.1.0.2"], LinkParams())
    resolver = RecursiveResolver(
        rec_host, [RootHint(N("a.root-servers.net."), ROOT_NS_ADDR)])
    return sim, resolver


def test_glueless_fallback_to_second_ns():
    """First NS name is unresolvable; pre-PR-10 the resolver gave up
    (only rdatas[0] was ever chased) despite a working second NS."""
    sim, resolver = glueless_world(["ns.nowhere.", "ns2.live."])
    result = resolve(sim, resolver, "www.multi.")
    assert result.rcode == Rcode.NOERROR
    assert result.answer[-1].rdatas[0].address == "10.99.0.1"


def test_glueless_first_ns_works_without_fallback():
    sim, resolver = glueless_world(["ns2.live.", "ns.nowhere."])
    result = resolve(sim, resolver, "www.multi.")
    assert result.rcode == Rcode.NOERROR
    assert resolver.stats["servfail"] == 0


def test_glueless_all_candidates_dead_servfails():
    sim, resolver = glueless_world(["ns.nowhere.", "ns.also-nowhere."])
    result = resolve(sim, resolver, "www.multi.")
    assert result.rcode == Rcode.SERVFAIL


def test_glue_cycle_with_live_sibling_recovers():
    """One NS inside the undelegated zone (a glue cycle) plus one
    resolvable sibling: the cycle is skipped, not fatal."""
    sim, resolver = glueless_world(["ns.multi.", "ns2.live."])
    result = resolve(sim, resolver, "www.multi.")
    assert result.rcode == Rcode.NOERROR


def test_glue_cycle_alone_servfails():
    sim, resolver = glueless_world(["ns.multi."])
    result = resolve(sim, resolver, "www.multi.")
    assert result.rcode == Rcode.SERVFAIL


# -- CNAME chain assembly (satellite e) ---------------------------------------


def test_cname_chain_assembled_from_cache():
    """Chain links resolved at different times: the final answer still
    carries the full CNAME chain plus the target RRset, in order."""
    sim, resolver = hierarchy_world()
    resolve(sim, resolver, "www.example.com.")       # warm the target
    result = resolve(sim, resolver, "alias.example.com.")
    assert result.rcode == Rcode.NOERROR
    types = [r.rtype for r in result.answer]
    assert types.index(RRType.CNAME) < types.index(RRType.A)
    assert result.answer[-1].rdatas[0].address == "93.184.216.34"


def test_cname_chain_assembled_cross_query():
    sim, resolver = hierarchy_world()
    first = resolve(sim, resolver, "alias.example.com.")
    upstream = resolver.stats["upstream_queries"]
    again = resolve(sim, resolver, "alias.example.com.")
    assert resolver.stats["upstream_queries"] == upstream  # all cached
    assert [r.rtype for r in again.answer] == \
        [r.rtype for r in first.answer]


# -- negative caching TTLs (satellite e) --------------------------------------


def test_nxdomain_negative_cache_expires():
    sim, resolver = hierarchy_world()
    resolve(sim, resolver, "missing.example.com.")
    before = resolver.stats["upstream_queries"]
    assert resolve(sim, resolver,
                   "missing.example.com.").rcode == Rcode.NXDOMAIN
    assert resolver.stats["upstream_queries"] == before
    # Advance past the SOA-minimum negative TTL (make_soa: 3600 s).
    sim.scheduler.run(until=sim.scheduler.now + 3601.0)
    resolve(sim, resolver, "missing.example.com.")
    assert resolver.stats["upstream_queries"] > before


def test_nodata_negative_cached_with_ttl():
    sim, resolver = hierarchy_world()
    result = resolve(sim, resolver, "www.example.com.", RRType.TXT)
    assert result.rcode == Rcode.NOERROR and not result.answer
    before = resolver.stats["upstream_queries"]
    resolve(sim, resolver, "www.example.com.", RRType.TXT)
    assert resolver.stats["upstream_queries"] == before   # cached
    sim.scheduler.run(until=sim.scheduler.now + 3601.0)
    resolve(sim, resolver, "www.example.com.", RRType.TXT)
    assert resolver.stats["upstream_queries"] > before    # expired


# -- serve-stale through the resolver (tentpole wiring) -----------------------


def test_stale_answer_served_when_upstreams_die():
    cache = CacheConfig(serve_stale=True, stale_ttl=3600.0)
    sim, resolver = hierarchy_world(cache=cache)
    resolve(sim, resolver, "www.example.com.")
    # Kill the whole hierarchy, expire the answer, ask again.
    for addr in (ROOT_NS_ADDR, COM_NS_ADDR, EXAMPLE_NS_ADDR):
        sim.network.unregister_address(addr)
    sim.scheduler.run(until=sim.scheduler.now + 400.0)  # A TTL is 300
    result = resolve(sim, resolver, "www.example.com.")
    assert result.rcode == Rcode.NOERROR
    assert result.answer[0].ttl == 30
    assert resolver.stats["stale_answers"] == 1
    assert resolver.cache.stale_served == 1


def test_no_stale_answer_without_serve_stale():
    sim, resolver = hierarchy_world()
    resolve(sim, resolver, "www.example.com.")
    for addr in (ROOT_NS_ADDR, COM_NS_ADDR, EXAMPLE_NS_ADDR):
        sim.network.unregister_address(addr)
    sim.scheduler.run(until=sim.scheduler.now + 400.0)
    result = resolve(sim, resolver, "www.example.com.")
    assert result.rcode == Rcode.SERVFAIL
    assert resolver.stats["stale_answers"] == 0


# -- refresh-ahead prefetch through the resolver (tentpole wiring) ------------


def test_prefetch_refreshes_hot_entry_before_expiry():
    cache = CacheConfig(prefetch=True, prefetch_fraction=0.5,
                        prefetch_min_hits=2, prefetch_top_k=8)
    sim, resolver = hierarchy_world(cache=cache)
    resolve(sim, resolver, "www.example.com.")        # A TTL is 300
    resolve(sim, resolver, "www.example.com.")        # hit 1
    sim.scheduler.run(until=200.0)                    # inside 0.5*TTL
    upstream_before = resolver.stats["upstream_queries"]
    result = resolve(sim, resolver, "www.example.com.")  # hit 2 -> hot
    assert result.rcode == Rcode.NOERROR
    sim.run_until_idle()
    # The refresh resolution went upstream even though the client was
    # answered from cache.
    assert resolver.stats["prefetches"] == 1
    assert resolver.cache.prefetches == 1
    assert resolver.stats["upstream_queries"] > upstream_before
    # The entry is fresh again: a much later lookup (past the original
    # expiry at t=300) is still answered from cache.  That hit is itself
    # near the refreshed entry's expiry, so it arms a second prefetch.
    sim.scheduler.run(until=sim.scheduler.now + 250.0)
    cache_answers = resolver.stats["cache_answers"]
    assert resolve(sim, resolver,
                   "www.example.com.").rcode == Rcode.NOERROR
    assert resolver.stats["cache_answers"] == cache_answers + 1
    assert resolver.stats["prefetches"] == 2


def test_resolver_registers_as_host_app():
    sim, resolver = hierarchy_world()
    assert resolver in resolver.host.apps

# -- upstream replies must answer what was asked (PR 22) ----------------------

VICTIM = RRset(N("victim.example."), RRType.A, 3600, [A("203.0.113.66")])


def lying_world(udp_lies=(), tcp_frames=None):
    """One root server fronted by a liar.  Over UDP the n-th query gets
    ``udp_lies[n](query)`` instead of the honest answer while there are
    lies left; over TCP every query gets ``tcp_frames(query, honest)``,
    a list of messages, when given.  Returns the UDP queries seen."""
    sim, resolver, _ = big_answer_world()
    sim.network.unregister_address(BIG_ADDR)
    honest = sim.hosts["root"].apps[0]      # answers, now off the net
    host = sim.add_host("liar", [BIG_ADDR], LinkParams())
    seen, lies = [], list(udp_lies)
    sock = host.udp_socket(53)

    def on_datagram(wire, src, sport):
        seen.append(wire)
        out = (lies.pop(0)(Message.from_wire(wire)).to_wire() if lies
               else honest.reply_wire("udp", wire, src, sport))
        sock.sendto(out, src, sport)

    def on_connection(conn):
        def on_message(wire):
            answer = honest.reply_wire("tcp", wire, conn.raddr, conn.rport)
            for out in tcp_frames(Message.from_wire(wire), answer):
                conn.send(frame_message(out))
        conn.on_data = LengthPrefixFramer(on_message).feed

    sock.on_datagram = on_datagram
    if tcp_frames is not None:
        host.tcp_listen(53, on_connection)
    return sim, resolver, seen


def about(question_name, answer=VICTIM):
    """A lie: the right id (and, sent by the liar, the right address),
    an authoritative answer — about *question_name*."""
    def lie(query):
        return Message(msg_id=query.msg_id, flags=Flag.QR | Flag.AA,
                       question=Question(N(question_name), RRType.A),
                       answer=[answer], edns=Edns())
    return lie


def test_upstream_reply_about_another_name_is_dropped():
    """Right id, right source address, wrong question: before PR 22 the
    whole message went into the cache.  It is dropped like a reply from
    the wrong address and the timer retries."""
    sim, resolver, seen = lying_world([about("victim.example.")])
    result = resolve(sim, resolver, "big.example.")
    assert result.rcode == Rcode.NOERROR and len(result.answer[0]) == 60
    assert len(seen) == 2 and sim.now >= QUERY_TIMEOUT
    assert resolver.cache.get_rrset(VICTIM.name, RRType.A, sim.now) is None
    assert not resolver._pending


def test_upstream_reply_must_echo_the_question_in_the_case_sent():
    honest = RRset(N("big.example."), RRType.A, 60, [A("10.7.0.1")])
    sim, resolver, seen = lying_world([about("BIG.example.", honest)])
    result = resolve(sim, resolver, "big.example.")
    assert len(seen) == 2 and len(result.answer[0]) == 60


def test_upstream_reply_without_a_question_is_dropped():
    def bare(query):
        return Message(msg_id=query.msg_id, flags=Flag.QR | Flag.AA,
                       answer=[VICTIM])
    sim, resolver, seen = lying_world([bare])
    assert resolve(sim, resolver, "big.example.").rcode == Rcode.NOERROR
    assert len(seen) == 2
    assert resolver.cache.get_rrset(VICTIM.name, RRType.A, sim.now) is None


def wrong_frames(query, answer):
    """A response about another name, a frame under another id, the
    query echoed back (QR clear): none of them the answer."""
    other_id = ((query.msg_id + 1) & 0xFFFF).to_bytes(2, "big")
    lie = about("victim.example.")(query).to_wire()
    return [lie, other_id + lie[2:], query.to_wire()]


def test_tcp_fallback_ignores_frames_that_do_not_answer():
    """Before PR 22 the first framed message of the TC-fallback exchange
    was cached and delivered whatever its id, QR bit or question."""
    sim, resolver, _ = lying_world(
        tcp_frames=lambda q, answer: wrong_frames(q, answer) + [answer])
    resolver.edns_payload = 512         # the 60-address answer truncates
    result = resolve(sim, resolver, "big.example.")
    assert result.rcode == Rcode.NOERROR and len(result.answer[0]) == 60
    assert resolver.stats["tcp_fallbacks"] == 1
    assert resolver.cache.get_rrset(VICTIM.name, RRType.A, sim.now) is None


def test_tcp_fallback_times_out_on_wrong_frames_alone():
    sim, resolver, seen = lying_world(tcp_frames=wrong_frames)
    resolver.edns_payload = 512
    result = resolve(sim, resolver, "big.example.")
    assert result.rcode == Rcode.SERVFAIL
    assert len(seen) == resolver.stats["tcp_fallbacks"] == MAX_TRIES
    assert resolver.cache.get_rrset(VICTIM.name, RRType.A, sim.now) is None
    assert not resolver._pending


def test_tcp_fallback_to_a_server_without_tcp_leaves_no_connection():
    """A SYN to a host with no TCP listener is dropped without a RST, so
    each fallback's connection stayed in SYN_SENT, holding its port, for
    good: the timeout only closed an ESTABLISHED one."""
    sim, resolver, seen = lying_world()
    resolver.edns_payload = 512
    result = resolve(sim, resolver, "big.example.")
    assert result.rcode == Rcode.SERVFAIL
    assert len(seen) == resolver.stats["tcp_fallbacks"] == MAX_TRIES
    assert resolver.host.tcp_connection_count() == 0
    assert not resolver.host._tcp_ports_in_use
