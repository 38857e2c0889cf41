"""Precompiled-answer cache: hits, id patching, and invalidation.

The cache's contract (see repro.server.answercache) is that a cached
run is observably identical to an uncached one — so these tests mostly
compare whole responses and query-log entries across repeated queries,
plus the two invalidation channels (zone version, view generation).
"""

import pytest

from repro.dns.constants import Flag, Opcode, Rcode, RRType
from repro.dns.message import Edns, Message
from repro.dns.name import Name
from repro.dns.rdata import TXT, A
from repro.dns.rrset import RRset
from repro.netsim import LinkParams, Simulator
from repro.server import AuthoritativeServer, answercache

from tests.server.helpers import make_example_zone

N = Name.from_text


@pytest.fixture
def rig():
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    zone = make_example_zone()
    server = AuthoritativeServer(server_host, zones=[zone],
                                 log_queries=True)
    return sim, client_host, server, zone


def udp_ask(sim, client_host, query, dst="10.0.0.2"):
    responses = []
    sock = client_host.udp_socket()
    sock.on_datagram = lambda data, src, sport: responses.append(
        Message.from_wire(data))
    sock.sendto(query.to_wire(), dst, 53)
    sim.run_until_idle()
    return responses


def test_hit_patches_message_id_only(rig):
    sim, client, server, zone = rig
    first = udp_ask(sim, client, Message.make_query(
        "www.example.com.", RRType.A, msg_id=0x1111))[0]
    second = udp_ask(sim, client, Message.make_query(
        "www.example.com.", RRType.A, msg_id=0x2222))[0]
    cache = server.answer_cache
    assert cache.hits == 1 and cache.misses == 1
    assert second.msg_id == 0x2222
    # Everything but the id is the stored bytes of the first answer.
    assert second.to_wire()[2:] == first.to_wire()[2:]


def test_distinct_questions_get_distinct_entries(rig):
    """Each distinct positive answer is an entry of its own; a denial a
    section template makes is no entry, however often it is asked."""
    sim, client, server, zone = rig
    for qname in ("www.example.com.", "mail.example.com.",
                  "alias.example.com."):
        udp_ask(sim, client, Message.make_query(qname, RRType.A))
    cache = server.answer_cache
    assert cache.hits == 0
    assert len(cache) == 3
    for _ in range(2):
        udp_ask(sim, client, Message.make_query("www.example.com.",
                                                RRType.AAAA))
        udp_ask(sim, client, Message.make_query("nx.example.com.",
                                                RRType.A))
    assert cache.hits == 0
    assert len(cache) == 3
    assert (cache.template_builds, cache.template_hits) == (2, 2)


def test_edns_payload_is_part_of_the_key(rig):
    """Two queries differing only in advertised EDNS size must not
    share an entry: the UDP truncation limit depends on it."""
    sim, client, server, zone = rig
    big = Message.make_query("www.example.com.", RRType.A)
    big.edns = Edns(payload=4096)
    small = Message.make_query("www.example.com.", RRType.A)
    small.edns = Edns(payload=512)
    udp_ask(sim, client, big)
    udp_ask(sim, client, small)
    assert server.answer_cache.hits == 0
    assert len(server.answer_cache) == 2


def test_cached_truncation_matches_uncached(rig):
    """A response above the UDP limit stays TC-truncated on hits, and
    the query log still records the full (pre-truncation) size."""
    sim, client, server, zone = rig
    # Bulk TXT data pushes the response well past 512 bytes.
    zone.add(RRset(N("big.example.com."), RRType.TXT, 300,
                   [TXT([b"x" * 200]) for _ in range(5)]))
    query = Message.make_query("big.example.com.", RRType.TXT)
    first = udp_ask(sim, client, query)[0]
    second = udp_ask(sim, client, Message.make_query(
        "big.example.com.", RRType.TXT, msg_id=7))[0]
    assert server.answer_cache.hits == 1
    assert first.flags & Flag.TC
    assert second.flags & Flag.TC
    assert second.to_wire()[2:] == first.to_wire()[2:]
    sizes = {entry.response_size for entry in server.query_log}
    assert len(sizes) == 1 and sizes.pop() > 512


def test_zone_mutation_invalidates_lazily(rig):
    sim, client, server, zone = rig
    query = Message.make_query("www.example.com.", RRType.TXT)
    before = udp_ask(sim, client, query)[0]
    assert before.rcode == Rcode.NOERROR and not before.answer
    zone.add(RRset(N("www.example.com."), RRType.TXT, 300,
                   [TXT([b"new"])]))
    after = udp_ask(sim, client, Message.make_query(
        "www.example.com.", RRType.TXT))[0]
    assert after.answer and after.answer[0].rtype == RRType.TXT
    assert server.answer_cache.hits == 0


def test_view_change_flushes_whole_cache(rig):
    sim, client, server, zone = rig
    udp_ask(sim, client, Message.make_query("www.example.com.",
                                            RRType.A))
    assert len(server.answer_cache) == 1
    from repro.server.views import catch_all_view
    server.views.add(catch_all_view([], name="shadow"))
    udp_ask(sim, client, Message.make_query("www.example.com.",
                                            RRType.A))
    # Generation bump flushed the old entry; the re-miss repopulated.
    assert server.answer_cache.hits == 0
    assert len(server.answer_cache) == 1


def test_refused_answers_are_cached_with_side_effects(rig):
    sim, client, server, zone = rig
    for msg_id in (1, 2, 3):
        response = udp_ask(sim, client, Message.make_query(
            "www.unrelated.net.", RRType.A, msg_id=msg_id))[0]
        assert response.rcode == Rcode.REFUSED
    assert server.answer_cache.hits == 2
    assert server.refused == 3
    assert server.queries_handled == 3


def test_non_query_opcodes_are_not_cached(rig):
    sim, client, server, zone = rig
    notify = Message.make_query("example.com.", RRType.SOA)
    notify.opcode = Opcode.NOTIFY
    for _ in range(2):
        response = udp_ask(sim, client, notify)[0]
        assert response.rcode == Rcode.NOTIMP
    assert len(server.answer_cache) == 0
    assert server.answer_cache.hits == 0


def test_fifo_eviction_is_bounded(rig, monkeypatch):
    sim, client, server, zone = rig
    monkeypatch.setattr(answercache, "ANSWER_STORE", 4)
    for i in range(8):
        zone.add(RRset(N(f"h{i}.example.com."), RRType.A, 300,
                       [A(f"192.0.2.{i}")]))
    for i in range(8):
        udp_ask(sim, client, Message.make_query(
            f"h{i}.example.com.", RRType.A))
    assert len(server.answer_cache) == 4
    # The most recent four survive; the oldest were evicted.
    udp_ask(sim, client, Message.make_query("h7.example.com.",
                                            RRType.A))
    assert server.answer_cache.hits == 1
    udp_ask(sim, client, Message.make_query("h0.example.com.",
                                            RRType.A))
    assert server.answer_cache.hits == 1  # h0 was evicted: a miss


def test_disabled_cache_still_serves(rig):
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    server = AuthoritativeServer(server_host,
                                 zones=[make_example_zone()],
                                 answer_cache=False)
    assert server.answer_cache is None
    response = udp_ask(sim, client_host, Message.make_query(
        "www.example.com.", RRType.A))[0]
    assert response.rcode == Rcode.NOERROR
