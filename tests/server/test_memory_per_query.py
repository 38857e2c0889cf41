"""The authoritative server's memory per query is a small constant.

On a B-Root mix nearly every answer is a referral or a denial to a name
asked once.  Section templates make those responses per zone datum, so
the answer cache stores none of them, and the query log keeps each row
in columns with no per-query ``Name``.  What the cache and the log
retain after a replay is measured with ``tracemalloc`` as the memory
freed by dropping both.
"""

import gc
import pickle
import tracemalloc

from repro.dns.constants import RRType
from repro.dns.message import Message
from repro.experiments.harness import (authoritative_world,
                                       root_zone_world, wildcard_zone)
from repro.server.responder import DnsResponder, QueryLog, QueryLogEntry
from repro.workloads.broot import BRootParams, generate_broot_trace

SEED = 11
# Bytes the answer cache and the query log keep per query replayed
# (about 120 measured; the per-query copies of template-made answers
# and per-row Names and entries kept 996).
BYTES_PER_QUERY = 160
CLIENT = ("198.51.100.7", 5353)


def broot_analogue():
    internet = root_zone_world(tlds=20, slds_per_tld=20, seed=SEED)
    internet.sign_all(root_only=True)
    trace = generate_broot_trace(internet, BRootParams(
        duration=1.0, mean_rate=2000.0, clients=1000, do_fraction=0.723,
        tcp_fraction=0.0, junk_fraction=0.30, seed=SEED))
    return internet, trace


def test_server_memory_per_query_is_bounded():
    internet, trace = broot_analogue()
    world = authoritative_world([internet.root_zone], seed=SEED)
    server = world.server
    tracemalloc.start()
    try:
        world.run(trace)
        queries = len(server.query_log)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        server.query_log = QueryLog()
        server.answer_cache = None
        gc.collect()
        retained = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 1_500 <= queries == server.queries_handled
    assert retained / queries <= BYTES_PER_QUERY, (retained, queries)


def ask(responder, qname, qtype=RRType.A, msg_id=1):
    wire = Message.make_query(qname, qtype, msg_id=msg_id).to_wire()
    return responder.reply_wire("udp", wire, *CLIENT)


def test_repeated_referral_and_nxdomain_add_no_entry():
    internet, _ = broot_analogue()
    responder = DnsResponder(zones=[internet.root_zone], log_queries=True)
    tld = internet.zones[1].origin.to_text()   # the first TLD
    for msg_id in (1, 2, 3):
        ask(responder, f"www.example.{tld}", msg_id=msg_id)   # referral
        ask(responder, "no-such-tld-xq.", msg_id=msg_id)       # NXDOMAIN
    cache = responder.answer_cache
    assert (len(cache), cache.hits) == (0, 0)
    assert cache.template_hits == 4
    assert [e.qname.to_text() for e in responder.query_log] == [
        f"www.example.{tld}", "no-such-tld-xq."] * 3


def test_repeated_wildcard_answer_is_a_hit():
    responder = DnsResponder(zones=[wildcard_zone()], log_queries=True)
    first = ask(responder, "www.example.com.", msg_id=1)
    second = ask(responder, "www.example.com.", msg_id=2)
    cache = responder.answer_cache
    assert (len(cache), cache.hits) == (1, 1)
    assert second[2:] == first[2:]
    # Both rows read their qname from the one cached entry's Name.
    rows = list(responder.query_log)
    assert rows[0].qname is rows[1].qname


def test_query_log_reads_as_the_list_it_replaced():
    responder = DnsResponder(zones=[wildcard_zone()], log_queries=True)
    for i, qname in enumerate(("a.example.com.", "B.Example.COM.",
                               "a.example.com.", "zz.nowhere.")):
        ask(responder, qname, RRType.A if i % 2 else RRType.AAAA, i)
    log = responder.query_log
    rows = list(log)
    assert all(type(row) is QueryLogEntry for row in rows)
    assert [row.qname.labels for row in rows] == [
        (b"a", b"example", b"com"), (b"B", b"Example", b"COM"),
        (b"a", b"example", b"com"), (b"zz", b"nowhere")]
    assert rows[3].rcode == 5 and rows[3].proto == "udp"
    assert len(log) == 4 and log[-1] == rows[-1] and log[1] == rows[1]
    assert list(log[1:3]) == rows[1:3]
    joined = log[:1]
    joined += log[1:]
    assert joined == log and len(joined) == 4
    again = pickle.loads(pickle.dumps(log))
    assert type(again) is QueryLog and again == log
    assert responder.response_sizes() == [row.response_size for row in rows]
    assert log != log[:3]
