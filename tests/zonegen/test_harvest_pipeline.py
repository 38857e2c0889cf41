"""`harvest()` is the paper's procedure on the shipped components: the
real cold-cache resolver against real servers, tapped upstream.  What
that buys over a private referral walker: delegations the walker could
not follow, DO and truncation as the resolver really does them.
"""

import sys
from types import SimpleNamespace

import pytest

from repro.dns.constants import DNS_PORT, Flag, RRType
from repro.dns.message import Message
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.netsim.capture import PacketCapture
from repro.server import RootHint
from repro.workloads.internet import ModelInternet
from repro.zonegen import construct_zones, harvest, make_prober

from tests.server.helpers import (COM_NS_ADDR, EXAMPLE_NS_ADDR, N,
                                  ORG_NS_ADDR, ROOT_NS_ADDR, make_com_zone,
                                  make_example_zone, make_org_zone,
                                  make_root_zone)

HINTS = [RootHint(N("a.root-servers.net."), ROOT_NS_ADDR)]


# -- (a) a delegation without glue, to a nameserver out of bailiwick ----------

def make_glueless_zone() -> Zone:
    """glueless.org, served by ns1.example.com: org can carry no glue
    for it, so its address takes a second walk from the root."""
    zone = Zone(N("glueless.org."))
    zone.add(make_soa(N("glueless.org.")))
    zone.add(RRset(N("glueless.org."), RRType.NS, 86400,
                   [NS(N("ns1.example.com."))]))
    zone.add(RRset(N("www.glueless.org."), RRType.A, 300,
                   [A("203.0.113.7")]))
    return zone


def glueless_hierarchy():
    org = make_org_zone()
    org.add(RRset(N("glueless.org."), RRType.NS, 172800,
                  [NS(N("ns1.example.com."))]))
    return SimpleNamespace(
        zones_by_addr={ROOT_NS_ADDR: [make_root_zone()],
                       COM_NS_ADDR: [make_com_zone()],
                       ORG_NS_ADDR: [org],
                       # One nameserver, two zones.
                       EXAMPLE_NS_ADDR: [make_example_zone(),
                                         make_glueless_zone()]},
        root_hints=lambda: HINTS)


def test_out_of_bailiwick_glueless_delegation_is_harvested():
    internet = glueless_hierarchy()
    queries = [("www.glueless.org.", RRType.A),
               ("nope.glueless.org.", RRType.A),
               ("www.example.com.", RRType.A)]
    capture = harvest(internet, queries)
    assert capture.failed_queries == []
    # root, org, then the address chase (root, com, example.com), then
    # the answer from the server the chase found.
    first = [c.server_addr for c in capture.responses[:6]]
    assert first == [ROOT_NS_ADDR, ORG_NS_ADDR, ROOT_NS_ADDR, COM_NS_ADDR,
                     EXAMPLE_NS_ADDR, EXAMPLE_NS_ADDR]

    rebuilt = {zone.origin: zone for zone in construct_zones(
        capture.responses, root_hints=HINTS).zones}
    assert {N("."), N("org."), N("com."), N("example.com."),
            N("glueless.org.")} <= rebuilt.keys()
    source = {zone.origin: zone for zones in internet.zones_by_addr.values()
              for zone in zones}
    for zone in rebuilt.values():
        assert zone.validate() == [], zone.origin.to_text()
    for qname, qtype in queries:
        origin = N(qname).parent()
        want = source[origin].lookup(N(qname), qtype)
        got = rebuilt[origin].lookup(N(qname), qtype)
        assert got.status == want.status, qname
        assert [(r.name, r.rtype, r.ttl, r.rdatas) for r in got.answers] \
            == [(r.name, r.rtype, r.ttl, r.rdatas) for r in want.answers]


# -- (b) DO upstream ----------------------------------------------------------

@pytest.fixture
def upstream_queries(monkeypatch):
    """What the harvesting resolver's host sent to port 53."""
    sent = []

    class TappedBothWays(PacketCapture):
        def __init__(self, host, **kwargs):
            super().__init__(host, **kwargs)
            sent.append(PacketCapture(
                host, ingress=False, egress=True,
                match=lambda p: p.proto == "udp" and p.dport == DNS_PORT))

    # The package attribute `harvest` is the function, not the module.
    monkeypatch.setattr(sys.modules["repro.zonegen.harvest"],
                        "PacketCapture", TappedBothWays)
    return lambda: [Message.from_wire(packet.payload)
                    for tap in sent for packet in tap.packets]


def signed_internet():
    internet = ModelInternet(tlds=2, slds_per_tld=2, seed=12)
    internet.sign_all(zsk_bits=2048)
    return internet


SIGNED_QUERIES = [("host0.dom000.com.", RRType.A),
                  ("www.dom001.net.", RRType.A),
                  ("dom000.net.", RRType.MX),
                  ("junk.dom001.com.", RRType.A)]


def test_dnssec_sets_do_upstream_and_rebuilds_signed_zones(
        upstream_queries):
    internet = signed_internet()
    capture = harvest(internet, SIGNED_QUERIES, dnssec=True)
    assert capture.failed_queries == []
    queries = upstream_queries()
    assert len(queries) == capture.queries_sent == len(capture.responses)
    assert all(query.edns.do for query in queries)
    assert any(rrset.rtype == RRType.RRSIG
               for captured in capture.responses
               for rrset in captured.message.all_rrsets())
    result = construct_zones(capture.responses,
                             prober=make_prober(internet),
                             root_hints=internet.root_hints())
    # Every zone an answer or denial came from is rebuilt signed.
    assert {zone.origin for zone in result.zones if zone.is_signed()} \
        == {N("dom000.com."), N("dom001.com."), N("dom000.net."),
            N("dom001.net.")}
    for zone in result.zones:
        assert zone.validate() == [], zone.origin.to_text()


def test_without_dnssec_no_upstream_query_sets_do(upstream_queries):
    capture = harvest(signed_internet(), SIGNED_QUERIES)
    queries = upstream_queries()
    assert len(queries) == capture.queries_sent
    assert not any(query.edns.do for query in queries)
    assert not any(rrset.rtype == RRType.RRSIG
                   for captured in capture.responses
                   for rrset in captured.message.all_rrsets())


# -- (c) truncation -----------------------------------------------------------

def test_truncated_exchanges_are_failed_queries_not_records(monkeypatch):
    """A 512-byte resolver gets TC=1 for signed answers and re-asks
    over TCP: the datagram holds no records and the stream's segments
    are not messages, so the query is reported, not half-harvested."""
    monkeypatch.setattr("repro.server.recursive.DEFAULT_EDNS_PAYLOAD", 512)
    internet = signed_internet()
    capture = harvest(internet, SIGNED_QUERIES, dnssec=True)
    assert capture.failed_queries
    assert set(capture.failed_queries) <= {
        (qname, int(qtype)) for qname, qtype in SIGNED_QUERIES}
    assert len(capture.responses) < capture.queries_sent
    assert not any(captured.message.flags & Flag.TC
                   for captured in capture.responses)
    result = construct_zones(capture.responses,
                             prober=make_prober(internet),
                             root_hints=internet.root_hints())
    for zone in result.zones:
        assert zone.validate() == [], zone.origin.to_text()
