"""§2.3 executed literally: tcpdump at the recursive's upstream
interface, then rebuild zones from the pcap.

A recursive resolver walks real separate authoritative servers inside
the simulator; a packet capture on its host records the upstream
responses; the capture is exported to pcap bytes, parsed back, and
reversed into zones — which then answer the same queries correctly.
:func:`repro.zonegen.harvest` is the same procedure without the pcap
round trip, so it must capture the same responses.
"""

from types import SimpleNamespace

import pytest

from repro.dns.constants import Rcode, RRType
from repro.dns.name import Name
from repro.dns.zone import LookupStatus
from repro.netsim import LinkParams, Simulator
from repro.netsim.capture import PacketCapture
from repro.server import AuthoritativeServer, RecursiveResolver, RootHint
from repro.trace.convert import responses_from_pcap
from repro.zonegen import (construct_zones, harvest,
                           responses_from_packet_capture)

from tests.server.helpers import (COM_NS_ADDR, EXAMPLE_NS_ADDR,
                                  ROOT_NS_ADDR, make_com_zone,
                                  make_example_zone, make_root_zone)

N = Name.from_text

QUESTIONS = [("www.example.com.", RRType.A),
             ("mail.example.com.", RRType.A),
             ("example.com.", RRType.NS)]


HINTS = [RootHint(N("a.root-servers.net."), ROOT_NS_ADDR)]


@pytest.fixture(scope="module")
def captured():
    sim = Simulator()
    for name, addr, zone in (("root-ns", ROOT_NS_ADDR, make_root_zone()),
                             ("com-ns", COM_NS_ADDR, make_com_zone()),
                             ("example-ns", EXAMPLE_NS_ADDR,
                              make_example_zone())):
        AuthoritativeServer(sim.add_host(name, [addr], LinkParams()),
                            zones=[zone])
    rec_host = sim.add_host("recursive", ["10.1.0.2"], LinkParams())
    resolver = RecursiveResolver(rec_host, HINTS)
    # tcpdump: responses arriving at the recursive from port 53.
    capture = PacketCapture(rec_host, ingress=True,
                            match=lambda p: p.sport == 53)
    for qname, qtype in QUESTIONS:
        done = []
        resolver.resolve(N(qname), qtype, done.append)
        sim.run_until_idle()
        resolver.cache.flush()  # cold-cache walk per query, as in §2.3

    pcap = capture.to_pcap()
    pairs = responses_from_pcap(pcap)
    return responses_from_packet_capture(pairs)


@pytest.fixture(scope="module")
def rebuilt_zones(captured):
    return construct_zones(captured, root_hints=HINTS).zones


def test_harvest_captures_the_same_responses(captured):
    internet = SimpleNamespace(
        zones_by_addr={ROOT_NS_ADDR: [make_root_zone()],
                       COM_NS_ADDR: [make_com_zone()],
                       EXAMPLE_NS_ADDR: [make_example_zone()]},
        root_hints=lambda: HINTS)
    capture = harvest(internet, QUESTIONS)
    assert not capture.failed_queries
    assert capture.queries_sent == len(captured) == 9
    assert [(c.server_addr, c.question, c.message.to_wire())
            for c in capture.responses] \
        == [(c.server_addr, c.question, c.message.to_wire())
            for c in captured]


def test_capture_produced_all_three_levels(rebuilt_zones):
    origins = {z.origin for z in rebuilt_zones}
    assert {N("."), N("com."), N("example.com.")} <= origins


def test_rebuilt_zones_are_loadable(rebuilt_zones):
    for zone in rebuilt_zones:
        assert zone.validate() == [], zone.origin.to_text()


def test_rebuilt_zones_answer_the_walked_queries(rebuilt_zones):
    example = next(z for z in rebuilt_zones
                   if z.origin == N("example.com."))
    for qname, qtype in QUESTIONS:
        result = example.lookup(N(qname), qtype)
        assert result.status == LookupStatus.SUCCESS, qname


def test_rebuilt_root_still_delegates(rebuilt_zones):
    root = next(z for z in rebuilt_zones if z.origin == N("."))
    result = root.lookup(N("www.example.com."), RRType.A)
    assert result.status == LookupStatus.DELEGATION
