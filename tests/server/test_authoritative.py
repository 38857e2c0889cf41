"""Tests for the authoritative server application."""

import pytest

from repro.dns.constants import Flag, Rcode, RRType
from repro.dns.dnssec import sign_zone
from repro.dns.message import Edns, Message
from repro.dns.name import Name
from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.server import AuthoritativeServer

from tests.server.helpers import make_example_zone

N = Name.from_text


@pytest.fixture
def rig():
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    server = AuthoritativeServer(server_host, zones=[make_example_zone()],
                                 log_queries=True)
    return sim, client_host, server


def udp_ask(sim, client_host, query, dst="10.0.0.2"):
    responses = []
    sock = client_host.udp_socket()
    sock.on_datagram = lambda data, src, sport: responses.append(
        Message.from_wire(data))
    sock.sendto(query.to_wire(), dst, 53)
    sim.run_until_idle()
    return responses


def test_udp_positive_answer(rig):
    sim, client, server = rig
    query = Message.make_query("www.example.com.", RRType.A, msg_id=1)
    (response,) = udp_ask(sim, client, query)
    assert response.msg_id == 1
    assert response.rcode == Rcode.NOERROR
    assert response.flags & Flag.AA
    assert response.answer[0].rdatas[0].address == "93.184.216.34"


def test_udp_nxdomain(rig):
    sim, client, server = rig
    query = Message.make_query("nope.example.com.", RRType.A)
    (response,) = udp_ask(sim, client, query)
    assert response.rcode == Rcode.NXDOMAIN
    assert response.authority[0].rtype == RRType.SOA


def test_out_of_zone_refused(rig):
    sim, client, server = rig
    query = Message.make_query("www.unrelated.net.", RRType.A)
    (response,) = udp_ask(sim, client, query)
    assert response.rcode == Rcode.REFUSED
    assert server.refused == 1


def test_cname_answer_includes_chain(rig):
    sim, client, server = rig
    query = Message.make_query("alias.example.com.", RRType.A)
    (response,) = udp_ask(sim, client, query)
    types = [r.rtype for r in response.answer]
    assert RRType.CNAME in types and RRType.A in types


def test_tcp_query(rig):
    sim, client, server = rig
    responses = []
    conn = client.tcp_connect("10.0.0.2", 53)
    framer = LengthPrefixFramer(
        lambda wire: responses.append(Message.from_wire(wire)))
    conn.on_data = framer.feed
    query = Message.make_query("www.example.com.", RRType.A, msg_id=9)
    conn.on_established = lambda: conn.send(frame_message(query.to_wire()))
    sim.run_until_idle()
    assert responses[0].msg_id == 9
    assert responses[0].answer


def test_multiple_queries_one_tcp_connection(rig):
    sim, client, server = rig
    responses = []
    conn = client.tcp_connect("10.0.0.2", 53)
    framer = LengthPrefixFramer(
        lambda wire: responses.append(Message.from_wire(wire)))
    conn.on_data = framer.feed

    def send_all():
        for i, qname in enumerate(("www.example.com.",
                                   "mail.example.com.",
                                   "alias.example.com.")):
            query = Message.make_query(qname, RRType.A, msg_id=i)
            conn.send(frame_message(query.to_wire()))

    conn.on_established = send_all
    sim.run_until_idle()
    assert sorted(r.msg_id for r in responses) == [0, 1, 2]


def test_tls_query():
    from repro.netsim import TlsConnection
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    AuthoritativeServer(server_host, zones=[make_example_zone()])
    responses = []
    conn = client_host.tcp_connect("10.0.0.2", 853)
    tls = TlsConnection.client(conn)
    framer = LengthPrefixFramer(
        lambda wire: responses.append(Message.from_wire(wire)))
    tls.on_data = framer.feed
    query = Message.make_query("www.example.com.", RRType.A, msg_id=3)
    tls.on_established = lambda: tls.send(frame_message(query.to_wire()))
    sim.run_until_idle()
    assert responses[0].msg_id == 3
    assert responses[0].answer


def test_udp_truncation_without_edns(rig):
    sim, client, server = rig
    # Inflate www with many addresses so the response exceeds 512B.
    from repro.dns.rdata import A as A_
    from repro.dns.rrset import RRset
    zone = server.views.views[0].zones[0]
    zone.add(RRset(N("big.example.com."), RRType.A, 300,
                   [A_(f"10.9.{i // 256}.{i % 256}") for i in range(60)]))
    query = Message.make_query("big.example.com.", RRType.A)
    (response,) = udp_ask(sim, client, query)
    assert response.flags & Flag.TC
    assert not response.answer


def test_edns_payload_avoids_truncation(rig):
    sim, client, server = rig
    from repro.dns.rdata import A as A_
    from repro.dns.rrset import RRset
    zone = server.views.views[0].zones[0]
    zone.add(RRset(N("big.example.com."), RRType.A, 300,
                   [A_(f"10.9.{i // 256}.{i % 256}") for i in range(60)]))
    query = Message.make_query("big.example.com.", RRType.A,
                               edns=Edns(payload=4096))
    (response,) = udp_ask(sim, client, query)
    assert not (response.flags & Flag.TC)
    assert len(response.answer[0]) == 60


def test_do_bit_gets_rrsigs():
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    zone = sign_zone(make_example_zone(), zsk_bits=2048)
    AuthoritativeServer(server_host, zones=[zone])
    sock = client_host.udp_socket()
    got = []
    sock.on_datagram = lambda data, src, sport: got.append(
        Message.from_wire(data))
    plain = Message.make_query("www.example.com.", RRType.A, msg_id=1,
                               edns=Edns(payload=4096, do=False))
    do = Message.make_query("www.example.com.", RRType.A, msg_id=2,
                            edns=Edns(payload=4096, do=True))
    sock.sendto(plain.to_wire(), "10.0.0.2", 53)
    sock.sendto(do.to_wire(), "10.0.0.2", 53)
    sim.run_until_idle()
    by_id = {m.msg_id: m for m in got}
    plain_types = {r.rtype for r in by_id[1].answer}
    do_types = {r.rtype for r in by_id[2].answer}
    assert RRType.RRSIG not in plain_types
    assert RRType.RRSIG in do_types
    assert len(by_id[2].to_wire()) > len(by_id[1].to_wire()) + 200


def test_query_log(rig):
    sim, client, server = rig
    udp_ask(sim, client, Message.make_query("www.example.com.", RRType.A))
    assert len(server.query_log) == 1
    entry = server.query_log[0]
    assert entry.qname == N("www.example.com.")
    assert entry.proto == "udp"
    assert entry.response_size > 0


def test_malformed_query_ignored(rig):
    sim, client, server = rig
    sock = client.udp_socket()
    got = []
    sock.on_datagram = lambda *args: got.append(args)
    sock.sendto(b"\x00\x01garbage", "10.0.0.2", 53)
    sim.run_until_idle()
    assert got == []


def test_server_memory_includes_base_and_zone():
    sim = Simulator()
    host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    zone = make_example_zone()
    server = AuthoritativeServer(host, zones=[zone])
    expected = host.meter.cost.server_base + zone.estimated_memory()
    assert host.meter.memory == expected
    server.close()
    assert host.meter.memory == 0


def test_deepest_zone_wins_without_views():
    """The §2.4 hazard: a plain server hosting parent and child zones
    answers from the child directly — no referral round trip."""
    from tests.server.helpers import make_com_zone
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    AuthoritativeServer(server_host,
                        zones=[make_com_zone(), make_example_zone()])
    sock = client_host.udp_socket()
    got = []
    sock.on_datagram = lambda data, src, sport: got.append(
        Message.from_wire(data))
    query = Message.make_query("www.example.com.", RRType.A)
    sock.sendto(query.to_wire(), "10.0.0.2", 53)
    sim.run_until_idle()
    # Straight to the final answer, skipping the com. referral.
    assert got[0].answer
    assert got[0].flags & Flag.AA


def test_non_query_opcode_notimp(rig):
    from repro.dns.constants import Opcode
    sim, client, server = rig
    notify = Message.make_query("example.com.", RRType.SOA, msg_id=8)
    notify.opcode = Opcode.NOTIFY
    (response,) = udp_ask(sim, client, notify)
    assert response.rcode == Rcode.NOTIMP
    assert not response.answer


def test_worker_pool_overload_queues_responses():
    """With the NSD-style worker model, offered load beyond capacity
    turns into response queueing delay (the DoS overload mechanism)."""
    from repro.server.authoritative import WorkerPool
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    # 2 workers x 120us service: capacity ~16.6k q/s.  Offer a burst.
    AuthoritativeServer(server_host, zones=[make_example_zone()],
                        worker_pool=WorkerPool(workers=2))
    got = []
    sock = client_host.udp_socket()
    sock.on_datagram = lambda data, src, sport: got.append(sim.now)
    for i in range(200):  # instantaneous burst >> capacity
        q = Message.make_query("www.example.com.", RRType.A, msg_id=i)
        sock.sendto(q.to_wire(), "10.0.0.2", 53)
    sim.run_until_idle()
    assert len(got) == 200
    # The burst drains over ~200*120us/2 = 12ms of queueing.
    assert got[-1] - got[0] > 0.008


def test_no_worker_pool_responses_immediate():
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    client_host = sim.add_host("client", ["10.0.0.1"], LinkParams())
    AuthoritativeServer(server_host, zones=[make_example_zone()])
    got = []
    sock = client_host.udp_socket()
    sock.on_datagram = lambda data, src, sport: got.append(sim.now)
    for i in range(50):
        q = Message.make_query("www.example.com.", RRType.A, msg_id=i)
        sock.sendto(q.to_wire(), "10.0.0.2", 53)
    sim.run_until_idle()
    assert len(got) == 50
    assert got[-1] - got[0] < 0.001
