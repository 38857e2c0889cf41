"""Count guard for the querier's wire-level fast path (docs/BACKENDS.md).

No timing: calls of the full codec are counted while a querier replays
against a server made of canned bytes, which itself never touches the
codec — so every counted call is the client's.  With cookies off the
client encodes each distinct question once and decodes nothing; with
cookies on it decodes every response; TC fallback and reconnect re-send
stored bytes.  A change that quietly puts ``Message.from_wire`` or
``record.to_message()`` back on the per-query path fails here.
"""

import inspect
from collections import Counter

import pytest

from repro.dns.constants import EDNS_COOKIE
from repro.dns.message import (Edns, Message, encode_edns_option,
                               get_edns_option)
from repro.dns.name import Name
from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.replay import Querier, QuerierConfig, ResilienceConfig
from repro.server.overload import client_cookie
from repro.trace import record as record_module
from repro.trace.record import QueryRecord

SRC = "172.16.0.1"
RECORD = QueryRecord(time=0.0, src=SRC, qname="www.example.com.")
SERVER_COOKIE = b"S" * 8
N = 50


@pytest.fixture
def codec_calls(monkeypatch):
    """Calls of the full encoder, decoder and name parser, by name."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        # getattr bound a classmethod to its class already.
        monkeypatch.setattr(owner, name, staticmethod(counted)
                            if inspect.ismethod(original) else counted)

    count(Message, "from_wire")
    count(Message, "to_wire")
    count(Name, "from_text")
    record_module._query_tail.cache_clear()
    return calls


class CannedServer:
    """Answers every query with the same pre-encoded response, patched
    to the query's id.  ``udp_tc`` sets TC on every datagram answer;
    ``close_first`` closes the first stream connection on its first
    query.  Keeps what it received."""

    def __init__(self, host, response: bytes, udp_tc=False,
                 close_first=False):
        self.body = response[2:]
        self.udp_tc = udp_tc
        self.close_next = close_first
        self.datagrams: list[bytes] = []
        self.stream_queries: list[bytes] = []
        self.sock = host.udp_socket(53)
        self.sock.on_datagram = self._on_datagram
        host.tcp_listen(53, self._on_connection)

    def _on_datagram(self, payload, src, sport):
        self.datagrams.append(payload)
        body = self.body
        if self.udp_tc:
            body = bytes([body[0] | 0x02]) + body[1:]
        self.sock.sendto(payload[:2] + body, src, sport)

    def _on_connection(self, conn):
        def answer(wire):
            self.stream_queries.append(wire)
            if self.close_next:
                self.close_next = False
                conn.close()
            else:
                conn.send(frame_message(wire[:2] + self.body))
        conn.on_data = LengthPrefixFramer(answer).feed


def canned_response(cookie: bytes | None = None) -> bytes:
    response = RECORD.to_message().make_response()
    if cookie is not None:
        response.edns = Edns(options=encode_edns_option(EDNS_COOKIE, cookie))
    return response.to_wire()


def build(response, config=None, **server_kw):
    sim = Simulator()
    server = CannedServer(
        sim.add_host("server", ["10.0.0.2"], LinkParams()), response,
        **server_kw)
    querier = Querier(sim.add_host("client", ["10.0.0.1"], LinkParams()),
                      "10.0.0.2", config=config)
    querier.timer.sync(0.0, sim.now)
    return sim, server, querier


def replay(sim, querier, calls, protos):
    calls.clear()       # building the canned response used the codec
    for i, proto in enumerate(protos):
        querier.handle_record(RECORD.with_(time=0.01 * i, proto=proto))
    sim.run_until_idle()
    return dict(calls)


def test_repeated_question_is_encoded_once_and_never_decoded(codec_calls):
    sim, server, querier = build(canned_response())
    counted = replay(sim, querier, codec_calls, ["udp"] * N)
    assert counted == {"from_text": 1}
    assert len(server.datagrams) == N
    assert [r.rcode for r in querier.results] == [0] * N
    assert len({r.response_size for r in querier.results}) == 1


def test_stream_queries_share_the_memo(codec_calls):
    sim, server, querier = build(canned_response())
    counted = replay(sim, querier, codec_calls, ["udp", "tcp"] * (N // 2))
    assert counted == {"from_text": 1}
    assert len(server.stream_queries) == N // 2
    assert all(r.answered for r in querier.results)


def test_cookies_decode_every_response_and_echo_the_server_cookie(
        codec_calls):
    response = canned_response(client_cookie(SRC) + SERVER_COOKIE)
    sim, server, querier = build(response, QuerierConfig(cookies=True))
    counted = replay(sim, querier, codec_calls, ["udp"] * N)
    # The COOKIE option varies per source and over time: every query is
    # built as a Message, every response decoded for the server cookie.
    assert counted == {"to_wire": N, "from_text": N, "from_wire": N}
    assert all(r.answered for r in querier.results)
    cookies = [get_edns_option(Message.from_wire(wire).edns.options,
                               EDNS_COOKIE) for wire in server.datagrams]
    assert cookies[0] == client_cookie(SRC)
    assert cookies[1:] == [client_cookie(SRC) + SERVER_COOKIE] * (N - 1)


def test_tc_fallback_resends_the_stored_bytes(codec_calls):
    sim, server, querier = build(
        canned_response(), QuerierConfig(resilience=ResilienceConfig()),
        udp_tc=True)
    counted = replay(sim, querier, codec_calls, ["udp"] * N)
    assert counted == {"from_text": 1}
    assert querier.tcp_fallbacks == N
    assert all(r.answered and r.fell_back for r in querier.results)
    assert server.stream_queries == server.datagrams


def test_reconnect_resends_the_stored_bytes(codec_calls):
    sim, server, querier = build(
        canned_response(), QuerierConfig(resilience=ResilienceConfig()),
        close_first=True)
    counted = replay(sim, querier, codec_calls, ["tcp"])
    assert counted == {"from_text": 1}
    assert querier.reconnects == 1
    assert querier.results[0].answered
    assert len(server.stream_queries) == 2
    assert len(set(server.stream_queries)) == 1
