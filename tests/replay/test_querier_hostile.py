"""The querier against a hostile responder (ROADMAP item 5, client half).

A scripted server on the simulator misbehaves per query — wrong ids,
duplicate answers, replies after the final timeout, TC on every UDP
answer, malformed wire, the query reflected back, connections closed
with queries outstanding — and whatever it does, the querier's
accounting must conserve queries: every send has one result, no result
is in two terminal states, and a resilient querier ends with empty
pending tables.  The live backend runs this same :class:`Querier`, so
it inherits the result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.invariants import verify_queriers
from repro.netsim import LinkParams, Simulator
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.replay import Querier, QuerierConfig, ResilienceConfig
from repro.server.responder import DnsResponder
from repro.trace.record import QueryRecord

from tests.server.helpers import make_example_zone

POLICY = ResilienceConfig(timeout=0.2, max_retries=2, backoff=2.0)
# Later than the policy ever waits: 0.2 + 0.4 + 0.8.
LATE = 2.0
ACTIONS = ("answer", "drop", "wrong_id", "duplicate", "late",
           "truncated", "malformed", "reflect", "close")


class HostileServer:
    """Answers the n-th query it sees as the n-th scripted action says
    (cycling); ``close`` only means something on a stream."""

    def __init__(self, host, script):
        self.host = host
        self.script = script
        self.seen = 0
        self.responder = DnsResponder(zones=[make_example_zone()])
        self.sock = host.udp_socket(53)
        self.sock.on_datagram = self._on_datagram
        host.tcp_listen(53, self._on_connection)

    def _replies(self, proto, wire, src, sport):
        """(delay, wire) pairs to send back, or None to close."""
        action = self.script[self.seen % len(self.script)]
        self.seen += 1
        good = self.responder.reply_wire(proto, wire, src, sport)
        if action == "answer":
            return [(0.0, good)]
        if action == "wrong_id":
            other = (int.from_bytes(good[:2], "big") + 1) & 0xFFFF
            return [(0.0, other.to_bytes(2, "big") + good[2:])]
        if action == "duplicate":
            return [(0.0, good), (0.01, good)]
        if action == "late":
            return [(LATE, good)]
        if action == "truncated":
            return [(0.0, good[:2] + bytes([good[2] | 0x02]) + good[3:])]
        if action == "malformed":
            return [(0.0, good[:2] + b"\xff" * 5)]
        if action == "reflect":
            return [(0.0, wire)]
        if action == "close":
            return None
        return []                       # drop

    def _on_datagram(self, payload, src, sport):
        for delay, wire in self._replies("udp", payload, src, sport) or []:
            self.host.scheduler.after(delay, self.sock.sendto, wire,
                                      src, sport)

    def _on_connection(self, conn):
        def answer(wire):
            replies = self._replies("tcp", wire, conn.raddr, conn.rport)
            if replies is None:
                conn.close()
                return
            for delay, out in replies:
                self.host.scheduler.after(delay, self._send, conn,
                                          frame_message(out))
        conn.on_data = LengthPrefixFramer(answer).feed

    @staticmethod
    def _send(conn, framed):
        if conn.state == "ESTABLISHED":
            conn.send(framed)


def run_hostile(script, protos, resilience):
    sim = Simulator()
    server = HostileServer(
        sim.add_host("server", ["10.0.0.2"], LinkParams()), script)
    client = sim.add_host("client", ["10.0.0.1"], LinkParams())
    querier = Querier(client, "10.0.0.2",
                      config=QuerierConfig(resilience=resilience))
    querier.timer.sync(0.0, sim.now)
    settled = []
    querier.on_settled = settled.append
    for i, proto in enumerate(protos):
        querier.handle_record(QueryRecord(
            time=0.05 * i, src=f"172.16.0.{i % 3 + 1}",
            qname="www.example.com.", proto=proto))
    sim.run_until_idle()
    return server, querier, settled


scripts = st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=8)
proto_lists = st.lists(st.sampled_from(("udp", "tcp")), min_size=1,
                       max_size=10)


# max_examples comes from the loaded profile (tests/conftest.py), so
# the CI fuzz job's seeded sweep can deepen these.

@settings(deadline=None)
@given(script=scripts, protos=proto_lists)
def test_resilient_querier_conserves_queries(script, protos):
    _server, querier, settled = run_hostile(script, protos, POLICY)
    verify_queriers([querier], expected_results=len(protos))
    # Quiescence: nothing strands, every result is answered or timed
    # out (never both: verify_queriers), and each settled exactly once.
    assert querier.pending_count() == 0
    assert not list(querier.pending_results())
    assert all(r.answered or r.timed_out for r in querier.results)
    assert sorted(r.row for r in settled) == list(range(len(querier.results)))
    assert querier.unanswered_at_close == 0


@settings(deadline=None)
@given(script=scripts, protos=proto_lists)
def test_unresilient_querier_conserves_queries(script, protos):
    _server, querier, settled = run_hostile(script, protos, None)
    # Without a policy nothing times out or retries: what was not
    # answered is still pending or was unanswered when its connection
    # closed, and verify_queriers checks the books balance.
    verify_queriers([querier], expected_results=len(protos))
    assert querier.timeouts == querier.retransmits == 0
    assert querier.tcp_fallbacks == querier.reconnects == 0
    open_ = [r for r in querier.results if not r.answered]
    assert len(open_) == (querier.pending_count()
                          + querier.unanswered_at_close)
    assert len(settled) == len(querier.results) - querier.pending_count()


def test_tc_on_every_udp_answer_falls_back_once_per_query():
    """A TC storm: every UDP answer is truncated, so every query moves
    to TCP exactly once — where the same script truncates again, and
    the second TC is taken as the answer rather than looping."""
    server, querier, _ = run_hostile(["truncated"], ["udp"] * 6, POLICY)
    assert querier.tcp_fallbacks == 6
    assert all(r.answered and r.fell_back for r in querier.results)
    assert server.seen == 12
    assert querier.pending_count() == 0


def test_reflected_query_is_not_an_answer():
    """A server or middlebox that echoes the query datagram back has
    not answered it: QR is clear, so the echo is counted as malformed
    and the query runs out its policy."""
    _server, querier, _ = run_hostile(["reflect"], ["udp", "tcp"], POLICY)
    assert not any(r.answered for r in querier.results)
    assert [r.timed_out for r in querier.results] == [True, True]
    assert [r.rcode for r in querier.results] == [None, None]
    # Three UDP attempts and one stream query, each echoed once.
    assert querier.malformed == 4
    verify_queriers([querier])


def test_reply_after_final_timeout_is_ignored():
    _server, querier, _ = run_hostile(["late"], ["udp", "tcp"], POLICY)
    assert [r.timed_out for r in querier.results] == [True, True]
    assert not any(r.answered for r in querier.results)
    verify_queriers([querier])


def test_close_with_query_outstanding_resends_once():
    """The stream dies under a query twice: one reconnect-resend, then
    the query is accounted as timed out, not re-sent for ever."""
    server, querier, _ = run_hostile(["close"], ["tcp"], POLICY)
    assert querier.reconnects == 1
    assert server.seen == 2
    assert querier.results[0].timed_out
    assert querier.pending_count() == 0
