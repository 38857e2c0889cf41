"""The querier's wire-level fast path against the full codec.

The querier sends memoised query bytes and matches responses on the
12-byte header (docs/BACKENDS.md); the full encoder and decoder are the
reference.  Here: the memoised bytes equal the encoder's for any record
and id, and ``ReplayConfig(check=True)`` really compares — a planted
divergence on either side raises :class:`InvariantViolation`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.replay.querier as querier_module
import repro.trace.record as record_module
from repro.check.fuzzing import query_records
from repro.check.invariants import InvariantViolation
from repro.dns.constants import RRClass
from repro.dns.message import Edns, Message
from repro.netsim import LinkParams, Simulator
from repro.replay import ReplayConfig, ReplayEngine
from repro.trace.record import QUERY_WIRE_MEMO, QueryRecord, Trace

from tests.check.test_invariants import build_world

msg_ids = st.integers(0, 0xFFFF)
qclasses = st.sampled_from((RRClass.IN, RRClass.CH, RRClass.ANY))


def full_encode(record, msg_id):
    return record.with_(msg_id=msg_id).to_message().to_wire()


# max_examples comes from the loaded profile, so the CI fuzz job's
# seeded sweep can deepen this.
@settings(deadline=None)
@given(query_records(), qclasses, msg_ids, msg_ids)
def test_query_wire_equals_the_full_encoder(record, qclass, first, second):
    record = record.with_(qclass=qclass)
    assert record.query_wire(first) == full_encode(record, first)
    # The memoised tail serves another id, and a rebuilt one is the same.
    assert record.query_wire(second) == full_encode(record, second)
    record_module._query_tail.cache_clear()
    assert record.query_wire(first) == full_encode(record, first)


def test_query_wire_memo_is_bounded_and_survives_eviction():
    tail = record_module._query_tail
    tail.cache_clear()
    records = [QueryRecord(time=0.0, src="10.0.0.1",
                           qname=f"n{i}.example.com.")
               for i in range(QUERY_WIRE_MEMO + 1)]
    for record in records:
        record.query_wire(1)
    info = tail.cache_info()
    assert info.currsize == info.maxsize == QUERY_WIRE_MEMO
    # The first question was evicted: it is encoded again, identically.
    assert records[0].query_wire(9) == full_encode(records[0], 9)
    assert tail.cache_info().misses == QUERY_WIRE_MEMO + 2


def test_query_wire_memo_tells_questions_apart():
    base = QueryRecord(time=0.0, src="10.0.0.1", qname="a.example.com.")
    variants = [base, base.with_(qtype=16), base.with_(qclass=RRClass.CH),
                base.with_(rd=True), base.with_(do=True),
                base.with_(edns_payload=1232),
                base.with_(qname="A.example.com.")]
    wires = [record.query_wire(5) for record in variants]
    assert len(set(wires)) == len(variants)
    assert wires == [full_encode(record, 5) for record in variants]
    # What the bytes do not depend on shares one entry.
    assert base.with_(src="10.0.0.2", time=3.0, proto="tcp",
                      msg_id=77).query_wire(5) == wires[0]


# -- check=True compares the fast path with the full codec --------------------

def mixed_trace():
    return Trace([QueryRecord(time=0.05 * i, src=f"172.16.0.{i % 3 + 1}",
                              qname=f"m{i % 4}.example.com.",
                              proto=("udp", "tcp")[i % 2])
                  for i in range(12)])


def run(check):
    engine = ReplayEngine(build_world(), "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=6, check=check))
    return engine.run(mixed_trace())


def test_planted_header_divergence_is_a_violation(monkeypatch):
    """A header reader that misreports the rcode goes unnoticed by an
    unchecked run and is caught on the first response by a checked one."""
    real = querier_module.read_header

    def skewed(wire):
        msg_id, qr, tc, rcode = real(wire)
        return msg_id, qr, tc, rcode ^ 1

    monkeypatch.setattr(querier_module, "read_header", skewed)
    assert {r.rcode for r in run(check=False).results} == {1}
    with pytest.raises(InvariantViolation, match="header read"):
        run(check=True)


def test_planted_encode_divergence_is_a_violation(monkeypatch):
    """A memo that hands out another question's bytes."""
    monkeypatch.setattr(
        QueryRecord, "query_wire",
        lambda self, msg_id: full_encode(
            self.with_(qname="other.example.com."), msg_id))
    assert run(check=False).answered_fraction() == 1.0
    with pytest.raises(InvariantViolation, match="full encoder"):
        run(check=True)


def replay_against(reply, check):
    """One UDP query to a socket that answers ``reply(query_bytes)``."""
    sim = Simulator()
    server = sim.add_host("server", ["10.0.0.2"], LinkParams())
    sock = server.udp_socket(53)
    sock.on_datagram = lambda payload, src, sport: sock.sendto(
        reply(payload), src, sport)
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=1, seed=6, check=check))
    return engine.run(Trace([QueryRecord(time=0.0, src="172.16.0.1",
                                         qname="a.example.com.")]))


def test_extended_rcode_is_a_violation_when_checked():
    """BADVERS and up keep their high bits in the OPT TTL, where the
    header reader does not look; no server in this tree sends one."""
    def badvers(payload):
        response = Message.from_wire(payload).make_response()
        response.edns = Edns(ext_rcode=1)
        return response.to_wire()

    assert replay_against(badvers, check=False).results[0].rcode == 0
    with pytest.raises(InvariantViolation, match="extended rcode"):
        replay_against(badvers, check=True)


def test_unparseable_body_is_a_violation_when_checked():
    def hollow(payload):    # the header announces a question; none follows
        return payload[:2] + b"\x80\x00\x00\x01" + bytes(6)

    assert replay_against(hollow, check=False).results[0].answered
    with pytest.raises(InvariantViolation, match="does not parse"):
        replay_against(hollow, check=True)
