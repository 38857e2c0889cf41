"""Tests for QueryRecord and Trace containers."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.check.fuzzing import query_records
from repro.dns.constants import RRType
from repro.trace.record import PROTOCOLS, QueryRecord, Trace


def rec(t=0.0, src="10.0.0.1", qname="example.com.", **kw):
    return QueryRecord(time=t, src=src, qname=qname, **kw)


def test_to_message_round_trip_fields():
    record = rec(qtype=RRType.AAAA, msg_id=42, rd=True, do=True,
                 edns_payload=1232)
    message = record.to_message()
    assert message.msg_id == 42
    assert message.question.qtype == RRType.AAAA
    assert message.edns.do
    assert message.edns.payload == 1232
    back = QueryRecord.from_message(message, time=1.5, src="10.0.0.1",
                                    proto="udp")
    assert back.qname == "example.com."
    assert back.qtype == RRType.AAAA
    assert back.do and back.rd
    assert back.edns_payload == 1232


def test_no_edns_when_unset():
    assert rec().to_message().edns is None


def test_do_implies_edns():
    message = rec(do=True).to_message()
    assert message.edns is not None and message.edns.do


def test_bad_protocol_rejected():
    with pytest.raises(ValueError):
        rec(proto="sctp")


def test_with_creates_modified_copy():
    record = rec()
    changed = record.with_(proto="tcp")
    assert changed.proto == "tcp"
    assert record.proto == "udp"


@given(query_records(), st.fixed_dictionaries({}, optional={
    "time": st.floats(0.0, 1e6), "src": st.sampled_from(("10.0.0.1", "")),
    "qname": st.sampled_from((".", "a.example.")),
    "qtype": st.integers(1, 0xFFFF), "qclass": st.integers(1, 0xFFFF),
    "proto": st.sampled_from(PROTOCOLS), "sport": st.integers(0, 0xFFFF),
    "msg_id": st.integers(0, 0xFFFF), "rd": st.booleans(),
    "do": st.booleans(), "edns_payload": st.integers(0, 0xFFFF),
    "dst": st.sampled_from(("", "192.0.2.53"))}))
def test_with_is_dataclasses_replace(record, changes):
    """The copy-and-patch ``with_`` is pinned to the constructor path
    it replaced: same value, hash and pickle, still frozen."""
    before = dataclasses.astuple(record)
    new = record.with_(**changes)
    reference = dataclasses.replace(record, **changes)
    assert type(new) is QueryRecord
    assert new == reference and hash(new) == hash(reference)
    assert pickle.dumps(new) == pickle.dumps(reference)
    assert pickle.loads(pickle.dumps(new)) == reference
    assert new.with_() == new and new.with_() is not new
    with pytest.raises(dataclasses.FrozenInstanceError):
        new.time = 0.0
    assert dataclasses.astuple(record) == before


@pytest.mark.parametrize("changes, error", [
    ({"nope": 1}, TypeError), ({"proto": "sctp"}, ValueError),
    ({"qname": "a.", "ttl": 3}, TypeError)])
def test_with_rejects_what_replace_rejects(changes, error):
    for build in (rec().with_, lambda **c: dataclasses.replace(rec(), **c)):
        with pytest.raises(error):
            build(**changes)


def test_trace_sorted_and_duration():
    trace = Trace([rec(t=5.0), rec(t=1.0), rec(t=3.0)])
    ordered = trace.sorted()
    assert [r.time for r in ordered] == [1.0, 3.0, 5.0]
    assert ordered.duration() == 4.0


def test_trace_clients():
    trace = Trace([rec(src="a"), rec(src="b"), rec(src="a")])
    assert trace.clients() == {"a", "b"}


def test_rebase_time():
    trace = Trace([rec(t=100.5), rec(t=102.0)])
    rebased = trace.rebase_time(0.0)
    assert [r.time for r in rebased] == [0.0, 1.5]


def test_empty_trace_edge_cases():
    trace = Trace([])
    assert trace.duration() == 0.0
    assert trace.rebase_time().records == []
    assert len(trace) == 0
