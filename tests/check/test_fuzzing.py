"""The structured fuzzer: strategy sanity, the CLI fuzz driver, and
seed reproducibility.

The full 10k-example budget belongs to `ldp-verify --tier fuzz` and
the CI fuzz job; here each strategy is sampled a little and the driver
is run small to pin its report shape.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings

from repro.check.fuzzing import (FuzzReport, dns_messages, dns_names,
                                 edns_options, fuzz_targets, hostile_wire,
                                 query_records, run_fuzz, wire_messages)
from repro.dns.message import Message
from repro.dns.name import Name
from repro.trace.record import QueryRecord

FEW = settings(max_examples=25, deadline=None)


@given(dns_names())
@FEW
def test_dns_names_are_names(name):
    assert isinstance(name, Name)
    assert name.wire_length() <= 255


@given(edns_options())
@FEW
def test_edns_options_are_parseable_tlvs(blob):
    # Walk the TLV chain: it must consume the blob exactly.
    pos = 0
    while pos < len(blob):
        length = int.from_bytes(blob[pos + 2:pos + 4], "big")
        pos += 4 + length
    assert pos == len(blob)


@given(dns_messages())
@FEW
def test_dns_messages_round_trip(message):
    assert isinstance(message, Message)
    back = Message.from_wire(message.to_wire())
    assert back.msg_id == message.msg_id


@given(wire_messages())
@FEW
def test_wire_messages_are_bytes_with_header(wire):
    assert isinstance(wire, bytes)
    assert len(wire) >= 12


@given(hostile_wire())
@FEW
def test_hostile_wire_is_bytes(blob):
    assert isinstance(blob, bytes)


@given(query_records())
@FEW
def test_query_records_are_valid(record):
    assert isinstance(record, QueryRecord)
    assert record.proto in ("udp", "tcp", "tls", "quic")
    assert record.time >= 0.0


def test_fuzz_targets_cover_the_five_surfaces():
    # ... the responder twice: never-crash, and precompiled == plain.
    assert set(fuzz_targets()) == {"message_parser", "responder",
                                   "responder_precompiled",
                                   "trace_binary", "trace_text",
                                   "wire_round_trip"}


def test_run_fuzz_small_budget_zero_crashes():
    report = run_fuzz(max_examples=60, seed=7)
    assert isinstance(report, FuzzReport)
    assert report.seed == 7
    assert set(report.examples) == set(fuzz_targets())
    assert report.total_examples == 60
    assert report.elapsed >= 0.0


def test_run_fuzz_accepts_target_subset():
    report = run_fuzz(max_examples=20, seed=1,
                      targets=["wire_round_trip"])
    assert set(report.examples) == {"wire_round_trip"}
    assert report.total_examples == 20


def test_run_fuzz_splits_budget_across_targets():
    report = run_fuzz(max_examples=10, seed=0,
                      targets=["message_parser", "trace_text"])
    # Every requested target gets a non-zero share.
    assert all(count > 0 for count in report.examples.values())
    assert report.total_examples == 10
