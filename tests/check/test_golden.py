"""The golden corpus: verify mode is the automated successor of the
per-PR manual "byte-identical vs pre-PR HEAD" diff.

The committed files under tests/golden/ are the contract; these tests
recompute them from the current tree and demand byte-identity.  A
legitimate engine change re-records them (``ldp-verify --record``) in
the same PR, which shows up in review as a golden diff.
"""

import json

import pytest

from repro.check.golden import (GOLDEN_DIR, GOLDENS, SIM_REPORT,
                                WIRE_MESSAGES, describe_diff,
                                record_goldens, verify_goldens)


def test_golden_files_are_committed():
    for name in GOLDENS:
        assert (GOLDEN_DIR / name).exists(), \
            f"{name} missing: run `ldp-verify --record` and commit"


@pytest.mark.slow
def test_sim_report_matches_committed_golden():
    """The canonical conformance replay reproduces the committed
    report byte-for-byte (the cross-release determinism contract)."""
    failures = verify_goldens(names=[SIM_REPORT])
    assert failures == []


def test_wire_corpus_matches_committed_golden():
    failures = verify_goldens(names=[WIRE_MESSAGES])
    assert failures == []


def test_wire_corpus_covers_the_answer_shapes():
    corpus = json.loads((GOLDEN_DIR / WIRE_MESSAGES).read_text())
    assert {"a_exact", "wildcard", "cname", "delegation", "nxdomain",
            "nodata", "refused", "edns_do", "truncated_udp",
            "big_tcp"} <= set(corpus)
    # The truncation case actually truncates: the UDP answer is tiny,
    # the same query over TCP carries the full RRset.
    assert len(corpus["truncated_udp"]["response"]) \
        < len(corpus["big_tcp"]["response"])
    # Every case got an answer (REFUSED is still a response).
    assert all(entry["response"] for entry in corpus.values())


def test_record_and_verify_round_trip(tmp_path):
    """record writes exactly what verify accepts; a tampered byte is
    reported with the diverging key paths."""
    paths = record_goldens(tmp_path, names=[WIRE_MESSAGES])
    assert verify_goldens(tmp_path, names=[WIRE_MESSAGES]) == []
    content = paths[0].read_text()
    paths[0].write_text(content.replace('"proto"', '"prot0"', 1))
    failures = verify_goldens(tmp_path, names=[WIRE_MESSAGES])
    assert len(failures) == 1
    # (fresh vs the tampered committed file)
    assert "+1 keys (a_exact.proto)" in failures[0]
    assert "1 removed (a_exact.prot0)" in failures[0]


def test_describe_diff_names_added_changed_and_removed_paths():
    """What a re-record is reviewed by: every changed and removed key
    path spelled out, added ones counted."""
    old = {"meta": {"version": 1, "gone": True}, "replay": {"sent": 5}}
    new = {"meta": {"version": 2}, "replay": {"sent": 5, "shed": 0,
                                              "lag": {"p50": 0.0}}}
    assert describe_diff(json.dumps(old), json.dumps(new)) == (
        "+2 keys (replay.lag.p50, replay.shed), "
        "1 changed (meta.version 1 -> 2), 1 removed (meta.gone)")
    assert describe_diff(json.dumps(old), json.dumps(old, indent=2)) \
        == "same keys and values, formatting differs"


def test_missing_golden_is_reported(tmp_path):
    failures = verify_goldens(tmp_path, names=[SIM_REPORT])
    assert len(failures) == 1
    assert "missing" in failures[0]
