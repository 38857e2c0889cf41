"""The differential runner: sim-vs-sim byte-identity and the
sim-vs-live per-query comparator.

The full 4-point matrix and the socket-driving live diff belong to
`ldp-verify --tier conformance` (and its CI job); here a matrix
subset pins the mechanism against the committed golden, and the
comparator is unit-tested on fabricated reports so every check fires.
"""

from dataclasses import dataclass, field

import pytest

import repro
import repro.check
from repro.check.differential import (MAX_LISTED, compare_sim_live,
                                      diff_sim_matrix)
from repro.check.golden import GOLDEN_DIR, SIM_REPORT
from repro.check.scenarios import SIM_MATRIX, run_sim_variant
from repro.replay import ReplayReport
from repro.replay.querier import QueryResult
from repro.trace.record import QueryRecord


def test_matrix_covers_all_three_axes():
    assert len(SIM_MATRIX) == 4
    labels = [label for label, _ in SIM_MATRIX]
    assert len(set(labels)) == 4
    for axis in ("cache=on", "cache=off",
                 "pipeline=serial", "pipeline=parallel"):
        assert sum(axis in label for label in labels) == 2


@pytest.mark.slow
def test_matrix_corner_matches_committed_golden():
    """The far corner of the config matrix (cache off, parallel
    pipeline) reproduces the committed golden byte-for-byte — the same
    check `ldp-verify --tier conformance` runs over all four points."""
    golden = (GOLDEN_DIR / SIM_REPORT).read_text(encoding="utf-8")
    report = run_sim_variant(answer_cache=False, parallel=True)
    assert report.to_json(indent=2) + "\n" == golden


def test_diff_sim_matrix_flags_divergence(monkeypatch):
    """The matrix comparator flags both kinds of mismatch: a variant
    diverging from the first variant, and any variant diverging from
    the committed golden (stubbed runs keep this fast)."""
    import repro.check.scenarios as scenarios

    class _Stub:
        def __init__(self, payload):
            self.payload = payload

        def to_json(self, indent=None):
            return self.payload

    outputs = iter(["same"] * 3 + ["DIFFERENT"])
    monkeypatch.setattr(scenarios, "run_sim_variant",
                        lambda **kw: _Stub(next(outputs)))
    results = diff_sim_matrix(golden="same\n")
    assert [r.ok for r in results] == [True] * 3 + [False]
    assert any("differ" in f for f in results[-1].failures)
    assert any("golden" in f for f in results[-1].failures)


# -- the per-query comparator on fabricated reports ---------------------------

def _declared_schema(without_group=None, without_key=None):
    """A metrics() dict with exactly the declared groups and keys."""
    return {group: dict.fromkeys(keys - {without_key}, 0)
            for group, keys in ReplayReport.schema().items()
            if group != without_group}


@dataclass
class _FakeReport:
    results: list = field(default_factory=list)
    schema: dict = field(default_factory=_declared_schema)
    queriers: list = field(default_factory=list)

    def metrics(self):
        return self.schema


def _result(qname, answered=True, src="10.0.0.1", index=0, **outcome):
    """An answered NOERROR 60-byte result for input *index* unless
    *outcome* says else."""
    outcome = {"rcode": 0, "response_size": 60, **outcome} \
        if answered else outcome
    return QueryResult(
        record=QueryRecord(time=1.0, src=src, qname=qname),
        send_time=1.0, scheduled_time=1.0,
        response_time=1.5 if answered else None, index=index, **outcome)


def _report(qnames, answered=True, schema=None):
    report = _FakeReport([_result(q, answered, index=i)
                          for i, q in enumerate(qnames)])
    if schema is not None:
        report.schema = schema
    return report


def test_identical_reports_pass_all_bands():
    a = _report(["q1.", "q2.", "q3."])
    b = _report(["q1.", "q2.", "q3."])
    # Times are the substrate's own and never compared.
    b.results[0].send_time = b.results[0].response_time = 9.0
    assert compare_sim_live(a, b) == []


def test_unanswered_queries_are_reported_one_by_one():
    sim = _report(["q1.", "q2.", "q3.", "q4."])
    live = _FakeReport([_result("q1.", index=0),
                        _result("q2.", False, index=1),
                        _result("q3.", False, index=2, timed_out=True),
                        _result("q4.", index=3)])
    failures = compare_sim_live(sim, live)
    assert len(failures) == 2
    assert "q2." in failures[0] and "q3." in failures[1]


@pytest.mark.parametrize("field, value", [
    ("rcode", 3), ("response_size", 61), ("fell_back", True),
    ("attempts", 2)])
def test_planted_divergence_names_the_query_and_both_outcomes(field,
                                                             value):
    sim = _report([f"q{i}." for i in range(100)])
    live = _report([f"q{i}." for i in range(100)])
    setattr(live.results[41], field, value)
    (failure,) = compare_sim_live(sim, live)
    assert "q41." in failure
    same = dict(rcode=0, response_size=60, fell_back=False, attempts=1)
    for side, outcome in (("sim", same), ("live", {**same, field: value})):
        shown = (True, outcome["rcode"], outcome["response_size"],
                 outcome["fell_back"], False, outcome["attempts"])
        assert f"{side} [{shown}]" in failure


def test_attempts_are_compared_only_without_live_retransmits():
    """A datagram the kernel dropped costs the live side a resend."""
    sim, live = _report(["q1."]), _report(["q1."])
    live.results[0].attempts = 2
    assert len(compare_sim_live(sim, live)) == 1
    live.schema["replay"]["retransmits"] = 1
    assert compare_sim_live(sim, live) == []


def test_long_divergence_lists_are_capped():
    sim = _report([f"q{i}." for i in range(50)])
    live = _report([f"q{i}." for i in range(50)], answered=False)
    failures = compare_sim_live(sim, live)
    assert len(failures) == MAX_LISTED + 1
    assert f"{50 - MAX_LISTED} more" in failures[-1]


def test_schema_band_fires_on_missing_key():
    live = _report(["q1."],
                   schema=_declared_schema(without_key="retransmits"))
    failures = compare_sim_live(_report(["q1."]), live)
    assert any("metric keys" in f and "live" in f and "retransmits" in f
               for f in failures)


def test_schema_band_fires_on_missing_group():
    live = _report(["q1."], schema=_declared_schema(without_group="server"))
    failures = compare_sim_live(_report(["q1."]), live)
    assert any("metric groups" in f and "server" in f for f in failures)


def test_recorded_extras_of_an_observed_run_are_not_a_schema_failure():
    observed = _declared_schema()
    observed["replay"]["latency"] = {"count": 1}
    observed["scheduler"] = {"events_processed": 9.0}
    assert compare_sim_live(_report(["q1."], schema=observed),
                            _report(["q1."])) == []


@dataclass
class _FakeQuerier:
    name: str
    results: list


def _placed(prefix, positions):
    """One source per querier position, each with one answered query."""
    results = [_result(f"q{i}.", src=f"10.0.0.{i}", index=i)
               for i in range(len(positions))]
    return _FakeReport(results, queriers=[
        _FakeQuerier(f"{prefix}{position}", [result])
        for position, result in zip(positions, results)])


def test_source_on_another_querier_position_is_reported():
    """Both backends place a source through the same pin tables, so a
    source whose results sit on another querier position (``i.q``) is
    named even when every outcome is equal."""
    sim = _placed("querier-", ["0.0", "0.1", "1.0"])
    assert compare_sim_live(
        sim, _placed("live-querier-", ["0.0", "0.1", "1.0"])) == []
    (failure,) = compare_sim_live(
        sim, _placed("live-querier-", ["0.0", "1.1", "1.0"]))
    assert "source 10.0.0.1" in failure
    assert "['0.1'] on sim vs ['1.1'] on live" in failure


def test_record_count_mismatch_reported():
    failures = compare_sim_live(_report(["q1.", "q2."]),
                                _report(["q1."]))
    assert any("record counts" in f for f in failures)


def test_answered_qname_counter_is_a_multiset():
    """A trace may repeat a record: outcomes are compared per input
    index, so one answer too few for a repeated query shows."""
    sim = _report(["dup.", "dup.", "q."])
    live = _FakeReport([_result("dup.", index=0),
                        _result("dup.", False, index=1),
                        _result("q.", index=2)])
    (failure,) = compare_sim_live(sim, live)
    assert "dup." in failure


def test_tolerance_bands_are_gone():
    """1.10.0: sim = live is equality; there is no band to widen."""
    assert repro.__version__ == "1.15.0"
    for module in (repro, repro.check, repro.check.differential):
        assert not hasattr(module, "ToleranceBands")
    with pytest.raises(TypeError):
        compare_sim_live(_report([]), _report([]), bands=None)
