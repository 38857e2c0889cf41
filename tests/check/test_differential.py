"""The differential runner: sim-vs-sim byte-identity and the
sim-vs-live tolerance-band comparator.

The full 4-point matrix and the socket-driving live diff belong to
`ldp-verify --tier conformance` (and its CI job); here a matrix
subset pins the mechanism against the committed golden, and the band
comparator is unit-tested on fabricated reports so every band fires.
"""

from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro.check.differential import (ToleranceBands, compare_sim_live,
                                      diff_sim_matrix)
from repro.check.golden import GOLDEN_DIR, SIM_REPORT
from repro.check.scenarios import SIM_MATRIX, run_sim_variant
from repro.replay import ReplayReport


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


# -- the band comparator on fabricated reports --------------------------------

@dataclass
class _FakeResult:
    qname: str
    answered: bool

    @property
    def record(self):
        return self


def _declared_schema(without_group=None, without_key=None):
    """A metrics() dict with exactly the declared groups and keys."""
    return {group: dict.fromkeys(keys - {without_key}, 0)
            for group, keys in ReplayReport.schema().items()
            if group != without_group}


@dataclass
class _FakeReport:
    results: list = field(default_factory=list)
    schema: dict = field(default_factory=_declared_schema)

    def answered_fraction(self):
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.answered) \
            / len(self.results)

    def metrics(self):
        return self.schema


def _report(qnames, answered=True, schema=None):
    report = _FakeReport([_FakeResult(q, answered) for q in qnames])
    if schema is not None:
        report.schema = schema
    return report


def test_identical_reports_pass_all_bands():
    a = _report(["q1.", "q2.", "q3."])
    b = _report(["q1.", "q2.", "q3."])
    assert compare_sim_live(a, b) == []


def test_answered_fraction_band_fires():
    sim = _report(["q1.", "q2.", "q3.", "q4."])
    live = _FakeReport([_FakeResult("q1.", True),
                        _FakeResult("q2.", False),
                        _FakeResult("q3.", False),
                        _FakeResult("q4.", False)])
    failures = compare_sim_live(sim, live)
    assert any("answered fractions" in f for f in failures)


def test_qname_multiset_band_fires_and_scales():
    sim = _report([f"q{i}." for i in range(100)])
    live = _report([f"q{i}." for i in range(99)] + ["other."])
    # 2 mismatches on 100 records: outside the default 1% band...
    failures = compare_sim_live(sim, live)
    assert any("qname" in f for f in failures)
    # ...inside a widened one.
    assert compare_sim_live(
        sim, live, ToleranceBands(qname_fraction=0.05)) == []


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


def test_record_count_mismatch_reported():
    failures = compare_sim_live(_report(["q1.", "q2."]),
                                _report(["q1."]))
    assert any("record counts" in f for f in failures)


def test_answered_qname_counter_is_a_multiset():
    sim = _report(["dup.", "dup.", "q."])
    live = _report(["dup.", "q.", "q."])
    failures = compare_sim_live(sim, live)
    assert any("qname" in f for f in failures)
    counts = Counter(r.qname for r in sim.results)
    assert counts["dup."] == 2
