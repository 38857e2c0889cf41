"""The differential runner: same seeded trace, different executions.

Two comparison regimes, matching docs/VERIFICATION.md's determinism
scope:

* **sim vs sim** (:func:`diff_sim_matrix`) — every point of the
  conformance config matrix (answer cache on/off x serial/parallel
  pipeline) must produce a **byte-identical**
  ``ReplayReport.to_json``; optionally also identical to the committed
  golden, turning the matrix into a cross-release regression;
* **sim vs live** (:func:`diff_sim_live`) — real sockets cannot
  promise bytes, so the live run must agree **statistically** within
  :class:`ToleranceBands`: answered fractions within a band and the
  answered-qname multisets nearly equal; and, no band about it, each
  report carries every group and key of the declared report schema
  (:meth:`ReplayReport.schema`), so downstream tooling reads either
  unchanged.

Both reuse the backends registry's executors through the scenario
fixtures in :mod:`repro.check.scenarios`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ToleranceBands:
    """How far the live backend may drift from the sim (documented in
    docs/VERIFICATION.md; the defaults are deliberately tighter than
    "roughly agrees" — loopback runs are clean)."""

    # |answered_fraction(sim) - answered_fraction(live)|
    answered_fraction: float = 0.02
    # Symmetric difference of the answered-qname multisets, as a
    # fraction of the trace size.
    qname_fraction: float = 0.01


@dataclass
class DiffResult:
    """Outcome of one differential comparison."""

    label: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# -- sim vs sim ---------------------------------------------------------------

def diff_sim_matrix(golden: str | None = None) -> list[DiffResult]:
    """Run the full conformance matrix; every variant must match the
    first variant's report bytes (and *golden*'s, when given)."""
    from repro.check.scenarios import SIM_MATRIX, run_sim_variant
    results: list[DiffResult] = []
    reference: str | None = None
    reference_label = ""
    for label, kwargs in SIM_MATRIX:
        result = DiffResult(label=f"sim[{label}]")
        report_json = run_sim_variant(**kwargs).to_json(indent=2) + "\n"
        if reference is None:
            reference, reference_label = report_json, label
        elif report_json != reference:
            result.failures.append(
                f"report bytes differ from sim[{reference_label}]")
        if golden is not None and report_json != golden:
            result.failures.append(
                "report bytes differ from the committed golden")
        results.append(result)
    return results


# -- sim vs live --------------------------------------------------------------

def _answered_qnames(report) -> Counter:
    return Counter(r.record.qname for r in report.results if r.answered)


def compare_sim_live(sim_report, live_report,
                     bands: ToleranceBands | None = None) -> list[str]:
    """Band-check two reports; returns failure descriptions (unit-
    testable on fabricated reports, no sockets involved)."""
    bands = bands or ToleranceBands()
    failures: list[str] = []
    if len(sim_report.results) != len(live_report.results):
        failures.append(
            f"replayed record counts differ: sim "
            f"{len(sim_report.results)} vs live "
            f"{len(live_report.results)}")
    sim_frac = sim_report.answered_fraction()
    live_frac = live_report.answered_fraction()
    delta = abs(sim_frac - live_frac)
    if delta > bands.answered_fraction:
        failures.append(
            f"answered fractions differ by {delta:.4f} "
            f"(sim {sim_frac:.4f} vs live {live_frac:.4f}, "
            f"band {bands.answered_fraction})")
    sim_qnames = _answered_qnames(sim_report)
    live_qnames = _answered_qnames(live_report)
    mismatched = sum(((sim_qnames - live_qnames)
                      + (live_qnames - sim_qnames)).values())
    budget = bands.qname_fraction * max(1, len(sim_report.results))
    if mismatched > budget:
        failures.append(
            f"{mismatched} answered-qname mismatches exceed the "
            f"{bands.qname_fraction:.0%} band "
            f"({budget:.1f} of {len(sim_report.results)} records)")
    from repro.replay.engine import ReplayReport
    schema = ReplayReport.schema()
    for side, report in (("sim", sim_report), ("live", live_report)):
        metrics = report.metrics()
        if not schema.keys() <= metrics.keys():
            failures.append(
                f"{side} report lacks metric groups: "
                f"{sorted(schema.keys() - metrics.keys())}")
            continue
        for group, keys in schema.items():
            if not keys <= metrics[group].keys():
                failures.append(
                    f"{side} report lacks metric keys in group "
                    f"{group!r}: {sorted(keys - metrics[group].keys())}")
    return failures


def diff_sim_live(bands: ToleranceBands | None = None,
                  speed: float = 20.0) -> DiffResult:
    """Replay the conformance trace through both backends and
    band-compare the reports."""
    from repro.check.scenarios import run_live, run_sim_for_live
    sim_report = run_sim_for_live()
    live_report = run_live(speed=speed)
    return DiffResult(label="sim-vs-live",
                      failures=compare_sim_live(sim_report, live_report,
                                                bands))
