"""The differential runner: same seeded trace, different executions.

Two comparison regimes, matching docs/VERIFICATION.md's determinism
scope:

* **sim vs sim** (:func:`diff_sim_matrix`) — every point of the
  conformance config matrix (answer cache on/off x serial/parallel
  pipeline) must produce a **byte-identical**
  ``ReplayReport.to_json``; optionally also identical to the committed
  golden, turning the matrix into a cross-release regression;
* **sim vs live** (:func:`diff_sim_live`) — real sockets cannot
  promise times, but both substrates run the one ``Querier`` against
  the one ``DnsResponder``, so every query must have the **same
  outcome**: per-query equality of ``(answered, rcode, response_size,
  fell_back, timed_out)``, and of ``attempts`` when the kernel dropped
  no datagram; every source must sit on the same querier positions
  (``i.q``) on both, since both place it through the same pin tables;
  and each report carries every group and key of the declared report
  schema (:meth:`ReplayReport.schema`), so downstream tooling reads
  either unchanged.

Both reuse the backends registry's executors through the scenario
fixtures in :mod:`repro.check.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Differing queries listed one by one before the rest are only counted.
MAX_LISTED = 10


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

def _outcomes(report, with_attempts: bool) -> dict:
    """record -> the sorted outcomes of its queries (a trace may repeat
    a record): what became of each, times left out."""
    by_record: dict = {}
    for r in report.results:
        outcome = (r.answered, r.rcode, r.response_size, r.fell_back,
                   r.timed_out) + ((r.attempts,) if with_attempts else ())
        by_record.setdefault(r.record, []).append(outcome)
    for outcomes in by_record.values():
        outcomes.sort(key=repr)
    return by_record


def _placement(report) -> dict:
    """source -> the querier positions (``i.q`` of ``querier-i.q`` on
    the sim, ``live-querier-i.q`` live) its results sit on."""
    placed: dict = {}
    for querier in report.queriers:
        position = querier.name.rpartition("querier-")[2]
        for result in querier.results:
            placed.setdefault(result.record.src, set()).add(position)
    return placed


def compare_sim_live(sim_report, live_report) -> list[str]:
    """Compare two reports query by query; returns failure
    descriptions (unit-testable on fabricated reports, no sockets
    involved)."""
    failures: list[str] = []
    if len(sim_report.results) != len(live_report.results):
        failures.append(
            f"replayed record counts differ: sim "
            f"{len(sim_report.results)} vs live "
            f"{len(live_report.results)}")
    # A datagram the kernel dropped costs the live side one more send;
    # only a live run without retransmits owes the sim's attempts.
    with_attempts = \
        live_report.metrics().get("replay", {}).get("retransmits") == 0
    sim = _outcomes(sim_report, with_attempts)
    live = _outcomes(live_report, with_attempts)
    differing = [record for record in {**sim, **live}
                 if sim.get(record) != live.get(record)]
    fields = "answered, rcode, response_size, fell_back, timed_out" \
        + (", attempts" if with_attempts else "")
    for record in differing[:MAX_LISTED]:
        failures.append(
            f"outcome differs for {record.qname} type {record.qtype} "
            f"from {record.src} over {record.proto} at {record.time} "
            f"({fields}): sim {sim.get(record, [])} vs live "
            f"{live.get(record, [])}")
    if len(differing) > MAX_LISTED:
        failures.append(f"... and {len(differing) - MAX_LISTED} more "
                        f"queries with differing outcomes")
    sim, live = _placement(sim_report), _placement(live_report)
    misplaced = sorted(src for src in {**sim, **live}
                       if sim.get(src) != live.get(src))
    for src in misplaced[:MAX_LISTED]:
        failures.append(
            f"source {src} sits on querier {sorted(sim.get(src, ()))} "
            f"on sim vs {sorted(live.get(src, ()))} on live")
    if len(misplaced) > MAX_LISTED:
        failures.append(f"... and {len(misplaced) - MAX_LISTED} more "
                        f"sources placed differently")
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


def diff_sim_live(speed: float = 20.0) -> list[DiffResult]:
    """Replay every shape of the live matrix through both backends and
    compare the reports query by query."""
    from repro.check.scenarios import (LIVE_MATRIX,
                                       conformance_zone_and_trace,
                                       run_for_live)
    results = []
    for label, shape in LIVE_MATRIX:
        sim_report = run_for_live("sim", *conformance_zone_and_trace(),
                                  **shape)
        live_report = run_for_live("live", *conformance_zone_and_trace(),
                                   speed=speed, **shape)
        results.append(DiffResult(
            label=f"sim-vs-live[{label}]",
            failures=compare_sim_live(sim_report, live_report)))
    return results
