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
  outcome**: per-query equality, keyed by the record's input index, of
  ``(answered, rcode, response_size, fell_back, timed_out)``, and of
  ``attempts`` when the kernel dropped no datagram — a divergence
  prints both sides' send and response times, rcode and size; every
  source must sit on the same querier positions
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

def _outcomes(report, with_attempts: bool) -> tuple[dict, dict]:
    """input index -> the outcomes of its sends (one, unless failover
    re-sent it), times left out; and input index -> (record, the
    ``(send_time, response_time, rcode, response_size)`` of each send),
    to print a divergence by."""
    outcomes: dict = {}
    timelines: dict = {}
    for r in report.results:
        outcome = (r.answered, r.rcode, r.response_size, r.fell_back,
                   r.timed_out) + ((r.attempts,) if with_attempts else ())
        outcomes.setdefault(r.index, []).append(outcome)
        timelines.setdefault(r.index, (r.record, []))[1].append(
            (r.send_time, r.response_time, r.rcode, r.response_size))
    for sends in outcomes.values():
        sends.sort(key=repr)
    return outcomes, timelines


def _timeline(sends: list) -> str:
    return "; ".join(
        f"sent {send:.6f}, " + (
            f"answered {response:.6f}" if response is not None
            else "no answer") + f", rcode {rcode}, {size} bytes"
        for send, response, rcode, size in sends) or "not sent"


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
    sim, sim_times = _outcomes(sim_report, with_attempts)
    live, live_times = _outcomes(live_report, with_attempts)
    differing = sorted(index for index in {**sim, **live}
                       if sim.get(index) != live.get(index))
    fields = "answered, rcode, response_size, fell_back, timed_out" \
        + (", attempts" if with_attempts else "")
    for index in differing[:MAX_LISTED]:
        record, sim_sends = sim_times.get(index, (None, []))
        live_record, live_sends = live_times.get(index, (None, []))
        record = record or live_record
        failures.append(
            f"outcome differs for input {index}, {record.qname} type "
            f"{record.qtype} from {record.src} over {record.proto} at "
            f"{record.time} ({fields}): sim {sim.get(index, [])} vs "
            f"live {live.get(index, [])}; sim {_timeline(sim_sends)}; "
            f"live {_timeline(live_sends)}")
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
