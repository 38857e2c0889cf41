"""Fidelity under faults: answered fraction and latency tails vs loss.

The §4-style validation asks "does the replayed workload reach the
server and come back, and at what latency?"  This experiment repeats
that check on a degraded network: sweep symmetric client-uplink loss
against querier retry policies and report, per cell,

* answered fraction (with retries it should stay ≈ 1.0 well past the
  loss rates where the brittle client visibly under-reports),
* latency median and tail (recovered queries pay whole retry timeouts,
  so the tail — not the median — carries the loss signal),
* the recovery accounting (retransmits, timeouts, recovered), so no
  degradation is silent.

Run as a module for the table, or call :func:`sweep` for the cells.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.experiments.harness import authoritative_world, wildcard_zone
from repro.replay.querier import ResilienceConfig
from repro.trace.record import QueryRecord, Trace
from repro.util.stats import Summary, summarize

# A fast policy for sweeps: sim RTTs are ~ms, so sub-second timeouts
# keep retry latency visible without dominating the run length.
SWEEP_POLICY = ResilienceConfig(timeout=0.25, max_retries=3, backoff=2.0)


@dataclass
class ResilienceCell:
    loss: float
    policy: str                     # "none" or e.g. "t=0.25s r=3 b=2.0"
    answered_fraction: float
    latency: Summary | None         # answered queries only, seconds
    timed_out: int
    retransmits: int
    recovered: int
    still_pending: int              # must be 0 with a retry policy


def policy_label(resilience: ResilienceConfig | None) -> str:
    if resilience is None:
        return "none"
    return (f"t={resilience.timeout:g}s r={resilience.max_retries} "
            f"b={resilience.backoff:g}")


def loss_trace(n: int = 400, gap: float = 0.005, clients: int = 24,
               proto: str = "udp") -> Trace:
    return Trace([QueryRecord(time=i * gap,
                              src=f"10.9.0.{i % clients + 1}",
                              qname=f"r{i}.example.com.", proto=proto)
                  for i in range(n)], name="resilience-sweep")


def run_cell(loss: float, resilience: ResilienceConfig | None,
             n: int = 400, proto: str = "udp",
             seed: int = 31) -> ResilienceCell:
    world = authoritative_world(
        [wildcard_zone()], mode="direct", timing_jitter=False,
        client_loss=loss, resilience=resilience, seed=seed)
    # Drain long enough for the slowest retry ladder to finish.
    extra = 2.0
    if resilience is not None:
        extra += sum(resilience.wait_for(a + 1)
                     for a in range(resilience.max_retries + 1))
    report = world.run(loss_trace(n=n, proto=proto),
                       extra_time=extra).report
    latencies = report.latencies()
    queriers = report.queriers
    return ResilienceCell(
        loss=loss, policy=policy_label(resilience),
        answered_fraction=report.answered_fraction(),
        latency=summarize(latencies) if latencies else None,
        timed_out=sum(1 for r in report.results if r.timed_out),
        retransmits=sum(q.retransmits for q in queriers),
        recovered=sum(q.recovered for q in queriers),
        still_pending=sum(q.pending_count() for q in queriers))


def sweep(losses=(0.0, 0.02, 0.05, 0.10),
          policies=(None, SWEEP_POLICY),
          n: int = 400, proto: str = "udp") -> list[ResilienceCell]:
    return [run_cell(loss, policy, n=n, proto=proto)
            for loss in losses for policy in policies]


def main() -> int:
    """Print the sweep; 1 when a cell with a retry policy strands
    queries."""
    cells = sweep()
    print("== answered fraction and latency under loss "
          "(retry policy vs none) ==")
    for cell in cells:
        if cell.latency is not None:
            lat = (f"median={cell.latency.median * 1000:6.1f}ms "
                   f"p95={cell.latency.p95 * 1000:7.1f}ms "
                   f"max={cell.latency.maximum * 1000:7.1f}ms")
        else:
            lat = "no answers"
        print(f"loss={cell.loss:4.0%} policy={cell.policy:<16} "
              f"answered={cell.answered_fraction:7.2%} {lat} "
              f"retx={cell.retransmits:4d} timeouts={cell.timed_out:3d} "
              f"recovered={cell.recovered:4d}")
    worst = [c for c in cells if c.policy != "none" and c.still_pending]
    if worst:
        print(f"WARNING: {len(worst)} cells stranded queries")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
