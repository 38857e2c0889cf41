"""Querier failover: answered fraction vs crash time, with and without
supervision.

LDplayer's distributed replay (§2.6) pins each source to one querier
for socket fidelity, which makes a querier crash a single point of
failure for its sources.  This sweep crashes one of the six queriers at
different points of a B-Root-analogue replay and reports, per cell,

* answered fraction — with supervision it stays ≈ 1.0 at every crash
  time (the supervisor re-pins the dead querier's sources and
  re-dispatches its parked records exactly once); without supervision
  it decays roughly linearly with the remaining trace,
* the failover accounting (records re-dispatched, in-flight queries
  surfaced as ``failed_over``), so nothing is silently lost.

Run as a module for the table (the CI ``chaos`` job archives this
output), or call :func:`sweep` for the cells.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.experiments.harness import (authoritative_world,
                                       root_zone_world,
                                       wildcard_root_zone)
from repro.netsim.faults import FaultPlan, QuerierCrash
from repro.replay.supervisor import SupervisionConfig
from repro.workloads.broot import broot16

DURATION = 2.0
TARGET = "querier-0.1"


@dataclass
class FailoverCell:
    crash_at: float             # seconds into the replay; < 0 = no crash
    supervised: bool
    answered_fraction: float
    failovers: int
    redispatched: int
    failed_over: int            # in-flight at crash, lost with the process


def run_cell(crash_at: float, supervised: bool,
             seed: int = 11) -> FailoverCell:
    internet = root_zone_world(tlds=4, slds_per_tld=4, seed=3)
    zone = wildcard_root_zone(internet)
    trace = broot16(internet, duration=DURATION, mean_rate=150,
                    clients=40)
    plan = None
    if crash_at >= 0:
        plan = FaultPlan([QuerierCrash(start=crash_at, target=TARGET)])
    world = authoritative_world(
        [zone], mode="distributed", client_instances=2,
        queriers_per_instance=3, seed=seed, fault_plan=plan,
        supervision=SupervisionConfig() if supervised else None)
    report = world.run(trace, extra_time=2.0).report
    answered = sum(1 for r in report.results if r.answered)
    supervisor = world.engine.supervisor
    return FailoverCell(
        crash_at=crash_at, supervised=supervised,
        answered_fraction=answered / len(trace),
        failovers=supervisor.failovers if supervisor else 0,
        redispatched=supervisor.redispatched if supervisor else 0,
        failed_over=sum(q.failed_over for q in world.engine.queriers))


def sweep(crash_times=(-1.0, 0.5, 1.0, 1.5),
          seed: int = 11) -> list[FailoverCell]:
    return [run_cell(crash_at, supervised, seed=seed)
            for crash_at in crash_times
            for supervised in (False, True)]


def main() -> int:
    """Print the sweep; 1 when a supervised cell misses the bar."""
    cells = sweep()
    print("== answered fraction vs querier crash time "
          "(supervision off/on) ==")
    for cell in cells:
        when = ("no crash" if cell.crash_at < 0
                else f"t={cell.crash_at:.2f}s")
        mode = "supervised" if cell.supervised else "bare"
        print(f"crash={when:<8} {mode:<10} "
              f"answered={cell.answered_fraction:7.2%} "
              f"failovers={cell.failovers} "
              f"redispatched={cell.redispatched:3d} "
              f"failed_over={cell.failed_over:2d}")
    stranded = [c for c in cells
                if c.supervised and c.crash_at >= 0
                and c.answered_fraction < 0.99]
    if stranded:
        print(f"WARNING: {len(stranded)} supervised cells below the "
              f"0.99 answered bar")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
