"""Distributors: fan records out to queriers, sticky by source (§2.6).

"each distributor either picks the next entity based on a recent query
source address in record, or selects randomly otherwise (during
startup)" — same-source queries must land on the same querier so that
socket/connection reuse is emulated correctly.

Distributor and querier processes live on the same client-instance host
(Figure 4); the distributor hands records to queriers over a Unix
socket, modelled as a small constant IPC delay.

Two forwarding paths:

* **unsupervised** — each record is timestamped through a serialized
  busy-chain and its delivery scheduled immediately; the implicit
  queue is unbounded;
* **supervised** (``ReplayConfig(supervision=...)``) — records land in
  an explicit bounded ingress queue drained one per
  ``PER_RECORD_CPU × lag_factor`` tick.  Crossing the high-water mark
  either stalls the Postman (backpressure) or sheds the oldest record,
  per the configured policy; a crashed distributor parks arrivals as
  orphans for the supervisor to re-dispatch (see
  :mod:`repro.replay.supervisor`).
"""

from __future__ import annotations

import random
from collections import deque

from repro.netsim.host import Host
from repro.obs.report import (counter_state, restore_counters,
                              zero_counters)
from repro.replay.querier import Querier
from repro.trace.record import QueryRecord

UNIX_SOCKET_DELAY = 15e-6   # local IPC hop
PER_RECORD_CPU = 2e-6       # distributor parse/forward cost
HOLD_RETRY = 250e-6         # re-poll interval while a querier backlog
#                             sits at its high-water mark


class Distributor:
    """One distributor process with its team of queriers."""

    COUNTERS = {"records_forwarded": "replay.distributor_records"}

    def __init__(self, host: Host, queriers: list[Querier], seed: int = 0,
                 sticky: bool = True, name: str = ""):
        if not queriers:
            raise ValueError(
                "Distributor needs at least one querier; got an empty "
                "list (check queriers_per_instance)")
        self.host = host
        self.name = name or f"distributor@{host.name}"
        self.queriers = queriers
        self.rng = random.Random(seed)
        # sticky=False is the ablation of §2.6's same-source routing:
        # records scatter randomly, so per-source sockets and connection
        # reuse stop working.
        self.sticky = sticky
        self._assignment: dict[str, Querier] = {}
        zero_counters(self)
        self._busy_until = 0.0
        # Supervision state (repro.replay.supervisor).
        self.supervisor = None          # set by Supervisor.attach
        self.lag_factor = 1.0           # DistributorLag fault multiplier
        self.crashed = False
        self.peak_depth = 0             # high-water observed on _queue
        self.enroute = 0                # postman frames still in flight
        self._queue: deque = deque()    # bounded ingress queue
        self._drain_scheduled = False
        self._orphans: list[QueryRecord] = []
        self._sync: tuple[float, float] | None = None

    def _querier_for(self, src: str) -> Querier:
        if not self.sticky:
            return self._live(self.rng.choice(self.queriers), src)
        querier = self._assignment.get(src)
        if querier is None:
            querier = self._live(self.rng.choice(self.queriers), src)
            self._assignment[src] = querier
        return querier

    def _live(self, querier: Querier, src: str) -> Querier:
        """Never pin a fresh source to a crashed querier: fall back to
        the supervisor's rendezvous choice among survivors.  (A no-op
        in unsupervised runs — nothing ever crashes there — so legacy
        RNG draws are untouched.)"""
        if not querier.crashed:
            return querier
        from repro.replay.supervisor import rendezvous
        by_name = {q.name: q for q in self.queriers if not q.crashed}
        if not by_name:
            raise RuntimeError(
                f"{self.name}: every querier has crashed")
        return by_name[rendezvous(src, sorted(by_name))]

    def _ipc_time(self) -> float:
        """Serialize forwarding through this process."""
        now = self.host.scheduler.now
        start = max(now, self._busy_until)
        self._busy_until = start + PER_RECORD_CPU
        return start + PER_RECORD_CPU + UNIX_SOCKET_DELAY

    def handle_sync(self, trace_t1: float) -> None:
        at = self._ipc_time()
        self._sync = (trace_t1, at)
        for querier in self.queriers:
            self.host.scheduler.at(at, querier.handle_sync, trace_t1)

    def handle_record(self, record: QueryRecord,
                      fast: bool = False) -> None:
        if self.enroute:
            self.enroute -= 1
        if self.crashed:
            self._orphans.append(record)
            return
        if self.supervisor is not None:
            self._enqueue(record, fast)
            return
        self.records_forwarded += 1
        querier = self._querier_for(record.src)
        deliver = (querier.handle_record_fast if fast
                   else querier.handle_record)
        now = self.host.scheduler.now
        at = self._ipc_time()
        obs = self.host.scheduler.obs
        if obs is not None:
            # Queue lag: how long the record waited for this process's
            # serialized forwarding loop before its IPC hop started.
            obs.metrics.histogram("replay.distributor_queue_lag").record(
                max(0.0, at - now - PER_RECORD_CPU - UNIX_SOCKET_DELAY))
            obs.tracer.emit("distributor.forward", now, at,
                            detail=querier.name)
        self.host.scheduler.at(at, deliver, record)

    # -- supervised bounded-queue path -------------------------------------

    def _drain_delay(self) -> float:
        return PER_RECORD_CPU * self.lag_factor + UNIX_SOCKET_DELAY

    def _enqueue(self, record: QueryRecord, fast: bool) -> None:
        self._queue.append((record, fast))
        depth = len(self._queue)
        if depth > self.peak_depth:
            self.peak_depth = depth
        self.supervisor.on_queue_growth(self)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.host.scheduler.after(self._drain_delay(), self._drain)

    def _drain(self) -> None:
        if self.crashed or not self._queue:
            self._drain_scheduled = False
            return
        record, fast = self._queue[0]
        querier = self._querier_for(record.src)
        supervisor = self.supervisor
        if (supervisor.config.queue_policy == "stall"
                and querier.backlog_depth()
                >= supervisor.config.high_water):
            # The D->Q watermark: hold the ingress queue until the
            # querier's ΔT backlog drains below the mark.  The held
            # queue in turn trips the C->D watermark and pauses the
            # Postman — backpressure propagates end to end.
            self.host.scheduler.after(HOLD_RETRY, self._drain)
            return
        self._queue.popleft()
        self.records_forwarded += 1
        now = self.host.scheduler.now
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.tracer.emit("distributor.forward", now, now,
                            detail=querier.name)
        if self._sync is not None:
            trace_t1, real_t1 = self._sync
            supervisor.note_lag(self,
                                now - (real_t1 + record.time - trace_t1))
        if fast:
            querier.handle_record_fast(record)
        else:
            querier.handle_record(record)
        supervisor.on_queue_drain(self)
        if self._queue:
            self.host.scheduler.after(self._drain_delay(), self._drain)
        else:
            self._drain_scheduled = False

    def shed_oldest(self) -> None:
        """Drop-oldest at the high-water mark (``shed`` policy)."""
        if self._queue:
            self._queue.popleft()

    def queue_depth(self) -> int:
        """Records in the bounded ingress queue (supervised mode)."""
        return len(self._queue)

    def total_depth(self) -> int:
        """Queue plus control frames the Postman has sent that have
        not arrived yet — the C->D quantity the high-water bounds."""
        return self.enroute + len(self._queue)

    # -- crash / failover ---------------------------------------------------

    def crash(self) -> None:
        """The distributor process dies: queued records become orphans
        for the supervisor to re-dispatch through a survivor."""
        if self.crashed:
            return
        self.crashed = True
        self._orphans.extend(record for record, _ in self._queue)
        self._queue.clear()

    def set_lag(self, factor: float) -> None:
        """DistributorLag fault hook: scale the per-record drain cost."""
        self.lag_factor = factor

    def take_orphans(self) -> list[QueryRecord]:
        orphans, self._orphans = self._orphans, []
        return orphans

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "crashed": self.crashed,
            "rng_state": _rng_to_jsonable(self.rng.getstate()),
            "assignment": {src: querier.name
                           for src, querier in self._assignment.items()},
            "counters": counter_state(self),
            "busy_until": self._busy_until,
            "sync": list(self._sync) if self._sync else None,
        }

    def load_state(self, state: dict) -> None:
        self.crashed = state["crashed"]
        self.rng.setstate(_rng_from_jsonable(state["rng_state"]))
        by_name = {querier.name: querier for querier in self.queriers}
        self._assignment = {src: by_name[name]
                            for src, name in state["assignment"].items()}
        restore_counters(self, state["counters"])
        self._busy_until = state["busy_until"]
        self._sync = tuple(state["sync"]) if state["sync"] else None

    def assignment_counts(self) -> dict[str, int]:
        """How many sources each querier was assigned (balance check)."""
        counts: dict[str, int] = {}
        for querier in self._assignment.values():
            counts[querier.name] = counts.get(querier.name, 0) + 1
        return counts


def _rng_to_jsonable(state: tuple) -> list:
    """``random.Random.getstate()`` as JSON-safe nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_from_jsonable(state: list) -> tuple:
    version, internal, gauss_next = state
    return (version, tuple(internal), gauss_next)
