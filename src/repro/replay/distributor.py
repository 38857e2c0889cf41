"""Distributors: fan records out to queriers, sticky by source (§2.6).

Same-source queries must land on the same querier so that
socket/connection reuse is emulated correctly; each distributor keeps
that rule in its own :class:`~repro.replay.supervisor.Pins` table over
its queriers.

Distributor and querier processes live on the same client-instance host
(Figure 4); the distributor hands records to queriers over a Unix
socket, modelled as a small constant IPC delay.

Records reach a distributor one of two ways.  In distributed mode each
arrives as a control frame from the Postman (:meth:`handle_record`).  In
direct mode the distributor reads the input stream itself — "a single
distributor can read input query stream directly" (Figure 4): it holds
a cursor over its share of the trace (:meth:`read_from`) and admits
each record at the instant the reader makes it available, only when
something looks — its next hand-over, a fault, or one arrival event
armed while its queue is empty.  So the scheduler holds what is in
flight, never the trace.

Either way every record then takes one path, :meth:`_admit`: it is
stamped with the time its hand-over falls due — the process serialises
``PER_RECORD_CPU × lag_factor`` per record, the socket hop overlaps the
next record's CPU — and joins the ingress queue, or, once the process
has crashed, is parked as an orphan for the supervisor to re-dispatch
(see :mod:`repro.replay.supervisor`).  One armed event hands the head
of the queue to its querier and re-arms for the next.  Supervision
(``ReplayConfig(supervision=...)``, distributed mode only) bounds that
queue and adds nothing else to the path: at the high-water mark the
hand-over holds until the querier's backlog drains (``stall``, which in
turn stalls the Postman) or the oldest record is dropped (``shed``).
"""

from __future__ import annotations

import math
from collections import deque

from repro.netsim.host import Host
from repro.obs.report import zero_counters
from repro.replay.querier import Querier
from repro.replay.supervisor import Pins
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
        # sticky=False is the ablation of §2.6's same-source routing:
        # records scatter randomly, so per-source sockets and connection
        # reuse stop working.
        self.pins = Pins(queriers, seed, sticky)
        zero_counters(self)
        self._busy_until = 0.0
        # (record, due) in arrival order; one _forward event is armed
        # for the head while the queue is non-empty.
        self._queue: deque = deque()
        self.peak_depth = 0             # high-water observed on _queue
        self.enroute = 0                # postman frames still in flight
        self.lag_factor = 1.0           # DistributorLag fault multiplier
        self.supervisor = None          # set by Supervisor.start
        self.crashed = False
        self._orphans: list[QueryRecord] = []
        self._sync: tuple[float, float] | None = None
        # Direct mode's cursor (read_from): the trace, this share's
        # indices into it, and the position of the next unread one.
        self._records: list[QueryRecord] = []
        self._indices = range(0)        # or an array of ints
        self._reader_cost = 0.0
        self._opened = 0.0              # clock when the stream opened
        self._next = 0
        self._end = 0

    def _ipc_time(self, now: float) -> float:
        """Serialize forwarding through this process: when something
        arriving at *now* reaches the queriers' end of the Unix
        socket."""
        busy = self._busy_until
        start = now if now > busy else busy
        cpu = PER_RECORD_CPU * self.lag_factor
        self._busy_until = start + cpu
        return start + cpu + UNIX_SOCKET_DELAY

    def handle_sync(self, trace_t1: float) -> None:
        at = self._ipc_time(self.host.scheduler.now)
        self._sync = (trace_t1, at)
        for querier in self.queriers:
            self.host.scheduler.at(at, querier.handle_sync, trace_t1)

    def _admit(self, record: QueryRecord, available: float) -> int:
        """The one way in, for a control frame and the direct cursor
        alike: *record*, available at *available*, is parked as an
        orphan once crashed, or stamped with its hand-over time and
        queued.  Returns the queue's depth, 0 for an orphan."""
        if self.crashed:
            self._orphans.append(record)
            return 0
        due = self._ipc_time(available)
        obs = self.host.scheduler.obs
        if obs is not None:
            # Queue lag: how long the record waits for this process's
            # serialized forwarding loop before its own CPU slice.
            obs.distributor_queue_lag.record(
                max(0.0, due - available
                    - PER_RECORD_CPU * self.lag_factor
                    - UNIX_SOCKET_DELAY))
        queue = self._queue
        queue.append((record, due))
        depth = len(queue)
        if depth > self.peak_depth:
            self.peak_depth = depth
        return depth

    def handle_record(self, record: QueryRecord) -> None:
        """A record arrives as a control frame: admit it now, and arm
        the hand-over if it heads the queue."""
        if self.enroute:
            self.enroute -= 1
        depth = self._admit(record, self.host.scheduler.now)
        if not depth:
            return
        if self.supervisor is not None:
            self.supervisor.on_queue_growth(self)
        # A deeper queue already has its event armed (shedding drops
        # only above the mark, so it never empties the queue).
        if depth == 1:
            self.host.scheduler.at(self._queue[0][1], self._forward)

    def read_from(self, records: list[QueryRecord], indices,
                  reader_cost: float) -> None:
        """Direct mode: read the share *indices* (ascending positions
        in *records*, a ``range`` or an ``array``) of the input stream
        itself.  The reader makes record ``i`` available at ``i ×
        reader_cost`` — never before the clock stands now — exactly as
        a real single reader's would; nothing is stored per record."""
        if self._next < self._end:
            raise RuntimeError(
                f"{self.name} has not finished reading its previous "
                "stream (a run cut by until= leaves records unread); "
                "replay the next trace on a fresh engine")
        self._records = records
        self._indices = indices
        self._reader_cost = reader_cost
        self._opened = self.host.scheduler.now
        self._next = 0
        self._end = len(indices)
        if indices:
            self._arm_arrival()

    def read(self, until: float) -> None:
        """Admit, in order, every unread record of the stream available
        by *until*, each as a per-record arrival event would have
        admitted it at the instant it became available."""
        indices = self._indices
        records = self._records
        cost = self._reader_cost
        opened = self._opened
        position = self._next
        end = self._end
        admit = self._admit
        while position < end:
            index = indices[position]
            available = index * cost
            if available < opened:
                available = opened
            if available > until:
                break
            position += 1
            admit(records[index], available)
        self._next = position

    def _read_before_now(self) -> None:
        """Catch up before a fault takes effect.  The fault injector is
        armed before the stream opens, so a fault at *t* wins the tie
        with the record available at *t*: read strictly before it."""
        if self._next < self._end:
            self.read(math.nextafter(self.host.scheduler.now, -math.inf))

    def _arm_arrival(self) -> None:
        """Wake when the next unread record becomes available.  Armed
        only while the queue is empty (or the process has crashed):
        otherwise the next ``_forward`` reads it."""
        available = self._indices[self._next] * self._reader_cost
        self.host.scheduler.at(available, self._arrive)

    def _arrive(self) -> None:
        scheduler = self.host.scheduler
        self.read(scheduler.now)
        if self._queue:
            scheduler.at(self._queue[0][1], self._forward)
        elif self._next < self._end:
            self._arm_arrival()     # crashed: arrivals become orphans

    def _forward(self) -> None:
        """Hand the head of the queue to its querier, then re-arm for
        the next head: the one place a record leaves the distributor."""
        queue = self._queue
        if not queue:
            return      # crashed since arming: the queue was orphaned
        scheduler = self.host.scheduler
        now = scheduler.now
        if self._next < self._end:
            self.read(now)
        record, due = queue[0]
        if due > now:
            # The head this event was armed for was shed.
            scheduler.at(due, self._forward)
            return
        # A source already pinned to a crashed querier stays there (its
        # records become that querier's orphans) until the supervisor
        # declares the querier failed and re-pins.
        querier = self.pins.member_for(record.src)
        supervisor = self.supervisor
        if (supervisor is not None
                and supervisor.config.queue_policy == "stall"
                and querier.backlog_depth()
                >= supervisor.config.high_water):
            # The D->Q watermark: hold the ingress queue until the
            # querier's ΔT backlog drains below the mark.  The held
            # queue in turn trips the C->D watermark and pauses the
            # Postman — backpressure propagates end to end.
            scheduler.after(HOLD_RETRY, self._forward)
            return
        queue.popleft()
        self.records_forwarded += 1
        obs = scheduler.obs
        if obs is not None:
            obs.tracer.emit("distributor.forward", due, now,
                            detail=querier.name)
        if supervisor is not None and self._sync is not None:
            trace_t1, real_t1 = self._sync
            supervisor.note_lag(self,
                                now - (real_t1 + record.time - trace_t1))
        querier.handle_record(record)
        if supervisor is not None:
            supervisor.on_queue_drain(self)
        if queue:
            scheduler.at(queue[0][1], self._forward)
        elif self._next < self._end:
            self._arm_arrival()

    def shed_oldest(self) -> None:
        """Drop-oldest at the high-water mark (``shed`` policy)."""
        if self._queue:
            self._queue.popleft()

    def queue_depth(self) -> int:
        """Records in the ingress queue."""
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
        self._read_before_now()
        self.crashed = True
        queued = bool(self._queue)
        self._orphans.extend(record for record, _ in self._queue)
        self._queue.clear()
        if queued and self._next < self._end:
            # The stream keeps arriving, now as orphans; with the
            # queue empty, no hand-over is left to read it.
            self._arm_arrival()

    def set_lag(self, factor: float) -> None:
        """DistributorLag fault hook: scale the per-record CPU cost of
        records arriving from now on."""
        self._read_before_now()
        self.lag_factor = factor

    def take_orphans(self) -> list[QueryRecord]:
        orphans, self._orphans = self._orphans, []
        return orphans
