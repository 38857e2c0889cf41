"""Control-plane supervision: heartbeats, failover, backpressure.

LDplayer's distributed replay (§2.6) strands a source's queries when
the querier pinned to it dies, and its unbounded Controller→Distributor
→Querier queues turn a slow component into unbounded memory growth.
This module adds the supervision layer:

* **Heartbeats** — each distributor endpoint beats back over the
  existing TCP control connections on behalf of itself and its live
  queriers (frame type 2, see :mod:`repro.replay.controller`).  The
  :class:`Supervisor` tracks last-seen times and marks an actor failed
  after :data:`DETECTION_TIMEOUT` of silence.
* **Failover** — a failed querier's sources are re-pinned to survivors
  by rendezvous hashing (deterministic, and stable: sources pinned to
  survivors never move).  Queries that were awaiting a response when
  the querier died surface as ``failed_over`` in the report; records
  the dead querier had queued but never sent are re-dispatched exactly
  once.  A failed distributor's sources are re-pinned across surviving
  control channels the same way.  Every pin lives in a :class:`Pins`
  table: one for the readers' split, one per controller (over its
  channels), one per distributor (over its queriers).
* **Backpressure** — the queues every record already passes through
  (the Postman's backlog, the distributor's ingress queue, the
  querier's ΔT backlog) get a high-water mark.  Policy ``stall``
  pauses the Postman (and transitively the Reader) while any target
  queue is full, bounding peak depth at the mark; policy ``shed``
  drops the oldest queued record instead, for fast-mode replays where
  staying current beats completeness.

Everything here is opt-in via ``ReplayConfig(supervision=...)``;
``supervision=None`` schedules no heartbeat or monitor event (the
report carries the supervision counters all the same, at zero), and a
fault-free supervised run forwards records at the unsupervised pace.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.obs.report import zero_counters

_QUEUE_POLICIES = ("stall", "shed")

# How often distributor endpoints beat, and how long the supervisor
# tolerates silence before declaring an actor dead (a few beats plus
# control-channel latency).
HEARTBEAT_INTERVAL = 0.05
DETECTION_TIMEOUT = 0.25


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs for the replay supervision layer.

    ``high_water`` bounds every Controller→Distributor and
    Distributor→Querier queue; ``queue_policy`` picks what happens at
    the mark."""

    high_water: int = 512
    queue_policy: str = "stall"

    def __post_init__(self) -> None:
        if self.high_water < 1:
            raise ValueError(
                f"high_water must be >= 1, got {self.high_water}")
        if self.queue_policy not in _QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {_QUEUE_POLICIES}, "
                f"got {self.queue_policy!r}")


def next_tick(now: float, interval: float) -> float:
    """The first absolute multiple of *interval* strictly after *now*.

    The strictness guard matters because ``int(now / interval) + 1``
    can land back on *now* when the division rounds down a hair (e.g.
    2.15 / 0.05), which would spin the loop at a frozen clock."""
    tick = (int(now / interval) + 1) * interval
    while tick <= now:
        tick += interval
    return tick


def rendezvous(key: str, candidates: list[str]) -> str:
    """Highest-random-weight choice of *candidates* for *key*.

    Stable under membership change: removing a candidate only re-homes
    the keys that were pinned to it — every other key keeps its winner.
    CRC-32 keeps the weights identical across processes (builtin
    ``hash()`` is randomized per interpreter)."""
    if not candidates:
        raise ValueError("rendezvous over an empty candidate set")
    return max(candidates,
               key=lambda name: (zlib.crc32(f"{key}|{name}".encode()),
                                 name))


def surviving(key: str, candidates, actor=lambda candidate: candidate):
    """The one re-pinning rule: *key*'s rendezvous winner among the
    *candidates* whose actor (the candidate itself, or
    ``actor(candidate)``: a control channel's distributor) is alive."""
    alive = {actor(candidate).name: candidate for candidate in candidates
             if not actor(candidate).crashed}
    if not alive:
        raise RuntimeError(
            f"no surviving actor to take over {key!r}: every candidate "
            "has crashed")
    return alive[rendezvous(key, list(alive))]


class Pins:
    """§2.6's same-source rule: "each distributor either picks the next
    entity based on a recent query source address in record, or selects
    randomly otherwise".

    A source met for the first time draws one of *members* from
    ``Random(seed)``; a draw that lands on a crashed member goes to the
    source's :func:`surviving` choice instead.  With *sticky* the
    member is kept in :attr:`table`, so every later record of the
    source goes the same way; without it (the ablation) nothing is kept
    and every call draws.  *actor* maps a member to the process whose
    death moves its sources: the member itself, or a control channel's
    distributor.

    The table decides *where* a source goes; its owner decides *when* it
    moves, by calling :meth:`repin` or :meth:`live`."""

    def __init__(self, members: list, seed: int, sticky: bool = True,
                 actor=lambda member: member):
        self.members = members
        self.rng = random.Random(seed)
        self.sticky = sticky
        self.actor = actor
        self.table: dict = {}

    def member_for(self, src: str):
        """The member *src* is pinned to, drawn on first sight."""
        table = self.table
        if src in table:
            return table[src]
        member = self.rng.choice(self.members)
        if self.actor(member).crashed:
            member = surviving(src, self.members, self.actor)
        if self.sticky:
            table[src] = member
        return member

    def live(self, src: str):
        """*src*'s member, moved first to its surviving choice when it
        has none or that member's actor has crashed."""
        member = self.table.get(src)
        if member is None or self.actor(member).crashed:
            member = self.table[src] = surviving(src, self.members,
                                                 self.actor)
        return member

    def repin(self, dead) -> None:
        """Move every source of the *dead* actor to its surviving
        choice; every other source keeps its member."""
        table = self.table
        for src, member in table.items():
            if self.actor(member) is dead:
                table[src] = surviving(src, self.members, self.actor)

class Supervisor:
    """Watches a supervised replay: liveness, failover, backpressure.

    Created by :class:`repro.replay.engine.ReplayEngine` when
    ``ReplayConfig(supervision=...)`` is set (distributed mode only).
    All state lives on this object."""

    # Declared counters (repro.obs.report): attribute -> report name.
    # Event counts only; the worst dispatch lag is a gauge (lag_peak).
    COUNTERS = {
        "failovers": "replay.failovers",            # actors declared dead
        "redispatched": "replay.redispatched",      # orphans re-sent once
        "stalls": "replay.backpressure_stalls",     # Postman stall episodes
        "sheds": "replay.shed",                     # dropped at high water
        "dropped_after_refailover": "replay.dropped_after_refailover",
    }

    def __init__(self, engine, config: SupervisionConfig):
        self.engine = engine
        self.config = config
        self.sim = engine.sim
        self.failed: set[str] = set()
        zero_counters(self)
        self.lag_peak = 0.0           # worst dispatch lag seen (gauge)
        self._last_beat: dict[str, float] = {}
        self._redispatched: dict[int, object] = {}   # id -> record
        # Stalled controllers in stall order (a dict, not a set: a set
        # of controllers iterates by address, so they would resume in
        # an order that changes from run to run).
        self._paused_controllers: dict = {}
        self._started = False
        self.stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the heartbeats and the monitor on the first tick after
        now."""
        if self._started:
            return
        self._started = True
        now = self.sim.scheduler.now
        interval = HEARTBEAT_INTERVAL
        first = next_tick(now, interval)
        for controller in self.engine.controllers:
            controller.enable_supervision(self)
            for endpoint in controller._endpoints:
                endpoint.start_heartbeats(interval, first)
        for distributor in self.engine.distributors:
            distributor.supervisor = self
            self._last_beat.setdefault(distributor.name, now)
        for querier in self.engine.queriers:
            self._last_beat.setdefault(querier.name, now)
        self.sim.scheduler.at(first, self._monitor, daemon=True)

    def _schedule_monitor(self) -> None:
        scheduler = self.sim.scheduler
        scheduler.at(next_tick(scheduler.now, HEARTBEAT_INTERVAL),
                     self._monitor, daemon=True)

    def _monitor(self) -> None:
        if self._drained():
            # Replay complete: stop beating and monitoring, else the
            # heartbeats' live TCP events keep the simulation running
            # (and the clock advancing) forever after the trace ends.
            self.stopped = True
            return
        now = self.sim.scheduler.now
        for name, last in list(self._last_beat.items()):
            if name not in self.failed \
                    and now - last > DETECTION_TIMEOUT:
                self.fail(name)
        self._schedule_monitor()

    def _drained(self) -> bool:
        """Every record read, dispatched, sent, and answered or
        accounted — nothing left for supervision to protect."""
        engine = self.engine
        for controller in engine.controllers:
            if not controller.finished or controller.paused \
                    or controller._backlog:
                return False
        for distributor in engine.distributors:
            if distributor.total_depth() or distributor._orphans:
                return False
        for querier in engine.queriers:
            if querier.backlog_depth() or querier.pending_count() \
                    or querier._orphans:
                return False
        return True

    def note_heartbeat(self, name: str) -> None:
        self._last_beat[name] = self.sim.scheduler.now

    # -- failover ----------------------------------------------------------

    def fail(self, name: str) -> None:
        """Declare the actor *name* dead and fail its work over."""
        if name in self.failed:
            return
        self.failed.add(name)
        self.failovers += 1
        actor = self.sim.actors.get(name)
        if actor is None:
            return
        obs = self.sim.scheduler.obs
        if obs is not None:
            obs.tracer.emit("supervisor.failover",
                            self.sim.scheduler.now, detail=name)
        # Materialize the crash if we detected silence before the fault
        # layer marked it (a hung process looks the same as a dead one).
        actor.crash()
        if actor in self.engine.distributors:
            self._fail_distributor(actor)
        else:
            self._fail_querier(actor)

    def _fail_querier(self, querier) -> None:
        pins = next(d for d in self.engine.distributors
                    if querier in d.queriers).pins
        # Re-pin only the dead querier's sources; every source pinned
        # to a survivor keeps its querier (the invariant the property
        # tests pin down).
        pins.repin(querier)
        for index, record in self._first_time(querier.take_orphans()):
            pins.member_for(record.src).handle_record(record, index)

    def _fail_distributor(self, distributor) -> None:
        for controller in self.engine.controllers:
            controller.pins.repin(distributor)
        # A distributor and its queriers share a client machine
        # (LDplayer runs queriers as the distributor's subprocesses),
        # so losing the distributor loses their parked work too.
        # Marking them failed here keeps the monitor from later
        # declaring them silent and hunting for same-machine survivors.
        orphans = distributor.take_orphans()
        for querier in distributor.queriers:
            self.failed.add(querier.name)
            querier.crash()
            orphans.extend(querier.take_orphans())
        for index, record in self._first_time(orphans):
            controller = self._controller_for(record.src)
            controller.send_record(controller.pins.live(record.src),
                                   record, index)
        # Write the re-dispatch as one pass, then unstick Postmen
        # stalled on the dead distributor's full queue.
        for controller in self.engine.controllers:
            controller.flush()
            controller.try_resume()

    def _controller_for(self, src: str):
        """The controller that reads *src*: the engine's split says."""
        engine = self.engine
        split = engine.split
        return engine.controllers[split.member_for(src) if split else 0]

    def _first_time(self, orphans):
        """The exactly-once gate of re-dispatch: yield each orphaned
        (input index, record) pair the first time its record is met,
        count and drop it after.  The gate keeps every record it let
        through alive: a record re-dispatched over a control channel is
        decoded anew on the far side, and the freed original's ``id()``
        would otherwise pass for a fresh orphan allocated at the same
        address."""
        for orphan in orphans:
            record = orphan[1]
            if id(record) in self._redispatched:
                self.dropped_after_refailover += 1
                continue
            self._redispatched[id(record)] = record
            self.redispatched += 1
            yield orphan

    # -- backpressure ------------------------------------------------------

    def on_stall(self, controller) -> None:
        self.stalls += 1
        self._paused_controllers[controller] = None

    def on_resume(self, controller) -> None:
        self._paused_controllers.pop(controller, None)

    def on_queue_growth(self, distributor) -> None:
        if self.config.queue_policy == "shed" \
                and distributor.queue_depth() > self.config.high_water:
            distributor.shed_oldest()
            self.sheds += 1

    def on_queue_drain(self, distributor) -> None:
        for controller in list(self._paused_controllers):
            controller.try_resume()

    def note_lag(self, distributor, lag: float) -> None:
        if lag > self.lag_peak:
            self.lag_peak = lag
        obs = self.sim.scheduler.obs
        if obs is not None:
            obs.dispatch_lag = lag

