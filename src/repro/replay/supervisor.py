"""Control-plane supervision: heartbeats, failover, backpressure,
checkpoint/resume.

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
  table: one per controller (over its channels), one per distributor
  (over its queriers), one for direct mode's reader.
* **Backpressure** — the queues every record already passes through
  (the Postman's backlog, the distributor's ingress queue, the
  querier's ΔT backlog) get a high-water mark.  Policy ``stall``
  pauses the Postman (and transitively the Reader) while any target
  queue is full, bounding peak depth at the mark; policy ``shed``
  drops the oldest queued record instead, for fast-mode replays where
  staying current beats completeness.
* **Checkpoint/resume** — a :class:`Checkpointer` snapshots replay
  state (trace offsets, pin tables, message-id sequences, RNG states,
  completed results, server meters) at quiescent instants into a
  :class:`ReplayCheckpoint`; ``ReplayEngine.run(resume_from=ckpt)``
  continues a killed replay.  A fault-free UDP replay without timing
  jitter resumes byte-identically (docs/RESILIENCE.md spells out the
  exact guarantee).

Everything here is opt-in via ``ReplayConfig(supervision=...)``;
``supervision=None`` schedules no heartbeat, monitor or checkpoint
event (the report carries the supervision counters all the same, at
zero), and a fault-free supervised run forwards records at the
unsupervised pace.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, fields

from repro.obs.report import counter_state, zero_counters

# 3: each pin table is one ``Pins.state()`` (RNG state plus a member
# index per source); an older payload is rejected, not patched up.
CHECKPOINT_VERSION = 3

_QUEUE_POLICIES = ("stall", "shed")

# How often distributor endpoints beat, and how long the supervisor
# tolerates silence before declaring an actor dead (a few beats plus
# control-channel latency).
HEARTBEAT_INTERVAL = 0.05
DETECTION_TIMEOUT = 0.25
# Slack a checkpoint needs before the next scheduled send: clear of the
# µs-scale send-path limbo around each timer's target.
CHECKPOINT_GUARD = 0.01


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs for the replay supervision layer.

    ``high_water`` bounds every Controller→Distributor and
    Distributor→Querier queue; ``queue_policy`` picks what happens at
    the mark.  ``checkpoint_interval`` (None = off) snapshots state at
    quiescent instants aligned to absolute multiples of the interval."""

    high_water: int = 512
    queue_policy: str = "stall"
    checkpoint_interval: float | None = None

    def __post_init__(self) -> None:
        if self.high_water < 1:
            raise ValueError(
                f"high_water must be >= 1, got {self.high_water}")
        if self.queue_policy not in _QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {_QUEUE_POLICIES}, "
                f"got {self.queue_policy!r}")
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be > 0, got "
                             f"{self.checkpoint_interval}")


def next_tick(now: float, interval: float) -> float:
    """The first absolute multiple of *interval* strictly after *now*.

    Absolute alignment lets a resumed run re-arm its periodic loops in
    phase with the original; the strictness guard matters because
    ``int(now / interval) + 1`` can land back on *now* when the
    division rounds down a hair (e.g. 2.15 / 0.05), which would spin
    the loop at a frozen clock."""
    tick = (int(now / interval) + 1) * interval
    while tick <= now:
        tick += interval
    return tick


def resume_tick(cut: float, interval: float) -> float:
    """The first absolute multiple of *interval* at or after *cut*:
    where a run resumed from a checkpoint taken at *cut* re-arms its
    heartbeat and monitor loops.  A pass due at the cut itself had not
    run when the snapshot was taken (a beat leaves bytes in flight, and
    :meth:`Checkpointer.quiescent` refuses those), so the resumed run
    owes it; the checkpoint tick at the cut had, so that loop re-arms
    with :func:`next_tick`."""
    k = int(cut / interval)
    while k * interval < cut:
        k += 1
    return k * interval


def shard(src: str, shards: int) -> int:
    """Which of *shards* split-input partitions (controllers, or live
    queriers) owns the source *src*, so its queries keep their socket
    (§2.6).  CRC-32: builtin ``hash()`` is randomized per interpreter."""
    return zlib.crc32(src.encode()) % shards


def partition(records, shards: int) -> list[list]:
    """*records* split by :func:`shard`, each part in input order."""
    if shards == 1:
        return [list(records)]
    parts: list[list] = [[] for _ in range(shards)]
    for record in records:
        parts[shard(record.src, shards)].append(record)
    return parts


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

    def state(self) -> dict:
        """JSON-safe: the RNG state and a member index per source."""
        version, internal, gauss_next = self.rng.getstate()
        return {"rng": [version, list(internal), gauss_next],
                "pins": {src: self.members.index(member)
                         for src, member in self.table.items()}}

    def load(self, state: dict) -> None:
        version, internal, gauss_next = state["rng"]
        self.rng.setstate((version, tuple(internal), gauss_next))
        self.table = {src: self.members[index]
                      for src, index in state["pins"].items()}


@dataclass
class ReplayCheckpoint:
    """A quiescent-instant snapshot of a supervised distributed replay.

    Round-trips through plain dicts like :class:`FaultPlan`, so
    checkpoints can live in scenario files next to traces.  The
    snapshot holds replay-plane state only — the trace itself is not
    embedded; resume re-reads it and skips ``records_read`` per
    controller."""

    time: float
    seed: int
    controllers: list[dict] = field(default_factory=list)
    distributors: list[dict] = field(default_factory=list)
    queriers: list[dict] = field(default_factory=list)
    server: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"version": CHECKPOINT_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayCheckpoint":
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})")
        return cls(**{f.name: data[f.name] for f in fields(cls)})


class Supervisor:
    """Watches a supervised replay: liveness, failover, backpressure.

    Created by :class:`repro.replay.engine.ReplayEngine` when
    ``ReplayConfig(supervision=...)`` is set (distributed mode only).
    All state lives on this object."""

    # Declared counters (repro.obs.report): attribute -> report name.
    # Limited to counters that are stable across checkpoint/resume
    # (queue-depth peaks and dispatch lag depend on pipeline phase).
    COUNTERS = {
        "failovers": "replay.failovers",            # actors declared dead
        "redispatched": "replay.redispatched",      # orphans re-sent once
        "stalls": "replay.backpressure_stalls",     # Postman stall episodes
        "sheds": "replay.shed",                     # dropped at high water
        "checkpoints_written": "replay.checkpoints_written",
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
        self._paused_controllers: set = set()
        self._redispatched: dict[int, object] = {}   # id -> record
        self._started = False
        self.stopped = False
        self.checkpointer: Checkpointer | None = None
        if config.checkpoint_interval is not None:
            self.checkpointer = Checkpointer(
                engine, self, config.checkpoint_interval)

    # -- lifecycle ---------------------------------------------------------

    def start(self, resumed: bool = False) -> None:
        """Arm heartbeats, the monitor and the checkpointer.  *resumed*
        says the clock stands at a checkpoint's cut: the first beat and
        monitor pass are then due at :func:`resume_tick`, so the run
        puts the same packets on the control channels as the
        uninterrupted one."""
        if self._started:
            return
        self._started = True
        now = self.sim.scheduler.now
        interval = HEARTBEAT_INTERVAL
        first = (resume_tick if resumed else next_tick)(now, interval)
        # Armed first, so a checkpoint tick runs before a beat due at
        # the same instant and finds the control channels idle.
        if self.checkpointer is not None:
            self.checkpointer.start()
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
        for record in self._first_time(querier.take_orphans()):
            pins.member_for(record.src).handle_record(record)

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
        for record in self._first_time(orphans):
            controller = self._controller_for(record.src)
            controller.send_record(controller.pins.live(record.src),
                                   record)
        # Write the re-dispatch as one pass, then unstick Postmen
        # stalled on the dead distributor's full queue.
        for controller in self.engine.controllers:
            controller.flush()
            controller.try_resume()

    def _controller_for(self, src: str):
        """The controller owning *src*'s partition."""
        controllers = self.engine.controllers
        return controllers[shard(src, len(controllers))]

    def _first_time(self, orphans):
        """The exactly-once gate of re-dispatch: yield each orphaned
        record the first time it is met, count and drop it after.  The
        gate keeps every record it let through alive: a record
        re-dispatched over a control channel is decoded anew on the far
        side, and the freed original's ``id()`` would otherwise pass
        for a fresh orphan allocated at the same address."""
        for record in orphans:
            if id(record) in self._redispatched:
                self.dropped_after_refailover += 1
                continue
            self._redispatched[id(record)] = record
            self.redispatched += 1
            yield record

    # -- backpressure ------------------------------------------------------

    def on_stall(self, controller) -> None:
        self.stalls += 1
        self._paused_controllers.add(controller)

    def on_resume(self, controller) -> None:
        self._paused_controllers.discard(controller)

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


class Checkpointer:
    """Periodically snapshots a supervised replay at quiescent instants.

    A tick fires at every absolute multiple of the interval (so a
    resumed run re-arms in phase with the original); the snapshot is
    taken only when the replay plane is quiescent — nothing queued, in
    flight, or pending anywhere, no open stream connection, and the
    next scheduled send at least :data:`CHECKPOINT_GUARD` seconds away.
    Non-quiescent ticks are skipped, not deferred."""

    def __init__(self, engine, supervisor, interval: float):
        self.engine = engine
        self.supervisor = supervisor
        self.interval = interval
        self.checkpoints: list[ReplayCheckpoint] = []
        self.on_checkpoint = None   # optional callback(ckpt)

    def start(self) -> None:
        self._schedule()

    def _schedule(self) -> None:
        scheduler = self.engine.sim.scheduler
        scheduler.at(next_tick(scheduler.now, self.interval),
                     self._tick, daemon=True)

    def _tick(self) -> None:
        if self.supervisor.stopped:
            return  # replay drained: a post-completion snapshot is noise
        if self.quiescent():
            # Count first so the snapshot accounts for itself: a run
            # resumed from checkpoint N must report the same
            # checkpoints_written as the uninterrupted run.
            self.supervisor.checkpoints_written += 1
            checkpoint = self.capture()
            self.checkpoints.append(checkpoint)
            if self.on_checkpoint is not None:
                self.on_checkpoint(checkpoint)
        self._schedule()

    def quiescent(self) -> bool:
        """Nothing on the wire or queued upstream, and every parked ΔT
        send timer at least :data:`CHECKPOINT_GUARD` away.

        The querier backlogs themselves may be non-empty — the Reader
        pre-loads the whole trace within milliseconds, so the steady
        state of a paced replay is "records parked on querier timers";
        those are serialized into the checkpoint and re-armed on
        resume.  What can't be captured is in-flight wire state, so the
        cut waits for empty pending sets, idle control channels and
        closed stream connections, with the guard keeping it clear
        of the µs-scale send-path limbo around each timer's target."""
        engine = self.engine
        now = engine.sim.scheduler.now
        for controller in engine.controllers:
            if controller.paused or controller._backlog:
                return False
            # A frame or heartbeat not yet acknowledged is on the wire.
            conns = [channel.conn for channel in controller.channels]
            for endpoint in controller._endpoints:
                conns += endpoint._conns
            if any(conn._inflight for conn in conns):
                return False
        for distributor in engine.distributors:
            if distributor.queue_depth() or distributor.enroute \
                    or distributor._orphans:
                return False
        for querier in engine.queriers:
            if querier.pending_count() or querier._orphans:
                return False
            if querier.has_open_streams():
                return False   # open stream state is not capturable
            for event in querier._send_timers.values():
                if event.time < now + CHECKPOINT_GUARD:
                    return False
        return True

    def capture(self) -> ReplayCheckpoint:
        engine = self.engine
        server_host = engine.sim.network.host_for(engine.server_addr)
        meter = server_host.meter
        apps = [app.state_dict() for app in server_host.apps
                if hasattr(app, "state_dict")]
        return ReplayCheckpoint(
            time=engine.sim.scheduler.now,
            seed=engine.config.seed,
            controllers=[c.state_dict() for c in engine.controllers],
            distributors=[d.state_dict()
                          for d in engine.distributors],
            queriers=[q.state_dict() for q in engine.queriers],
            server={"memory": meter.memory,
                    "cpu_busy": meter.cpu_busy,
                    "established": meter.established,
                    "time_wait": meter.time_wait,
                    "apps": apps},
            counters=counter_state(self.supervisor),
            network=counter_state(engine.sim.network),
        )

    @property
    def latest(self) -> ReplayCheckpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None
