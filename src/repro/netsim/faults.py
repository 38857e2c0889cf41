"""Scheduled fault injection: loss bursts, delay spikes, outages.

LDplayer's value proposition includes what-if experiments under
degraded conditions (DoS, overload, lossy paths).  This module turns
those conditions into first-class, *scheduled* scenario inputs: a
:class:`FaultPlan` is a list of timed events, and a
:class:`FaultInjector` applies them to the simulated fabric through the
scheduler, so a plan plus a seed reproduces the exact same degraded run
every time.

Event kinds:

* :class:`LossBurst` — extra packet loss on selected uplinks for a
  window (composes with the link's baseline loss);
* :class:`DelaySpike` — extra one-way propagation delay on selected
  uplinks for a window;
* :class:`LinkDown` — a hard outage: every packet crossing the link is
  dropped for the window;
* :class:`ServerPause` — a server process stops handling queries for a
  window (SIGSTOP-style); on resume the buffered backlog is processed,
  or discarded when ``restart=True`` (a crash/restart loses queued
  work).  Targets any app on the named host exposing
  ``pause()``/``resume()`` (see ``Host.apps``);
* :class:`QuerierCrash` — a replay querier process dies (terminal: no
  end edge).  Targets a registered actor (``Simulator.actors``)
  exposing ``crash()``; the replay supervisor, when enabled, detects
  the silence and fails the querier's sources over (see
  :mod:`repro.replay.supervisor`);
* :class:`DistributorLag` — a replay distributor's per-record
  processing cost is multiplied by ``factor`` for the window, the
  scheduled way to drive queue growth and backpressure.  Targets an
  actor exposing ``set_lag()``.

Overlapping events compose: losses multiply as independent drop
processes, delay spikes add, and any active :class:`LinkDown` wins.
When a window ends, the link returns to its baseline parameters (the
values it had when the injector first touched it).

Plans round-trip through plain dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`) so scenario files can live next to traces;
the format is documented in docs/RESILIENCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.netsim.network import LinkParams


@dataclass(frozen=True)
class LossBurst:
    """Extra independent per-packet loss on *hosts* uplinks."""

    start: float
    duration: float
    loss: float
    hosts: tuple[str, ...] | None = None   # None = every attached link

    kind = "loss_burst"


@dataclass(frozen=True)
class DelaySpike:
    """Extra one-way propagation delay on *hosts* uplinks."""

    start: float
    duration: float
    extra_delay: float
    hosts: tuple[str, ...] | None = None

    kind = "delay_spike"


@dataclass(frozen=True)
class LinkDown:
    """Total outage of *hosts* uplinks: loss forced to 1.0."""

    start: float
    duration: float
    hosts: tuple[str, ...] | None = None

    kind = "link_down"


@dataclass(frozen=True)
class ServerPause:
    """Pause query processing on every pausable app of host *host*.

    With ``restart=False`` the pause is SIGSTOP-like: queries arriving
    during the window are buffered and handled on resume.  With
    ``restart=True`` it models a crash/restart: the buffered backlog is
    discarded."""

    start: float
    duration: float
    host: str = "server"
    restart: bool = False

    kind = "server_pause"


@dataclass(frozen=True)
class QuerierCrash:
    """Kill the replay querier actor named *target* at *start*.

    Terminal: the process never comes back, so the event has no end
    edge (``duration`` is fixed at 0).  The target is looked up in the
    simulator's actor registry (``Simulator.actors``) and must expose
    ``crash()`` — see :class:`repro.replay.querier.Querier`."""

    start: float
    target: str
    duration: float = 0.0

    kind = "querier_crash"
    terminal = True


@dataclass(frozen=True)
class DistributorLag:
    """Multiply distributor *target*'s per-record cost by *factor*.

    While the window is open the named distributor drains its queue
    ``factor`` times slower; with supervision's bounded queues this is
    the scheduled way to trigger backpressure stalls (or shedding)
    instead of unbounded memory growth.  The target must expose
    ``set_lag()``."""

    start: float
    duration: float
    target: str
    factor: float = 8.0

    kind = "distributor_lag"


FaultEvent = (LossBurst | DelaySpike | LinkDown | ServerPause
              | QuerierCrash | DistributorLag)

_EVENT_KINDS = {cls.kind: cls for cls in
                (LossBurst, DelaySpike, LinkDown, ServerPause,
                 QuerierCrash, DistributorLag)}


@dataclass
class FaultPlan:
    """An ordered schedule of fault events for one run."""

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def validate(self) -> None:
        for event in self.events:
            terminal = getattr(event, "terminal", False)
            if event.start < 0 or (not terminal and event.duration <= 0):
                raise ValueError(
                    f"{event.kind}: start must be >= 0 and duration > 0, "
                    f"got start={event.start} duration={event.duration}")
            if terminal and event.duration != 0.0:
                raise ValueError(
                    f"{event.kind} is terminal; duration must be 0, "
                    f"got {event.duration}")
            if isinstance(event, LossBurst) \
                    and not 0.0 <= event.loss <= 1.0:
                raise ValueError(
                    f"loss_burst: loss must be in [0, 1], "
                    f"got {event.loss}")
            if isinstance(event, DelaySpike) and event.extra_delay < 0:
                raise ValueError(
                    f"delay_spike: extra_delay must be >= 0, "
                    f"got {event.extra_delay}")
            if isinstance(event, DistributorLag) and event.factor <= 0:
                raise ValueError(
                    f"distributor_lag: factor must be > 0, "
                    f"got {event.factor}")

    def horizon(self) -> float:
        """When the last event window closes."""
        return max((e.start + e.duration for e in self.events),
                   default=0.0)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Each event's dataclass fields after its kind, start and
        duration; ``hosts`` as a list, omitted when None."""
        out = []
        for event in self.events:
            entry = {"kind": event.kind, "start": event.start,
                     "duration": event.duration}
            entry.update((f.name, getattr(event, f.name))
                         for f in fields(event))
            hosts = entry.pop("hosts", None)
            if hosts is not None:
                entry["hosts"] = list(hosts)
            out.append(entry)
        return {"events": out}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        plan = cls()
        for entry in data.get("events", []):
            entry = dict(entry)
            kind = entry.pop("kind")
            event_cls = _EVENT_KINDS.get(kind)
            if event_cls is None:
                raise ValueError(f"unknown fault event kind {kind!r}")
            if "hosts" in entry and entry["hosts"] is not None:
                entry["hosts"] = tuple(entry["hosts"])
            plan.add(event_cls(**entry))
        plan.validate()
        return plan


class FaultInjector:
    """Applies a :class:`FaultPlan` to a simulation via its scheduler.

    *sim* is anything exposing ``scheduler``, ``network``, and
    ``hosts`` (a :class:`repro.netsim.sim.Simulator`).  Call
    :meth:`arm` once, before or during the run; every begin/end edge is
    a scheduled event, so the degraded run is as deterministic as the
    fault-free one."""

    def __init__(self, sim, plan: FaultPlan):
        plan.validate()
        self.sim = sim
        self.plan = plan
        self.armed = False
        self._active: dict[str, list[FaultEvent]] = {}
        self._baseline: dict[str, LinkParams] = {}

    def arm(self) -> None:
        if self.armed:
            return
        self.armed = True
        scheduler = self.sim.scheduler
        for event in self.plan.events:
            scheduler.at(event.start, self._begin, event)
            if not getattr(event, "terminal", False):
                scheduler.at(event.start + event.duration, self._end,
                             event)

    # -- event edges ------------------------------------------------------

    def _link_targets(self, event) -> list[str]:
        if event.hosts is not None:
            return [name for name in event.hosts
                    if name in self.sim.network._links]
        return list(self.sim.network._links)

    def _begin(self, event: FaultEvent) -> None:
        obs = self.sim.scheduler.obs
        if obs is not None:
            # The span is the count too: trace.kinds["fault.<kind>"].
            obs.tracer.emit(f"fault.{event.kind}", event.start,
                            event.start + event.duration)
        if isinstance(event, ServerPause):
            for app in self._pausable_apps(event.host):
                app.pause()
            return
        if isinstance(event, QuerierCrash):
            actor = self._actor(event.target, "crash")
            if actor is not None:
                actor.crash()
            return
        if isinstance(event, DistributorLag):
            actor = self._actor(event.target, "set_lag")
            if actor is not None:
                actor.set_lag(event.factor)
            return
        for name in self._link_targets(event):
            self._active.setdefault(name, []).append(event)
            self._recompute(name)

    def _end(self, event: FaultEvent) -> None:
        if isinstance(event, ServerPause):
            for app in self._pausable_apps(event.host):
                app.resume(drop_backlog=event.restart)
            return
        if isinstance(event, DistributorLag):
            actor = self._actor(event.target, "set_lag")
            if actor is not None:
                actor.set_lag(1.0)
            return
        for name, stack in self._active.items():
            if event in stack:
                stack.remove(event)
                self._recompute(name)

    def _actor(self, name: str, method: str):
        """A registered replay actor exposing *method*, or None.

        A missing actor is not an error (plans may target components
        only present in some configurations), but an actor without the
        expected hook is a plan bug worth surfacing."""
        actor = getattr(self.sim, "actors", {}).get(name)
        if actor is None:
            return None
        if not hasattr(actor, method):
            raise ValueError(
                f"fault target {name!r} has no {method}() hook")
        return actor

    def _pausable_apps(self, host_name: str) -> list:
        host = self.sim.hosts.get(host_name)
        if host is None:
            return []
        return [app for app in host.apps
                if hasattr(app, "pause") and hasattr(app, "resume")]

    def _recompute(self, name: str) -> None:
        link = self.sim.network._links[name]
        base = self._baseline.setdefault(name, link.params)
        keep = 1.0 - base.loss
        delay = base.delay
        down = False
        for event in self._active.get(name, ()):
            if isinstance(event, LossBurst):
                keep *= 1.0 - event.loss
            elif isinstance(event, DelaySpike):
                delay += event.extra_delay
            elif isinstance(event, LinkDown):
                down = True
        loss = 1.0 if down else 1.0 - keep
        link.params = LinkParams(delay=delay,
                                 bandwidth_bps=base.bandwidth_bps,
                                 loss=loss)
