"""Simulator facade: one object wiring scheduler + network + hosts."""

from __future__ import annotations

from repro.netsim.clock import Scheduler
from repro.netsim.host import Host
from repro.netsim.network import LinkParams, Network
from repro.netsim.resources import CostModel


class Simulator:
    """A testbed instance: create hosts, attach them, run the clock.

    ``observe=True`` attaches a :class:`repro.obs.Observer` before any
    host exists, so every instrumented component reports from its first
    operation; :meth:`attach_observer` shares an existing one.
    """

    def __init__(self, observe: bool = False) -> None:
        self.scheduler = Scheduler()
        self.network = Network(self.scheduler)
        self.hosts: dict[str, Host] = {}
        # Named replay-layer actors (queriers, distributors) that fault
        # events can target by name (see repro.netsim.faults).
        self.actors: dict[str, object] = {}
        self.observer = None
        if observe:
            from repro.obs import Observer
            self.attach_observer(Observer())

    @property
    def now(self) -> float:
        return self.scheduler.now

    def attach_observer(self, observer) -> None:
        """Attach metrics/tracing; idempotent for the same observer."""
        if self.observer is not None and self.observer is not observer:
            raise RuntimeError("simulator already has an observer")
        self.observer = observer
        self.scheduler.obs = observer

    def add_host(self, name: str, addrs: list[str],
                 link: LinkParams | None = None, *, cores: int = 8,
                 cost: CostModel | None = None) -> Host:
        """Create a host, attach it to the fabric, return it."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name}")
        host = Host(self.scheduler, name, addrs, cores=cores, cost=cost)
        self.network.attach(host, link)
        self.hosts[name] = host
        return host

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        self.scheduler.run(until=until, max_events=max_events)

    def run_until_idle(self) -> None:
        self.scheduler.run_until_idle()
