"""The replay engine: builds the Figure-5 topology and runs a replay.

One call wires up controller (T), client instances (C1..Cn, each with a
distributor and several querier processes), and points them at a server
host (S) the caller has prepared (authoritative, meta-DNS, or
recursive).  After the run it collects a :class:`ReplayReport` joining
querier-side results with the server's query log.

Two distribution modes:

* ``distributed`` — records flow Reader -> Postman -> TCP -> distributor
  -> querier, the full §3 prototype architecture;
* ``direct`` — each distributor reads its share of the input stream
  itself ("Optionally, a single distributor can read input query stream
  directly", Figure 4): no Reader, Postman or control channel, and no
  event per record before the run — the scheduler holds what is in
  flight, not the trace.  Scheduler events per record, seed 11, at the
  performance ledger's ``--seconds 10`` scale: 3.91 on ``fig9_hot``
  (direct, ``fast``), 5.90 on ``rec17_bounded`` (direct, ΔT-timed,
  through the resolver), against 4.07 on ``broot_udp`` (distributed).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import itemgetter
from struct import Struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.replay.backends.live import LiveReplayConfig

from repro.netsim.faults import FaultInjector, FaultPlan
from repro.netsim.host import Host
from repro.netsim.network import LinkParams
from repro.netsim.sim import Simulator
from repro.obs import (Histogram, Observer, collect, group_metrics,
                       to_canonical_json)
from repro.obs.observer import SNAPSHOT_VERSION
from repro.replay.controller import Controller, READER_PER_RECORD
from repro.replay.distributor import Distributor
from repro.replay.querier import (Querier, QuerierConfig, QueryResult,
                                  ResilienceConfig, Results)
from repro.replay.supervisor import Pins, Supervisor, SupervisionConfig
from repro.trace.pipeline import as_trace
from repro.trace.record import PROTOCOLS
from repro.util.rows import Rows

# What a report derives rather than collects (ReplayReport.metrics).
DERIVED = ("meta.version", "meta.results", "meta.answered_fraction",
           "meta.sim_time", "server.memory_bytes",
           "server.cpu_busy_seconds", "server.established",
           "server.time_wait", "server.qps", "replay.still_pending")
# What an observed report reads off its results.
FROM_RESULTS = ("replay.timing_error", "replay.latency",
                *(f"replay.queries_{proto}" for proto in PROTOCOLS))


@dataclass
class ReplayConfig:
    client_instances: int = 2
    queriers_per_instance: int = 3
    mode: str = "distributed"          # or "direct"
    fast: bool = False                 # no timers: as fast as possible
    timing_jitter: bool = True         # model OS timer/send-path jitter
    client_link: LinkParams = field(default_factory=LinkParams)
    seed: int = 0
    # Per-record input-processing cost of every reader of the input
    # stream: each controller's Reader, or each direct-mode distributor.
    # §4.3's throughput experiment is bottlenecked by the generator;
    # this is that knob.
    reader_cost: float = READER_PER_RECORD
    # Ablation switch: route same-source queries to the same querier
    # (§2.6).  False scatters records randomly, breaking per-source
    # sockets and connection reuse.
    sticky_sources: bool = True
    # "If the input trace is extremely fast, the CPU of Controller may
    # become bottleneck ... we can split input stream to feed multiple
    # controllers" (§2.6).  Several controllers split the sources by
    # one seeded Pins draw per source, as direct mode splits them over
    # distributors (ReplayEngine._open).
    controllers: int = 1
    # §5.2.1 varies client-server RTTs "0ms to 140ms or based on a
    # distribution": when set, client instance i gets the i-th RTT from
    # this list (cycled), overriding client_link.delay.  Sources stick
    # to one instance, so each emulated client has a stable RTT.
    client_rtts: list[float] | None = None
    # Run-wide observability (repro.obs): also record distributions
    # (histograms), per-transport traffic and trace spans, threaded
    # through scheduler, transports, server, and replay pipeline.  Off
    # by default; the off path costs one None check per instrumented
    # operation.  Counters are in every report either way.
    observe: bool = False
    # Client-side fault tolerance (timeouts, UDP retransmission, TC-bit
    # TCP fallback, stream reconnect; docs/RESILIENCE.md).  None arms no
    # timeout and retries nothing, so a lost query stays pending
    # (test_resilience.py::test_without_retries_loss_is_materially_worse);
    # the report carries the resilience counters all the same, at zero.
    resilience: ResilienceConfig | None = None
    # RFC 7873 client behavior: queriers attach a COOKIE option to
    # every query (a deterministic per-source client cookie, plus the
    # server cookie learned from that source's previous response) so a
    # cookie-validating server (ExperimentConfig.overload /
    # OverloadConfig.cookies) can tell returning clients from spoofed
    # sources.  Off by default: attaching the option changes query
    # bytes, and with them response sizes and simulated timing.
    cookies: bool = False
    # Scheduled fault events (loss bursts, delay spikes, link-down
    # windows, server pauses, querier crashes, distributor lag) applied
    # to the fabric during the run.
    fault_plan: FaultPlan | None = None
    # Control-plane supervision: heartbeats + failover and bounded
    # queues with backpressure (distributed mode only;
    # docs/RESILIENCE.md).  None builds no Supervisor: no heartbeat or
    # monitor event, no bounded queue (and a fault-free
    # supervised run forwards at the same pace: test_supervision.py::
    # test_fault_free_supervision_leaves_the_forwarding_pace_alone);
    # the report carries the supervision counters all the same, at zero.
    supervision: SupervisionConfig | None = None
    # Which replay backend executes the run (docs/BACKENDS.md):
    # "sim" is the deterministic discrete-event simulator; "live" binds
    # real asyncio UDP/TCP loopback sockets and replays in wall-clock
    # time.  Both emit the same ReplayReport metric schema.
    backend: str = "sim"
    # Live-backend tuning (bind address/port, pacing speed, timeouts);
    # ignored by the sim backend.  None uses LiveReplayConfig defaults.
    live: "LiveReplayConfig | None" = None
    # Drain window appended after the last trace record, and an
    # optional absolute stop time.
    extra_time: float = 5.0
    until: float | None = None
    # Online invariant checking (repro.check.invariants): per-send
    # message-id collision checks, periodic conservation/pinning scans
    # (every N sends), and a final verification before the report.
    # Shaped like ``observe``: off by default, and a checked run stays
    # byte-identical to an unchecked one (the checker only reads
    # state, it schedules nothing).
    check: bool = False

    def querier_config(self, **per_querier) -> QuerierConfig:
        """A run's querier config; *per_querier* adds the rest."""
        return QuerierConfig(resilience=self.resilience,
                             cookies=self.cookies, fast=self.fast,
                             **per_querier)


class SendOrder(Rows):
    """Every querier's :class:`~repro.replay.querier.Results`, read as
    one sequence of :class:`QueryResult` rows in send-time order (ties
    in querier order, then each querier's own): a k-way merge of their
    send columns, kept as each result's position in the queriers' rows
    laid end to end, 8 bytes a result."""

    ROW = Struct("=q")              # native, as the array it is made from

    __slots__ = ("_columns", "_starts")

    def __init__(self, columns: list[Results]):
        super().__init__()
        self._columns = columns
        self._starts = [0, *accumulate(map(len, columns))]
        self.data = bytearray(array("q", map(itemgetter(1), heapq.merge(
            *map(zip, (results.column("send") for results in columns),
                 map(count, self._starts))))))

    def _read(self, row: int) -> QueryResult:
        (position,) = self.ROW.unpack_from(self.data, row * self.ROW.size)
        which = bisect_right(self._starts, position) - 1
        return self._columns[which]._read(position - self._starts[which])


@dataclass
class ReplayReport:
    # In send order; each row's .record is read from the replayed input
    # by its index (querier.Results).
    results: Sequence[QueryResult]
    queriers: list[Querier]
    sim: Simulator
    server_host: Host
    observer: Observer | None = None
    # The run's top-level counting objects (``COUNTERS``,
    # repro.obs.report); each brings the parts it owns, None entries
    # are skipped.
    counted: list = field(default_factory=list)

    def __repr__(self) -> str:
        # Counts, not contents: the dataclass repr formats every result
        # and its record (5 MB for 12k queries), and asyncio.run's
        # teardown reprs the main task's result, twice.
        return (f"ReplayReport({len(self.results)} results, "
                f"{len(self.queriers)} queriers)")

    def latencies(self) -> list[float]:
        return [r.latency for r in self.results
                if r.latency is not None]

    def answered_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.answered) \
            / len(self.results)

    def send_times(self) -> dict[str, float]:
        """Replayed send time per query name (for matching against the
        original trace, which uses unique names)."""
        return {r.record.qname: r.send_time for r in self.results}

    def results_by_client(self) -> dict[str, list[QueryResult]]:
        grouped: dict[str, list[QueryResult]] = {}
        for result in self.results:
            grouped.setdefault(result.record.src, []).append(result)
        return grouped

    # -- observability -------------------------------------------------------

    def metrics(self, include_volatile: bool = False) -> dict:
        """Grouped metrics snapshot for this run (format version
        ``meta.version``, docs/OBSERVABILITY.md).

        Every counter the :data:`repro.replay.backends.COUNTED`
        classes declare is here, zero when idle, read off the run's
        objects; so are the :data:`DERIVED` run/server aggregates.
        With an observer attached (``ReplayConfig(observe=True)``) the
        snapshot also holds every row the ``Observer`` declares
        (per-transport and scheduler metrics, histograms, the
        trace-span summary) and the :data:`FROM_RESULTS` rows.
        Deterministic for identical seeds unless *include_volatile*
        adds wall-clock and implementation-detail rows."""
        from repro.replay.backends import COUNTED
        flat = collect(COUNTED, self.counted, include_volatile)
        snapshot = {}
        if self.observer is not None:
            snapshot = self.observer.snapshot(include_volatile)
            flat.update(self._from_results())
        for group, values in group_metrics(flat).items():
            snapshot.setdefault(group, {}).update(values)
        now = self.sim.now
        snapshot["meta"] = {
            "version": SNAPSHOT_VERSION, "results": len(self.results),
            "answered_fraction": self.answered_fraction(),
            "sim_time": now}
        meter = self.server_host.meter
        server = snapshot["server"]
        server["memory_bytes"] = meter.memory
        server["cpu_busy_seconds"] = meter.cpu_busy
        server["established"] = meter.established
        server["time_wait"] = meter.time_wait
        server["qps"] = server["queries"] / now if now > 0 else 0.0
        # Must be 0 under a retry policy: it accounts for every query.
        snapshot["replay"]["still_pending"] = sum(
            q.pending_count() for q in self.queriers)
        return snapshot

    def _from_results(self) -> dict:
        """The :data:`FROM_RESULTS` rows, flat.  Each histogram takes
        its samples in the order a run meets them, which fixes the last
        digit of its mean: the §2.6 timing error (actual − ΔT-scheduled
        send time) in send order, latency in response order."""
        timing_error, latency = map(Histogram, FROM_RESULTS[:2])
        sent = dict.fromkeys(PROTOCOLS, 0)
        for result in self.results:             # send order (gather)
            timing_error.record(result.send_time - result.scheduled_time)
            sent[result.record.proto] += 1
        for result in sorted((r for r in self.results if r.answered),
                             key=lambda r: r.response_time):
            latency.record(result.response_time - result.send_time)
        return dict(zip(FROM_RESULTS, (timing_error.snapshot(),
                                       latency.snapshot(), *sent.values())))

    @staticmethod
    def schema() -> dict[str, set[str]]:
        """The groups and keys every report carries, whatever its
        config or backend: every declared counter plus
        :data:`DERIVED` (an observed run adds recorded keys)."""
        from repro.replay.backends import COUNTED
        return {group: set(values) for group, values in group_metrics(
            dict.fromkeys([*collect(COUNTED, ()), *DERIVED])).items()}

    def to_json(self, include_volatile: bool = False,
                indent: int | None = None) -> str:
        """Canonical JSON of :meth:`metrics`: identical seeds/configs
        produce byte-identical output across processes."""
        return to_canonical_json(
            self.metrics(include_volatile=include_volatile),
            indent=indent)

    @classmethod
    def gather(cls, queriers: list[Querier], clock, server_host,
               observer: Observer | None, counted: list) -> "ReplayReport":
        """A run's report, on either backend: every querier's results in
        send-time order; *clock* gives ``.now`` at report time."""
        return cls(results=SendOrder([q.results for q in queriers]),
                   queriers=queriers, sim=clock,
                   server_host=server_host, observer=observer,
                   counted=counted)


# The capability table (docs/BACKENDS.md).  The backend each executor
# runs, and its refusal of a config selecting another:
_EXECUTORS = {
    "ReplayEngine": ("sim", "ReplayEngine executes the 'sim' backend, but "
                     "this config selects backend={backend!r}; build it via "
                     "repro.replay.backends.get_backend() or an experiment "
                     "facade instead"),
    "LiveBackend": ("live", "LiveBackend requires backend='live', got "
                    "{backend!r}"),
    "RecursiveExperiment": ("sim", "RecursiveExperiment requires backend="
                            "'sim': the recursive pipeline rides the "
                            "simulated proxies (docs/BACKENDS.md)"),
}
# What only the simulator can run, as (asked for?, why): any other
# backend refuses it rather than silently replaying without it.
SIM_ONLY = (
    (lambda c: c.supervision is not None, "supervision is sim-only: "
     "heartbeats ride the simulated control plane"),
    (lambda c: c.fault_plan is not None, "fault injection is sim-only: "
     "faults are applied to the simulated fabric"),
    (lambda c: c.client_link.loss > 0, "client loss is sim-only: the "
     "simulated client links drop the packets"),
    (lambda c: c.client_rtts is not None, "client_rtts is sim-only: they "
     "are delays of the simulated client links"),
)
LIVE_PROTOCOLS = ("udp", "tcp")     # the record protocols a live run sends


def _validate_config(config: ReplayConfig, executor: str) -> None:
    """Reject impossible topologies, and what *executor*'s backend
    cannot run, up front with actionable messages (previously a zero
    here surfaced as a bare ZeroDivisionError or IndexError deep inside
    the feed loop)."""
    from repro.replay.backends import BACKENDS
    if config.backend not in BACKENDS:
        raise ValueError(
            f"ReplayConfig.backend must be one of "
            f"{sorted(BACKENDS)}, got {config.backend!r} "
            "(see docs/BACKENDS.md)")
    if config.client_instances < 1:
        raise ValueError(
            "ReplayConfig.client_instances must be >= 1, got "
            f"{config.client_instances}: a replay needs at least one "
            "client instance to host queriers")
    if config.queriers_per_instance < 1:
        raise ValueError(
            "ReplayConfig.queriers_per_instance must be >= 1, got "
            f"{config.queriers_per_instance}: each client instance "
            "needs at least one querier process")
    if config.mode not in ("distributed", "direct"):
        raise ValueError(
            f"ReplayConfig.mode must be 'distributed' or 'direct', "
            f"got {config.mode!r}")
    if config.mode == "distributed" and config.controllers < 1:
        raise ValueError(
            "ReplayConfig.controllers must be >= 1 in distributed "
            f"mode, got {config.controllers}: the Reader/Postman "
            "pipeline needs a controller")
    if config.supervision is not None and config.mode != "distributed":
        raise ValueError(
            "ReplayConfig.supervision requires mode='distributed': "
            "supervision heartbeats travel over the controller's TCP "
            "control channels, which direct mode does not build")
    backend, refusal = _EXECUTORS[executor]
    if config.backend != backend:
        raise ValueError(refusal.format(backend=config.backend))
    if backend != "sim":
        for asked_for, why in SIM_ONLY:
            if asked_for(config):
                raise ValueError(f"{why} (docs/BACKENDS.md)")


def _validate_run(config: ReplayConfig, records) -> None:
    """The capability table's run-time half: what a run brings."""
    if config.backend == "sim":
        return
    for record in records:
        if record.proto not in LIVE_PROTOCOLS:
            raise ValueError(
                f"the live backend replays udp/tcp, but a record "
                f"uses proto={record.proto!r}; rewrite the trace "
                "(e.g. trace.pipeline SetProtocol) or use "
                "backend='sim'")


class ReplayEngine:
    """Builds replay infrastructure inside an existing simulator.

    This is the *sim* backend's engine; the live backend
    (:mod:`repro.replay.backends.live`) replays over real sockets and
    shares no simulator.  Use :func:`repro.replay.backends.get_backend`
    or the experiment facades to dispatch on
    ``ReplayConfig.backend``."""

    def __init__(self, sim: Simulator, server_addr: str,
                 config: ReplayConfig | None = None):
        self.sim = sim
        self.server_addr = server_addr
        self.config = config = config or ReplayConfig()
        _validate_config(config, "ReplayEngine")
        self.queriers: list[Querier] = []
        # Every record this engine has replayed, in input-index order:
        # what the queriers' result rows name by index.
        self.inputs: list = []
        self.distributors: list[Distributor] = []
        self.controllers: list[Controller] = []
        self.fault_injector: FaultInjector | None = None
        # The readers' split of the current run's sources (_open): a
        # Pins table over reader positions, None with one reader.
        self.split: Pins | None = None
        self._build()
        self.supervisor: Supervisor | None = \
            (Supervisor(self, config.supervision)
             if config.supervision is not None else None)

    def _build(self) -> None:
        config = self.config
        if config.observe and self.sim.observer is None:
            self.sim.attach_observer(Observer())
        for i in range(config.client_instances):
            if config.client_rtts:
                # The server contributes (rtt/4)*2 of its own uplink in
                # the prefab experiments; here the client uplink carries
                # the remainder so instance RTTs land on target when the
                # server link is near zero.
                delay = config.client_rtts[i % len(config.client_rtts)] / 2
            else:
                delay = config.client_link.delay
            host = self.sim.add_host(
                f"client{i}", [f"10.3.{i // 250}.{i % 250 + 1}"],
                link=LinkParams(delay,
                                config.client_link.bandwidth_bps,
                                config.client_link.loss))
            queriers = []
            for q in range(config.queriers_per_instance):
                seed = (config.seed * 7919 + i * 131 + q
                        if config.timing_jitter else None)
                queriers.append(Querier(
                    host, self.server_addr,
                    name=f"querier-{i}.{q}",
                    config=config.querier_config(jitter_seed=seed)))
            self.queriers.extend(queriers)
            for querier in queriers:
                querier.results.inputs = self.inputs
                self.sim.actors[querier.name] = querier
            distributor = Distributor(host, queriers,
                                      seed=config.seed + i,
                                      sticky=config.sticky_sources,
                                      name=f"distributor{i}")
            self.sim.actors[distributor.name] = distributor
            self.distributors.append(distributor)
        if config.mode == "distributed":
            for c in range(config.controllers):
                controller_host = self.sim.add_host(
                    f"controller{c}" if config.controllers > 1
                    else "controller",
                    [f"10.4.0.{c + 1}"], link=LinkParams())
                self.controllers.append(Controller(
                    controller_host, self.distributors,
                    seed=config.seed + c, control_port=9053 + c))

    # -- running ------------------------------------------------------------

    def run(self, trace, *, extra_time: float | None = None,
            until: float | None = None) -> ReplayReport:
        """Replay *trace* to completion (plus a drain window).

        *trace* may be a :class:`Trace`, a
        :class:`~repro.trace.pipeline.TracePipeline` (run here, with
        its ``trace.pipeline_*`` counts landing in this engine's
        observer when observing), or any iterable of records.

        The drain window and stop time are *extra_time* / *until*,
        falling back to ``ReplayConfig.extra_time`` /
        ``ReplayConfig.until``."""
        config = self.config
        extra_time = config.extra_time if extra_time is None else extra_time
        until = config.until if until is None else until
        records = as_trace(
            trace, self.sim.observer if config.observe else None
        ).sorted().records
        _validate_run(config, records)
        checker = None
        if config.check:
            from repro.check.invariants import InvariantChecker
            checker = InvariantChecker(
                self.queriers, [(host.name, app)
                                for host in self.sim.hosts.values()
                                for app in host.apps],
                config, self.sim).attach()
            for reader in (*self.controllers, *self.distributors):
                reader.check = checker
        # The injector is armed before any feed event, so a fault armed
        # at a record's availability instant wins the insertion-order
        # tie and applies to that record; Distributor._read_before_now
        # relies on it.
        self._arm_faults()
        if self.supervisor is not None:
            self.supervisor.start()
        self._open(records)
        if until is not None:
            self.sim.run(until=until)
            # What the reader made available by the cut has arrived,
            # whether or not a hand-over has looked since.
            for distributor in self.distributors:
                distributor.read(until)
        else:
            self.sim.run_until_idle()
            self.sim.run(until=self.sim.now + extra_time)
        if checker is not None:
            # Total-conservation (one result per trace record) only
            # holds when nothing may legitimately drop or re-home
            # records: no early stop, no injected faults, no failover.
            expected = None
            if (until is None and config.fault_plan is None
                    and config.supervision is None):
                expected = len(records)
            checker.final(expected_results=expected)
        return self.report()

    def _arm_faults(self) -> None:
        if self.config.fault_plan is None \
                or self.fault_injector is not None:
            return
        self.fault_injector = FaultInjector(self.sim, self.config.fault_plan)
        self.fault_injector.arm()

    def _open(self, records) -> None:
        """Open the input stream, once for either mode: *records* join
        :attr:`inputs`, ``records[i]`` as input index ``base + i``.  The
        readers are the controllers (distributed) or the distributors
        (direct, Figure 4); each is told t̄₁, the first record's trace
        time, and reads within the read horizon unless the replay is
        ``fast``.  One reader reads the whole stream; several split it
        by source — §2.6's "split input stream to feed multiple
        controllers" — with one :class:`Pins` draw per source over the
        readers' positions, so a draw names a share and every record of
        a source reaches the same reader."""
        base = len(self.inputs)
        self.inputs += records
        readers = self.controllers or self.distributors
        n = len(readers)
        if n == 1:
            self.split = None
            shares = [range(len(records))]
        else:
            self.split = split = Pins(list(range(n)),
                                      self.config.seed,
                                      actor=readers.__getitem__)
            shares = [array("q") for _ in readers]
            for index, record in enumerate(records):
                shares[split.member_for(record.src)].append(index)
        cost = self.config.reader_cost
        timed = not self.config.fast
        if self.controllers:
            for controller, share in zip(self.controllers, shares):
                if share:
                    controller.start(map(records.__getitem__, share),
                                     records[0].time, cost,
                                     map(base.__add__, share), timed)
                else:
                    controller.finished = True
            return
        if not records:
            return
        for distributor in self.distributors:
            self.sim.scheduler.after(0.0, distributor.handle_sync,
                                     records[0].time)
        # Arrival events armed in stream order, so records available at
        # the same instant are read in the order a single reader reads
        # them.
        for distributor, share in sorted(
                zip(self.distributors, shares),
                key=lambda pair: pair[1][0] if pair[1] else len(records)):
            distributor.read_from(records, share, cost,
                                  records[0].time if timed else None, base)

    def report(self) -> ReplayReport:
        counted = [*self.queriers, *self.distributors, *self.controllers,
                   self.supervisor, self.sim.network]
        for host in self.sim.hosts.values():
            counted += host.apps    # every server and resolver built
        return ReplayReport.gather(
            self.queriers, self.sim,
            self.sim.network.host_for(self.server_addr),
            self.sim.observer, counted)
