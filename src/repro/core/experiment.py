"""Prefabricated experiment setups: the paper's two replay modes.

* :class:`AuthoritativeExperiment` — Figure 5/12: queriers replay a
  trace directly against an authoritative server (the B-Root
  experiments of §4 and §5).
* :class:`RecursiveExperiment` — Figure 1's full pipeline: queriers
  replay stub queries at a recursive server, whose iterative traffic is
  redirected through the proxies to a meta-DNS-server emulating the
  whole hierarchy (§2.4).

Both wrap: build simulator -> place server(s) -> attach the replay
engine -> run the trace -> return an :class:`ExperimentResult` joining
querier-side results with server-side resource samples and query logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dns.zone import Zone
from repro.netsim.network import LinkParams
from repro.netsim.resources import CostModel, PeriodicSampler, Sample
from repro.netsim.sim import Simulator
from repro.proxy import AuthoritativeProxy, RecursiveProxy
from repro.replay.backends.sim import SimBackend
from repro.replay.engine import (ReplayConfig, ReplayEngine, ReplayReport,
                                 _validate_config)
from repro.server import (AuthoritativeServer, MetaDnsServer,
                          RecursiveResolver, RootHint)
from repro.server.cache import CacheConfig
from repro.server.overload import OverloadConfig
from repro.trace.record import Trace

SERVER_ADDR = "10.0.0.2"
RECURSIVE_ADDR = "10.1.0.2"
META_ADDR = "10.2.0.2"
SERVER_CORES = 48       # paper: 24-core/48-thread Xeon


@dataclass
class ExperimentConfig:
    """Knobs of the two experiment shapes; each field says which facade
    reads it (A = :class:`AuthoritativeExperiment`, R =
    :class:`RecursiveExperiment`)."""

    # A, R: client <-> server round-trip time; with client_loss it
    # makes the engine's client_link.  Live replays ignore it: loopback
    # has its own.
    rtt: float = 0.001
    cost: CostModel | None = None               # A, R: server cost model
    tcp_idle_timeout: float | None = 20.0       # A
    sample_interval: float = 10.0               # A, R
    # A: when set, model NSD-style worker processes: responses queue
    # once offered load exceeds workers/service-time capacity (overload
    # experiments).  None = accounting-only CPU (the paper's §5 regime,
    # far from saturation).
    server_workers: int | None = None
    # A, R: precompiled-answer cache.  Off is the miss path every query
    # can take; reports are byte-identical either way
    # (tests/check/test_differential.py runs the cache on/off matrix),
    # so the toggle exists for that check and for perf attribution.
    answer_cache: bool = True
    # A, R: symmetric per-packet loss on every client uplink (the §2.1
    # "control response times" axis: lossy what-ifs).  Pair with
    # ReplayConfig.resilience so degradation is measured, not silent.
    # Sim only: the live backend refuses it.
    client_loss: float = 0.0
    # A: server-side overload control (RRL, DNS Cookies, admission
    # queueing — docs/RESILIENCE.md).  None builds no limiter, cookie
    # jar or admission queue; tests/golden/sim_report.json is recorded
    # that way, and the report carries the defense counters at zero.
    overload: OverloadConfig | None = None
    # R: recursive-resolver cache policy (bounded LRU, serve-stale,
    # prefetch — docs/RECURSIVE.md).  None = CacheConfig(): unbounded,
    # no serve-stale, no prefetch.
    cache: CacheConfig | None = None
    replay: ReplayConfig = field(default_factory=ReplayConfig)

    def engine_config(self) -> ReplayConfig:
        """The facades' replay config, on either backend: a copy of
        ``replay`` whose ``client_link`` carries ``rtt``/``client_loss``
        (the caller's object is left as passed)."""
        if self.replay.client_link != LinkParams():
            raise ValueError(
                "an experiment facade derives ReplayConfig.client_link "
                "from ExperimentConfig.rtt and .client_loss; set those "
                f"instead of client_link={self.replay.client_link}")
        # Two uplinks each way share the round trip.
        return replace(self.replay, client_link=LinkParams(
            delay=self.rtt / 4, loss=self.client_loss))


@dataclass
class ExperimentResult:
    report: ReplayReport
    samples: list[Sample]
    sim: Simulator

    def steady_state_samples(self, warmup: float = 300.0) -> list[Sample]:
        """Samples after the warm-up transient (the paper ignores the
        first ~5 minutes; pass a smaller warmup for scaled runs)."""
        cut = [s for s in self.samples if s.time >= warmup]
        return cut or self.samples


class AuthoritativeExperiment:
    """Replay a trace straight at an authoritative server.

    Dispatches on ``ReplayConfig.backend``: the default ``"sim"`` builds
    the simulated Figure-5 world exactly as before; ``"live"`` serves
    the same zones behind real asyncio loopback sockets
    (docs/BACKENDS.md).  On the live path the sim-only attributes
    (``sim``, ``engine``, ``sampler``) are ``None``."""

    def __init__(self, zones: list[Zone],
                 config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        if self.config.replay.backend == "live":
            self._build_live(zones)
            return
        # Observer attaches before any host/server exists so that
        # construction-time instrumentation is captured too.
        self.sim = Simulator(observe=self.config.replay.observe)
        half_rtt = self.config.rtt / 4  # two uplinks each way
        self.server_host = self.sim.add_host(
            "server", [SERVER_ADDR], LinkParams(delay=half_rtt),
            cores=SERVER_CORES, cost=self.config.cost)
        from repro.server.authoritative import WorkerPool
        pool = (WorkerPool(self.config.server_workers)
                if self.config.server_workers else None)
        self.server = AuthoritativeServer(
            self.server_host, zones=zones,
            tcp_idle_timeout=self.config.tcp_idle_timeout,
            worker_pool=pool, log_queries=True,
            answer_cache=self.config.answer_cache,
            overload=self.config.overload)
        self.engine = ReplayEngine(self.sim, SERVER_ADDR,
                                   self.config.engine_config())
        self.backend = SimBackend(self.engine)
        self.sampler = PeriodicSampler(self.sim.scheduler,
                                       self.server_host.meter,
                                       self.config.sample_interval)

    def _build_live(self, zones: list[Zone]) -> None:
        from repro.replay.backends import LiveBackend
        self.sim = None
        self.engine = None
        self.sampler = None
        self.backend = LiveBackend(
            zones, config=self.config.engine_config(), log_queries=True,
            answer_cache=self.config.answer_cache,
            overload=self.config.overload)
        self.server = self.backend.responder
        self.server_host = self.backend.host

    def run(self, trace: Trace, until: float | None = None,
            extra_time: float | None = None,
            resume_from=None) -> ExperimentResult:
        """Run the replay; *until*/*extra_time* as in
        :meth:`ReplayEngine.run`."""
        report = self.backend.run(trace, extra_time=extra_time,
                                  until=until, resume_from=resume_from)
        return ExperimentResult(report=report,
                                samples=self.server_host.meter.samples,
                                sim=self.sim if self.sim is not None
                                else report.sim)


class RecursiveExperiment:
    """Replay stub queries at a recursive backed by the meta-DNS-server."""

    def __init__(self, zones: list[Zone], root_hints: list[RootHint],
                 config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        _validate_config(self.config.replay, "RecursiveExperiment")
        self.sim = Simulator(observe=self.config.replay.observe)
        half_rtt = self.config.rtt / 4
        self.meta_host = self.sim.add_host(
            "meta", [META_ADDR], LinkParams(delay=0.0001),
            cores=SERVER_CORES, cost=self.config.cost)
        self.meta = MetaDnsServer(self.meta_host, zones, log_queries=True,
                                  answer_cache=self.config.answer_cache)
        self.recursive_host = self.sim.add_host(
            "recursive", [RECURSIVE_ADDR], LinkParams(delay=half_rtt))
        self.resolver = RecursiveResolver(self.recursive_host, root_hints,
                                          cache=self.config.cache)
        self.recursive_proxy = RecursiveProxy(self.recursive_host,
                                              meta_server_addr=META_ADDR)
        self.authoritative_proxy = AuthoritativeProxy(
            self.meta_host, recursive_addr=RECURSIVE_ADDR)
        self.engine = ReplayEngine(self.sim, RECURSIVE_ADDR,
                                   self.config.engine_config())
        self.backend = SimBackend(self.engine)
        self.sampler = PeriodicSampler(self.sim.scheduler,
                                       self.meta_host.meter,
                                       self.config.sample_interval)

    def run(self, trace: Trace, until: float | None = None,
            extra_time: float | None = None) -> ExperimentResult:
        # Stub queries must request recursion.
        stub_trace = Trace([r if r.rd else r.with_(rd=True) for r in trace],
                           name=trace.name)
        report = self.backend.run(stub_trace, extra_time=extra_time,
                                  until=until)
        return ExperimentResult(report=report,
                                samples=self.meta_host.meter.samples,
                                sim=self.sim)
