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

from dataclasses import dataclass, field

from repro.dns.zone import Zone
from repro.netsim.network import LinkParams
from repro.netsim.resources import CostModel, PeriodicSampler, Sample
from repro.netsim.sim import Simulator
from repro.proxy import AuthoritativeProxy, RecursiveProxy
from repro.replay.backends.sim import SimBackend
from repro.replay.engine import ReplayConfig, ReplayEngine, ReplayReport
from repro.server import (AuthoritativeServer, MetaDnsServer,
                          RecursiveResolver, RootHint)
from repro.server.cache import CacheConfig
from repro.server.overload import OverloadConfig
from repro.trace.record import Trace

SERVER_ADDR = "10.0.0.2"
RECURSIVE_ADDR = "10.1.0.2"
META_ADDR = "10.2.0.2"


@dataclass
class ExperimentConfig:
    """Knobs shared by both experiment shapes."""

    rtt: float = 0.001              # client <-> server round-trip time
    server_cores: int = 48          # paper: 24-core/48-thread Xeon
    cost: CostModel | None = None
    tcp_idle_timeout: float | None = 20.0
    nagle: bool = True
    sample_interval: float = 10.0
    log_queries: bool = True
    # When set, model NSD-style worker processes: responses queue once
    # offered load exceeds workers/service-time capacity (overload
    # experiments).  None = accounting-only CPU (the paper's §5 regime,
    # far from saturation).
    server_workers: int | None = None
    # Precompiled-answer cache.  Off is the miss path every query can
    # take; it must leave every deterministic report byte-identical
    # (the A/B determinism tests pin this), so the toggle exists purely
    # for those tests and for perf attribution.
    answer_cache: bool = True
    # Symmetric per-packet loss on every client uplink (the §2.1
    # "control response times" axis: lossy what-ifs).  Pair with
    # ReplayConfig.resilience so degradation is measured, not silent.
    client_loss: float = 0.0
    # Server-side overload control (RRL, DNS Cookies, admission
    # queueing — docs/RESILIENCE.md).  None keeps every defense off:
    # the server answers as one without them (the report carries the
    # defense counters all the same, at zero).
    overload: OverloadConfig | None = None
    # Recursive-resolver cache policy (bounded LRU, serve-stale,
    # prefetch — docs/RECURSIVE.md).  None = the historical unbounded
    # cache, resolution for resolution.
    cache: CacheConfig | None = None
    replay: ReplayConfig = field(default_factory=ReplayConfig)


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
            cores=self.config.server_cores, cost=self.config.cost)
        from repro.server.authoritative import WorkerPool
        pool = (WorkerPool(self.config.server_workers)
                if self.config.server_workers else None)
        self.server = AuthoritativeServer(
            self.server_host, zones=zones,
            tcp_idle_timeout=self.config.tcp_idle_timeout,
            nagle=self.config.nagle, worker_pool=pool,
            log_queries=self.config.log_queries,
            answer_cache=self.config.answer_cache,
            overload=self.config.overload)
        replay_config = self.config.replay
        replay_config.client_link = LinkParams(
            delay=half_rtt, loss=self.config.client_loss)
        self.engine = ReplayEngine(self.sim, SERVER_ADDR, replay_config)
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
            zones, config=self.config.replay,
            log_queries=self.config.log_queries,
            answer_cache=self.config.answer_cache,
            overload=self.config.overload)
        self.server = self.backend.responder
        self.server_host = self.backend.host

    def run(self, trace: Trace, until: float | None = None,
            extra_time: float | None = None,
            resume_from=None) -> ExperimentResult:
        """Run the replay.  *until*/*extra_time* default to the values
        in ``ReplayConfig`` (the experiment facade may still override
        them per run without deprecation)."""
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
        if self.config.replay.backend != "sim":
            raise ValueError(
                "RecursiveExperiment requires backend='sim': the "
                "recursive pipeline rides the simulated proxies "
                "(docs/BACKENDS.md)")
        self.sim = Simulator(observe=self.config.replay.observe)
        half_rtt = self.config.rtt / 4
        self.meta_host = self.sim.add_host(
            "meta", [META_ADDR], LinkParams(delay=0.0001),
            cores=self.config.server_cores, cost=self.config.cost)
        self.meta = MetaDnsServer(self.meta_host, zones,
                                  log_queries=self.config.log_queries,
                                  answer_cache=self.config.answer_cache)
        self.recursive_host = self.sim.add_host(
            "recursive", [RECURSIVE_ADDR], LinkParams(delay=half_rtt))
        self.resolver = RecursiveResolver(self.recursive_host, root_hints,
                                          cache=self.config.cache)
        self.recursive_proxy = RecursiveProxy(self.recursive_host,
                                              meta_server_addr=META_ADDR)
        self.authoritative_proxy = AuthoritativeProxy(
            self.meta_host, recursive_addr=RECURSIVE_ADDR)
        replay_config = self.config.replay
        replay_config.client_link = LinkParams(
            delay=half_rtt, loss=self.config.client_loss)
        self.engine = ReplayEngine(self.sim, RECURSIVE_ADDR,
                                   replay_config)
        self.backend = SimBackend(self.engine)
        self.sampler = PeriodicSampler(self.sim.scheduler,
                                       self.meta_host.meter,
                                       self.config.sample_interval)

    def run(self, trace: Trace, until: float | None = None,
            extra_time: float | None = None) -> ExperimentResult:
        # Stub queries must request recursion.
        stub_trace = Trace([r.with_(rd=True) for r in trace],
                           name=trace.name)
        report = self.backend.run(stub_trace, extra_time=extra_time,
                                  until=until)
        return ExperimentResult(report=report,
                                samples=self.meta_host.meter.samples,
                                sim=self.sim)
