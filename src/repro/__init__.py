"""repro: a from-scratch reproduction of LDplayer (IMC 2018).

LDplayer is a trace-driven DNS experimentation framework: it rebuilds
the DNS hierarchy from traces, emulates all of it on one server via
split-horizon views and address-rewriting proxies, and replays traces
with faithful timing from distributed queriers over UDP, TCP, or TLS.

This module is the public facade — the stable names downstream code
should import::

    from repro import Simulator, ReplayConfig, ReplayEngine

* :class:`Simulator` — the simulated testbed (hosts, links, clock);
* :class:`ReplayEngine` / :class:`ReplayConfig` /
  :class:`ReplayReport` — the distributed query replay pipeline;
  ``ReplayConfig(observe=True)`` turns on run-wide observability and
  ``ReplayReport.metrics()`` / ``.to_json()`` export it;
* :class:`LiveReplayConfig` — tuning for the second execution
  substrate: ``ReplayConfig(backend="sim"|"live")`` selects the
  deterministic simulator or real asyncio loopback sockets
  (docs/BACKENDS.md), behind the same report schema;
* :class:`DnsResponder` — the transport-independent answering core
  both backends serve;
* :class:`OverloadConfig` (+ :class:`RrlConfig`, :class:`CookieConfig`,
  :class:`AdmissionConfig`) — server-side overload control: response
  rate limiting, RFC 7873 DNS Cookies, and bounded-admission graceful
  degradation, all inside the shared responder (docs/RESILIENCE.md);
* :class:`CacheConfig` — recursive-resolver cache policy: bounded LRU,
  RFC 8767 serve-stale, refresh-ahead prefetch (docs/RECURSIVE.md);
* :class:`Observer` / :class:`Tracer` — the observability layer
  itself (:mod:`repro.obs`, see docs/OBSERVABILITY.md);
* :class:`TracePipeline` + its ops (:class:`SetProtocol`,
  :class:`SetDoFraction`, :class:`PrependUnique`, :class:`ScaleTime`,
  :class:`RebaseTime`, :class:`SetQnameSuffix`,
  :class:`FilterRecords`, :class:`MapRecords`) — the lazy,
  chunk-parallel trace-transformation API (see docs/TRACES.md);
* :func:`authoritative_world` — the standard prefab experiment world;
* :class:`AuthoritativeExperiment` / :class:`RecursiveExperiment` —
  the paper's two end-to-end replay shapes;
* :class:`InvariantViolation` / :func:`verify_queriers` — the
  conformance layer
  (:mod:`repro.check`, see docs/VERIFICATION.md):
  ``ReplayConfig(check=True)`` verifies replay invariants online, and
  the ``ldp-verify`` CLI drives golden, differential, and fuzz tiers.

Subsystem packages remain importable directly (:mod:`repro.dns`,
:mod:`repro.netsim`, :mod:`repro.trace`, :mod:`repro.replay`,
:mod:`repro.server`, :mod:`repro.zonegen`, :mod:`repro.workloads`,
:mod:`repro.experiments`); nothing that used to import from them needs
to change.
"""

from repro.check import InvariantViolation, verify_queriers
from repro.core import (AuthoritativeExperiment, ExperimentConfig,
                        ExperimentResult, RecursiveExperiment)
from repro.netsim.faults import (DelaySpike, DistributorLag,
                                 FaultInjector, FaultPlan, LinkDown,
                                 LossBurst, QuerierCrash, ServerPause)
from repro.netsim.sim import Simulator
from repro.obs import Observer, Tracer
from repro.replay.backends import LiveReplayConfig
from repro.replay.engine import ReplayConfig, ReplayEngine, ReplayReport
from repro.replay.querier import QuerierConfig, ResilienceConfig
from repro.replay.supervisor import ReplayCheckpoint, SupervisionConfig
from repro.server.cache import CacheConfig
from repro.server.overload import (AdmissionConfig, CookieConfig,
                                   OverloadConfig, RrlConfig)
from repro.server.responder import DnsResponder
from repro.trace.errors import TraceFormatError
from repro.trace.pipeline import (FilterRecords, MapRecords, PipelineOp,
                                  PipelineResult, PrependUnique,
                                  RebaseTime, ScaleTime, SetDoFraction,
                                  SetProtocol, SetQnameSuffix,
                                  TracePipeline)
from repro.trace.stats import StreamingStats

__version__ = "1.14.5"

__all__ = [
    "AdmissionConfig",
    "AuthoritativeExperiment", "CacheConfig", "CookieConfig",
    "DelaySpike",
    "DistributorLag",
    "DnsResponder", "ExperimentConfig", "ExperimentResult",
    "FaultInjector", "FaultPlan", "FilterRecords",
    "InvariantViolation", "LinkDown",
    "LiveReplayConfig", "LossBurst",
    "MapRecords", "Observer", "OverloadConfig",
    "PipelineOp",
    "PipelineResult", "PrependUnique", "QuerierConfig", "QuerierCrash",
    "RebaseTime", "RecursiveExperiment", "ReplayCheckpoint",
    "ReplayConfig", "ReplayEngine", "ReplayReport", "ResilienceConfig",
    "RrlConfig",
    "ScaleTime", "ServerPause", "SetDoFraction", "SetProtocol",
    "SetQnameSuffix", "Simulator", "StreamingStats",
    "SupervisionConfig", "Tracer",
    "TraceFormatError", "TracePipeline",
    "authoritative_world", "verify_queriers",
    "__version__",
]


def __getattr__(name: str):
    # Lazy: pulls in the whole experiments package (every figure
    # regenerator), which plain `import repro` should not pay for.
    if name == "authoritative_world":
        from repro.experiments.harness import authoritative_world
        return authoritative_world
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
