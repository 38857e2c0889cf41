"""The distributed query replay engine (§2.6, §3).

Controller (Reader + Postman) -> Distributors -> Queriers, with the ΔT
timing rule, same-source stickiness, per-source sockets and connection
reuse, plus a fast (no-timer) mode and a naive single-host baseline.
Supervised runs (``ReplayConfig(supervision=...)``) add heartbeats,
failover and bounded queues — docs/RESILIENCE.md.
"""

from repro.replay.controller import Controller
from repro.replay.distributor import Distributor
from repro.replay.engine import ReplayConfig, ReplayEngine, ReplayReport
from repro.replay.naive import NaiveReplayer
from repro.replay.querier import (Querier, QuerierConfig, QueryResult,
                                  ResilienceConfig)
from repro.replay.supervisor import SupervisionConfig, Supervisor
from repro.replay.timing import ReplayTimer

__all__ = [
    "Controller", "Distributor", "NaiveReplayer", "Querier",
    "QuerierConfig", "QueryResult", "ReplayConfig",
    "ReplayEngine", "ReplayReport", "ReplayTimer", "ResilienceConfig",
    "SupervisionConfig", "Supervisor",
]
