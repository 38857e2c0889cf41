"""Pluggable replay backends behind one engine API.

``ReplayConfig(backend=...)`` names a backend from :data:`BACKENDS`;
:func:`get_backend` builds one.  See docs/BACKENDS.md for the backend
matrix and each backend's determinism scope.
"""

from __future__ import annotations

from repro.netsim.network import Network
from repro.replay.backends.base import ReplayBackend
from repro.replay.backends.live import (LiveBackend, LiveDnsServer,
                                        LiveQuerier, LiveReplayConfig)
from repro.replay.backends.sim import SimBackend
from repro.replay.controller import Controller
from repro.replay.distributor import Distributor
from repro.replay.querier import Querier
from repro.replay.supervisor import Supervisor
from repro.server.answercache import AnswerCache
from repro.server.authoritative import AuthoritativeServer
from repro.server.cache import DnsCache
from repro.server.recursive import RecursiveResolver
from repro.server.responder import DnsResponder

#: backend name -> implementation class (the valid
#: ``ReplayConfig.backend`` values).
BACKENDS: dict[str, type[ReplayBackend]] = {
    SimBackend.name: SimBackend,
    LiveBackend.name: LiveBackend,
}

#: The classes whose declared counters (``COUNTERS``, repro.obs.report)
#: make up every report, whichever of them a run instantiates: a sim
#: report carries the live backend's rows at zero and the other way
#: round.  A new counting class is added here, and to the
#: ``COUNTING_PARTS`` of its owner or the report list of its backend.
COUNTED = (Querier, LiveQuerier, Distributor, Controller, Supervisor,
           LiveBackend, LiveDnsServer, DnsResponder, AuthoritativeServer,
           AnswerCache, RecursiveResolver, DnsCache, Network)


def get_backend(name: str, *args, **kwargs) -> ReplayBackend:
    """Instantiate the backend registered under *name*.

    ``get_backend("sim", engine)`` wraps an existing
    :class:`~repro.replay.engine.ReplayEngine`;
    ``get_backend("live", zones, config=...)`` builds a live loopback
    replay.  Unknown names list the registry in the error."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown replay backend {name!r}; available: "
            f"{sorted(BACKENDS)} (see docs/BACKENDS.md)") from None
    return cls(*args, **kwargs)


__all__ = [
    "BACKENDS", "COUNTED", "LiveBackend", "LiveDnsServer", "LiveQuerier",
    "LiveReplayConfig", "ReplayBackend", "SimBackend", "get_backend",
]
