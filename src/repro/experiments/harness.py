"""Shared experiment plumbing: standard worlds, scaling bookkeeping.

Every experiment in this package runs at laptop scale and reports its
scale factor against the paper's testbed so regenerated numbers can be
compared honestly (DESIGN.md §5).  The paper's reference points:

* B-Root-16: median 38 k q/s, 1.07 M clients over an hour;
* B-Root-17a/b: ~40 k q/s, 1.17 M / 725 k clients;
* server: 24-core (48-thread) Xeon, 64 GB RAM, NSD with 16 processes.
"""

from __future__ import annotations

from repro.core.experiment import (AuthoritativeExperiment,
                                   ExperimentConfig)
from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.replay.engine import ReplayConfig
from repro.workloads.internet import ModelInternet

PAPER_BROOT_RATE = 38_000.0     # queries/s, B-Root median (§4.2)


def wildcard_zone(origin: str = "example.com.") -> Zone:
    """example.com with wildcards — the §4.2 synthetic-replay server."""
    name = Name.from_text(origin)
    zone = Zone(name)
    zone.add(make_soa(name))
    zone.add(RRset(name, RRType.NS, 3600, [NS(name.prepend(b"ns1"))]))
    zone.add(RRset(name.prepend(b"ns1"), RRType.A, 3600,
                   [A("198.51.100.53")]))
    zone.add(RRset(name.prepend(b"*"), RRType.A, 300, [A("192.0.2.1")]))
    return zone


def root_zone_world(tlds: int = 6, slds_per_tld: int = 8,
                    seed: int = 1) -> ModelInternet:
    """The model Internet whose root zone serves B-Root-style replays."""
    return ModelInternet(tlds=tlds, slds_per_tld=slds_per_tld, seed=seed)


def wildcard_root_zone(internet: ModelInternet) -> Zone:
    """The root zone extended with a wildcard so that every replayed
    query (including unique-prefixed and junk names) gets an answer, as
    the paper's wildcard setup does for synthetic traces."""
    zone = internet.root_zone
    zone.add(RRset(Name.root().prepend(b"*"), RRType.A, 300,
                   [A("192.0.2.1")]))
    return zone


def authoritative_world(zones, *, rtt: float = 0.001,
                        mode: str = "direct",
                        client_instances: int = 2,
                        queriers_per_instance: int = 3,
                        tcp_idle_timeout: float | None = 20.0,
                        nagle: bool = True,
                        sample_interval: float = 10.0,
                        timing_jitter: bool = True,
                        server_workers: int | None = None,
                        observe: bool = False,
                        client_loss: float = 0.0,
                        resilience=None,
                        fault_plan=None,
                        supervision=None,
                        controllers: int = 1,
                        answer_cache: bool = True,
                        check: bool = False,
                        overload=None,
                        cookies: bool = False,
                        backend: str = "sim",
                        seed: int = 0) -> AuthoritativeExperiment:
    """Build the standard replay-vs-authoritative world (Figure 5).

    Every knob is keyword-only: the config list is long enough that
    positional calls were unreadable and fragile.  ``observe=True``
    attaches the :mod:`repro.obs` metrics/tracing layer before any host
    is created.  ``client_loss``/``resilience``/``fault_plan`` are the
    degraded-network axis (docs/RESILIENCE.md): symmetric client-uplink
    loss, the querier retry policy, and scheduled fault events;
    ``supervision`` adds the control-plane resilience layer
    (heartbeats/failover, backpressure, checkpointing — distributed
    mode only).  ``overload``/``cookies`` are the server-defense axis:
    an :class:`~repro.server.overload.OverloadConfig` turns on
    RRL/cookie-validation/admission control server-side, ``cookies=True``
    makes queriers attach RFC 7873 COOKIE options client-side."""
    config = ExperimentConfig(
        rtt=rtt, tcp_idle_timeout=tcp_idle_timeout, nagle=nagle,
        sample_interval=sample_interval, server_workers=server_workers,
        client_loss=client_loss, answer_cache=answer_cache,
        overload=overload,
        replay=ReplayConfig(client_instances=client_instances,
                            queriers_per_instance=queriers_per_instance,
                            mode=mode, seed=seed,
                            timing_jitter=timing_jitter,
                            observe=observe, resilience=resilience,
                            fault_plan=fault_plan,
                            supervision=supervision,
                            controllers=controllers, check=check,
                            cookies=cookies, backend=backend))
    return AuthoritativeExperiment(zones, config)
