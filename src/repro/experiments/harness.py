"""Shared experiment plumbing: standard worlds, scaling bookkeeping.

Every experiment in this package runs at laptop scale and reports its
scale factor against the paper's testbed so regenerated numbers can be
compared honestly (DESIGN.md §5).  The paper's reference points:

* B-Root-16: median 38 k q/s, 1.07 M clients over an hour;
* B-Root-17a/b: ~40 k q/s, 1.17 M / 725 k clients;
* server: 24-core (48-thread) Xeon, 64 GB RAM, NSD with 16 processes.
"""

from __future__ import annotations

from dataclasses import fields

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


def authoritative_world(zones, **knobs) -> AuthoritativeExperiment:
    """Build the standard replay-vs-authoritative world (Figure 5).

    Each keyword is a field of :class:`ExperimentConfig` or of its
    :class:`ReplayConfig`, routed by name with that class's default —
    the two dataclasses are the only list of knobs — except that
    ``mode`` defaults to ``"direct"`` here: one in-process distributor,
    half the events, for the large resource experiments."""
    experiment = {f.name for f in fields(ExperimentConfig)} - {"replay"}
    replay = {f.name for f in fields(ReplayConfig)}
    unknown = knobs.keys() - experiment - replay
    if unknown:
        raise TypeError(
            f"authoritative_world() got unexpected keyword(s) "
            f"{sorted(unknown)}; valid: {sorted(experiment | replay)}")
    knobs.setdefault("mode", "direct")
    config = ExperimentConfig(
        **{k: v for k, v in knobs.items() if k in experiment},
        replay=ReplayConfig(
            **{k: v for k, v in knobs.items() if k in replay}))
    return AuthoritativeExperiment(zones, config)
