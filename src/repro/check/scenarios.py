"""The canonical conformance scenario: one seeded world, many configs.

Everything `ldp-verify` checks runs through the fixtures defined here,
so the golden corpus, the differential runner, and the tests all agree
on what "the conformance scenario" means:

* a seeded model internet (3 TLDs x 3 SLDs) collapsed into one
  wildcard root zone, replayed with a B-Root-16 analogue trace
  (~270 records over 1.5 s) — big enough to exercise UDP/TCP mix,
  timing jitter, and the answer cache, small enough to run in CI;
* a **config matrix** over the axes the determinism contract spans:
  answer cache on/off x serial/parallel trace pipeline — all four
  must produce byte-identical reports;
* a **wire corpus** of query/response pairs through the shared
  :class:`DnsResponder` (exact match, wildcard, CNAME, delegation,
  NXDOMAIN, NODATA, REFUSED, EDNS/DO, UDP truncation + TCP full
  answer) pinning the answering core's bytes.

The trace is always fed through a :class:`TracePipeline` (never a bare
Trace) so the serial and parallel variants share the observer's
``trace.pipeline_*`` counters and differ in nothing but ``jobs``.
"""

from __future__ import annotations

from repro.experiments.harness import (authoritative_world,
                                       root_zone_world,
                                       wildcard_root_zone)
from repro.server.overload import CookieConfig, OverloadConfig, RrlConfig
from repro.trace.binaryform import trace_to_binary
from repro.trace.pipeline import TracePipeline
from repro.workloads.broot import broot16

# -- the seeded replay world --------------------------------------------------

TLDS = 3
SLDS = 3
WORLD_SEED = 3
TRACE_KW = dict(duration=1.5, mean_rate=180.0, clients=30)
INSTANCES = 2
QUERIERS = 2
SEED = 11
EXTRA_TIME = 2.0
# Small enough that the parallel pipeline variant actually splits the
# stream into several chunks (the point of the serial-vs-parallel axis).
CHUNK_RECORDS = 64


def conformance_internet():
    return root_zone_world(tlds=TLDS, slds_per_tld=SLDS,
                           seed=WORLD_SEED)


def conformance_zone_and_trace():
    internet = conformance_internet()
    return wildcard_root_zone(internet), broot16(internet, **TRACE_KW)


def conformance_feed(trace, parallel: bool = False) -> TracePipeline:
    """The trace as a pipeline feed: identical op chain, only ``jobs``
    differs, so serial-vs-parallel byte-identity is exactly the PR-5
    chunk-merge contract."""
    return TracePipeline.from_binary(
        trace_to_binary(trace), name=trace.name,
        jobs=2 if parallel else 1, chunk_records=CHUNK_RECORDS)


def run_sim_variant(*, answer_cache: bool = True,
                    parallel: bool = False, check: bool = True):
    """One sim replay of the conformance scenario; returns the
    :class:`~repro.replay.engine.ReplayReport`.  Checked by default —
    the report bytes are the same either way, and the goldens and the
    matrix then hold the querier's wire-level fast path to the full
    codec on every message."""
    zone, trace = conformance_zone_and_trace()
    world = authoritative_world(
        [zone], mode="direct", client_instances=INSTANCES,
        queriers_per_instance=QUERIERS, observe=True, seed=SEED,
        answer_cache=answer_cache, check=check)
    feed = conformance_feed(trace, parallel=parallel)
    return world.run(feed, extra_time=EXTRA_TIME).report


# Every point of the determinism matrix must reproduce the same bytes.
SIM_MATRIX: list[tuple[str, dict]] = [
    (f"cache={'on' if cache else 'off'},"
     f"pipeline={'parallel' if parallel else 'serial'}",
     dict(answer_cache=cache, parallel=parallel))
    for cache in (True, False)
    for parallel in (False, True)
]


# -- sim vs live --------------------------------------------------------------
#
# Every shape must give each query the same outcome on both substrates
# (docs/VERIFICATION.md).  A shape is keywords of `run_for_live`: world
# knobs, `proto` (rewrite every record), `signed` (sign the zone; every
# query sets DO and advertises 512 bytes, so answers truncate and the
# client really falls back to TCP).

LIVE_MATRIX: list[tuple[str, dict]] = [
    ("udp+tcp", {}),
    ("all-tcp", dict(proto="tcp")),
    ("cache=off", dict(answer_cache=False)),
    ("cookies", dict(cookies=True, overload=OverloadConfig(
        cookies=CookieConfig()))),
    # A limiter too generous to ever limit: time-compressed live replay
    # would cross a real rate that simulated time does not.
    ("cookies+rrl", dict(cookies=True, overload=OverloadConfig(
        cookies=CookieConfig(), rrl=RrlConfig(rate=1e6)))),
    ("tc-fallback", dict(signed=True)),
]


# Seconds of a query's first wait per unit of live replay speed.
WAIT_PER_SPEED = 0.1


def run_for_live(backend: str, zone, trace, *, speed: float = 20.0,
                 proto: str | None = None, signed: bool = False, **knobs):
    """One side of a sim-vs-live comparison: *zone* and *trace* in one
    shape through *backend*, unobserved so the schemas align key for
    key, under the standard retry policy — on the live side it recovers
    kernel-buffer datagram drops under time compression, on the
    loss-free sim side it only enables the TC fallback both need.

    The policy's first wait scales with *speed* (:data:`WAIT_PER_SPEED`
    seconds per unit, 2 s at the default 20): the live side replays
    *speed* times faster than the trace, so the host is that much
    busier, and a stream query gets this one wait (``max_retries``
    counts datagram resends only).  It outlasts a 0.6 s stall of
    either process, which at a flat 0.5 s marked a TCP query timed out
    where the sim answered it."""
    from repro.dns.dnssec import sign_zone
    from repro.replay.backends import LiveReplayConfig
    from repro.replay.querier import ResilienceConfig
    from repro.trace.record import Trace
    changes = {}
    if proto is not None:
        changes.update(proto=proto)
    if signed:
        sign_zone(zone)
        changes.update(do=True, edns_payload=512)
    if changes:
        trace = Trace([r.with_(**changes) for r in trace], name=trace.name)
    world = authoritative_world(
        [zone], backend=backend, client_instances=INSTANCES,
        queriers_per_instance=QUERIERS, observe=False, seed=SEED,
        check=True,
        resilience=ResilienceConfig(timeout=WAIT_PER_SPEED * speed,
                                    max_retries=4, backoff=2.0),
        live=LiveReplayConfig(speed=speed, query_timeout=10.0,
                              run_deadline=120.0), **knobs)
    return world.run(trace, extra_time=EXTRA_TIME).report


# -- the overload scenario ----------------------------------------------------
#
# A deterministic flood against the wire-corpus zone (no wildcard, so
# random attack labels share one per-zone NXDOMAIN RRL bucket) with the
# full defense posture on: RRL + cookies + a small admission queue in
# front of a single slow worker.  `ldp-verify` pins its summary, so any
# change to bucket arithmetic, slip cadence, cookie bytes, or admission
# order breaks the golden visibly.

OVERLOAD_SEED = 17
OVERLOAD_EXTRA_TIME = 2.0


def overload_posture():
    """The canonical defended posture (docs/RESILIENCE.md).

    ``exempt_verified=False`` keeps RRL engaged even though replayed
    clients — unlike spoofed attackers — really do complete the cookie
    exchange and would otherwise all become exempt."""
    from repro.server.overload import (AdmissionConfig, CookieConfig,
                                       OverloadConfig, RrlConfig)
    return OverloadConfig(
        rrl=RrlConfig(rate=10.0, slip=2, exempt_verified=False),
        cookies=CookieConfig(),
        admission=AdmissionConfig(limit=48, soft_limit=24))


def overload_trace():
    """Steady legitimate clients with a mid-run random-label flood."""
    import random

    from repro.trace.record import QueryRecord, Trace
    rng = random.Random(97)
    records = []
    legit = ["www.conf.example.", "alias.conf.example.",
             "missing.conf.example."]
    t = 0.0
    i = 0
    while t < 3.0:
        records.append(QueryRecord(
            time=round(t, 6), src=f"10.50.{i % 8}.1",
            qname=legit[i % len(legit)]))
        t += 0.04
        i += 1
    for j in range(360):
        label = "".join(rng.choice("abcdefghij") for _ in range(10))
        records.append(QueryRecord(
            time=round(1.0 + j / 1200.0, 6),
            src=f"203.0.{j % 24}.7",
            qname=f"{label}.conf.example."))
    records.sort(key=lambda r: r.time)
    return Trace(records, name="overload")


def run_overload_scenario(*, defended: bool = True, check: bool = True):
    """One seeded replay of the flood; returns the experiment and its
    :class:`~repro.core.experiment.ExperimentResult`.  One slow worker
    (2 ms service time, ~500 q/s) makes the 1200 q/s burst a genuine
    overload so the admission queue actually sheds and refuses."""
    from repro.core.experiment import (AuthoritativeExperiment,
                                       ExperimentConfig)
    from repro.netsim.resources import CostModel
    from repro.replay.engine import ReplayConfig
    config = ExperimentConfig(
        server_workers=1, cost=CostModel(udp_query=0.002),
        overload=overload_posture() if defended else None,
        replay=ReplayConfig(client_instances=INSTANCES,
                            queriers_per_instance=QUERIERS,
                            mode="direct", seed=OVERLOAD_SEED,
                            observe=True, cookies=defended,
                            check=check))
    experiment = AuthoritativeExperiment([conformance_wire_zone()],
                                         config)
    result = experiment.run(overload_trace(),
                            extra_time=OVERLOAD_EXTRA_TIME)
    return experiment, result


def overload_summary(experiment, result) -> dict:
    """The deterministic facts the overload golden pins."""
    from repro.dns.constants import Rcode
    report = result.report
    server = experiment.server
    rcodes: dict[str, int] = {}
    for r in report.results:
        if r.rcode is not None:
            key = Rcode.to_text(r.rcode)
            rcodes[key] = rcodes.get(key, 0) + 1
    return {
        "trace_records": len(report.results),
        "answered_fraction": round(report.answered_fraction(), 9),
        "rcodes": rcodes,
        "server": {
            "queries_handled": server.queries_handled,
            "responses_sent": server.responses_sent,
            "rrl_dropped": server.rrl_dropped,
            "rrl_slipped": server.rrl_slipped,
            "cookies_validated": server.cookies_validated,
            "admission_received": server.admission_received,
            "admission_processed": server.admission_processed,
            "admission_shed": server.admission_shed,
            "admission_refused": server.admission_refused,
        },
    }


# -- the recursive cache scenario ---------------------------------------------
#
# A seeded Rec-17-style stub workload against the full recursive
# pipeline (resolver -> proxies -> meta-DNS-server) with the whole cache
# posture engaged: bounded LRU small enough to evict, serve-stale, and
# refresh-ahead prefetch.  `ldp-verify` pins the resolver's stats and
# the cache counter block, so any change to hit accounting, eviction
# order, expiry reclaim, or prefetch triggering breaks the golden
# visibly.

RECURSIVE_SEED = 29
RECURSIVE_EXTRA_TIME = 2.0


def recursive_cache_config():
    """The canonical exercised cache posture (docs/RECURSIVE.md).

    64 entries is far below the scenario's working set, so LRU
    eviction and prefetch actually fire; the 0.99 refresh fraction
    (refresh once 1% of the TTL has elapsed) is aggressive on purpose —
    the trace is 30 s against 300 s TTLs."""
    from repro.server.cache import CacheConfig
    return CacheConfig(max_entries=64, serve_stale=True,
                       stale_ttl=600.0, prefetch=True,
                       prefetch_fraction=0.99, prefetch_min_hits=2,
                       prefetch_top_k=16)


def recursive_trace():
    from repro.workloads.internet import ModelInternet
    from repro.workloads.recursive_load import (RecursiveParams,
                                                generate_recursive_trace)
    internet = ModelInternet(tlds=3, slds_per_tld=3,
                             seed=RECURSIVE_SEED)
    # 30 s at 40 q/s: long enough that hot 300 s-TTL entries cross the
    # 0.95 refresh-ahead threshold (~15 s in) and prefetch really fires.
    trace = generate_recursive_trace(internet, RecursiveParams(
        duration=30.0, mean_rate=40.0, clients=16, seed=RECURSIVE_SEED))
    return internet, trace


def run_recursive_scenario(*, check: bool = True):
    """One seeded replay of the Rec-17 cache scenario; returns the
    experiment and its ExperimentResult."""
    from repro.core.experiment import (ExperimentConfig,
                                       RecursiveExperiment)
    from repro.replay.engine import ReplayConfig
    internet, trace = recursive_trace()
    config = ExperimentConfig(
        rtt=0.004, cache=recursive_cache_config(),
        replay=ReplayConfig(client_instances=INSTANCES,
                            queriers_per_instance=QUERIERS,
                            mode="direct", seed=RECURSIVE_SEED,
                            observe=True, check=check))
    experiment = RecursiveExperiment(internet.zones,
                                     internet.root_hints(), config)
    result = experiment.run(trace,
                            extra_time=RECURSIVE_EXTRA_TIME)
    return experiment, result


def recursive_summary(experiment, result) -> dict:
    """The deterministic facts the Rec-17 cache golden pins."""
    from repro.dns.constants import Rcode
    report = result.report
    rcodes: dict[str, int] = {}
    for r in report.results:
        if r.rcode is not None:
            key = Rcode.to_text(r.rcode)
            rcodes[key] = rcodes.get(key, 0) + 1
    return {
        "trace_records": len(report.results),
        "answered_fraction": round(report.answered_fraction(), 9),
        "rcodes": rcodes,
        "resolver": dict(sorted(experiment.resolver.stats.items())),
        "cache": experiment.resolver.cache.counters(),
    }


# -- the wire-message corpus --------------------------------------------------

WIRE_ORIGIN = "conf.example."
WIRE_CLIENT = "192.0.2.200"


def conformance_wire_zone():
    """A zone exercising every answer shape the responder builds."""
    from repro.dns.name import Name
    from repro.dns.rdata import A, CNAME, NS, TXT
    from repro.dns.rrset import RRset
    from repro.dns.constants import RRType
    from repro.dns.zone import Zone, make_soa

    origin = Name.from_text(WIRE_ORIGIN)
    zone = Zone(origin)
    zone.add(make_soa(origin))
    ns = origin.prepend(b"ns")
    zone.add(RRset(origin, RRType.NS, 3600, [NS(ns)]))
    zone.add(RRset(ns, RRType.A, 3600, [A("192.0.2.1")]))
    zone.add(RRset(origin.prepend(b"www"), RRType.A, 300,
                   [A("192.0.2.10")]))
    zone.add(RRset(origin.prepend(b"alias"), RRType.CNAME, 300,
                   [CNAME(origin.prepend(b"www"))]))
    wild = origin.prepend(b"wild")
    zone.add(RRset(wild.prepend(b"*"), RRType.A, 300,
                   [A("192.0.2.20")]))
    # A deliberately oversized RRset: > 512 bytes so a plain-UDP query
    # gets a truncated answer while TCP carries it whole.
    big = origin.prepend(b"big")
    zone.add(RRset(big, RRType.TXT, 300,
                   [TXT((bytes([65 + i]) * 60,)) for i in range(12)]))
    # A delegation below the apex.
    sub = origin.prepend(b"sub")
    subns = sub.prepend(b"ns")
    zone.add(RRset(sub, RRType.NS, 3600, [NS(subns)]))
    zone.add(RRset(subns, RRType.A, 3600, [A("192.0.2.30")]))
    return zone


def conformance_wire_cases() -> list[dict]:
    """Deterministic (name, proto, query-wire) cases for the corpus."""
    from repro.dns.constants import RRType
    from repro.dns.message import Edns, Message
    from repro.dns.name import Name

    def query(qname: str, qtype=RRType.A, edns=None) -> "Message":
        return Message.make_query(Name.from_text(qname), qtype,
                                  edns=edns)

    cases = [
        ("a_exact", "udp", query("www.conf.example.")),
        ("wildcard", "udp", query("anything.wild.conf.example.")),
        ("cname", "udp", query("alias.conf.example.")),
        ("delegation", "udp", query("leaf.sub.conf.example.")),
        ("nxdomain", "udp", query("missing.conf.example.")),
        ("nodata", "udp", query("www.conf.example.", RRType.TXT)),
        ("refused", "udp", query("other.example.")),
        ("edns_do", "udp", query("www.conf.example.",
                                 edns=Edns(payload=1232, do=True))),
        ("truncated_udp", "udp", query("big.conf.example.",
                                       RRType.TXT)),
        ("big_tcp", "tcp", query("big.conf.example.", RRType.TXT)),
    ]
    built = []
    for index, (name, proto, message) in enumerate(cases):
        message.msg_id = 0x1000 + index
        built.append({"name": name, "proto": proto,
                      "query": message.to_wire()})
    return built


def build_wire_corpus() -> dict[str, dict[str, str]]:
    """name -> {proto, query-hex, response-hex} through the shared
    responder — the bytes both backends serve."""
    from repro.server.responder import DnsResponder
    responder = DnsResponder(zones=[conformance_wire_zone()],
                             answer_cache=False)
    corpus: dict[str, dict[str, str]] = {}
    for case in conformance_wire_cases():
        out = responder.reply_wire(case["proto"], case["query"],
                                   WIRE_CLIENT, 5353)
        corpus[case["name"]] = {
            "proto": case["proto"],
            "query": case["query"].hex(),
            "response": out.hex() if out is not None else "",
        }
    return corpus
