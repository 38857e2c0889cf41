"""The seven workloads: inputs from a seed, a fresh world, one timed call.

Each workload answers four questions for the harness:

* :meth:`Workload.inputs` — zones and trace generated from the seed
  (the program under test only ever sees these generated inputs);
* :meth:`Workload.world` — a fresh program instance over (a head of)
  those inputs; with ``inputs`` this is everything ``setup_s`` times;
* :meth:`Workload.run` — the one call the harness times;
* :meth:`Workload.account` — untimed: output checks, public counters
  ("C" metrics) and the outcome hash, read off the finished world.

Sizes are the issue's reference sizes times *scale*; the composition
bands are written for the size at ``BENCHMARK.json``'s ``run_seconds``
(mean +- 6 standard deviations over 129 seeds, so that no seed trips
them) and fail loudly when a generator drifts.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import (AuthoritativeExperiment, CacheConfig, ExperimentConfig,
                   FilterRecords, LiveReplayConfig, PrependUnique,
                   RebaseTime, RecursiveExperiment, ReplayConfig,
                   ResilienceConfig, SetDoFraction, SetProtocol,
                   TracePipeline)
from repro.experiments.harness import root_zone_world, wildcard_zone
from repro.experiments.throughput import GENERATOR_COST
from repro.replay.backends import LiveBackend
from repro.trace.record import QueryRecord, Trace
from repro.trace.textform import trace_to_text
from repro.util.stats import percentile
from repro.workloads import (ModelInternet, RecursiveParams,
                             generate_recursive_trace)
from repro.workloads.broot import BRootParams, generate_broot_trace

from benchmarks.ledger.catalogue import LEDGER

SCRATCH = LEDGER / "_scratch"
NXDOMAIN = 3


@dataclass
class Inputs:
    seed: int
    trace: Trace
    zones: list = field(default_factory=list)
    # Top-level labels that exist in the served zone; None when every
    # queried name exists (wildcard zone, recursive hierarchy).
    tlds: frozenset | None = None
    root_hints: list = field(default_factory=list)
    tmpdir: tempfile.TemporaryDirectory | None = None
    text_path: Path | None = None

    def cleanup(self) -> None:
        if self.tmpdir is not None:
            self.tmpdir.cleanup()


@dataclass
class World:
    program: object             # experiment, backend, or None
    trace: object               # what run() feeds the program
    records: int


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    records: int
    failed: int
    counters: dict[str, float] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    sha256: str | None = None
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def composition(inputs: Inputs) -> dict[str, float]:
    records = inputs.trace.records
    n = len(records)
    if inputs.tlds is None:
        junk = 0
    else:
        junk = sum(1 for r in records if r.qname != "."
                   and r.qname.rstrip(".").rsplit(".", 1)[-1]
                   not in inputs.tlds)
    return {
        "records": n,
        "sources": len({r.src for r in records}),
        "questions": len({(r.qname, r.qtype) for r in records}),
        "do_share": sum(1 for r in records if r.do) / n,
        "udp_share": sum(1 for r in records if r.proto == "udp") / n,
        "nxdomain_share": junk / n,
    }


def outcome_sha256(results) -> str:
    digest = hashlib.sha256()
    for r in results:
        record = r.record
        digest.update(repr((record.src, record.qname, int(record.qtype),
                            record.proto, r.rcode, r.response_size,
                            r.send_time, r.response_time)).encode())
    return digest.hexdigest()


def _head(trace: Trace, head: float) -> Trace:
    if head >= 1.0:
        return trace
    return Trace(trace.records[:max(1, int(len(trace) * head))],
                 name=trace.name)


def _tlds(internet) -> frozenset:
    return frozenset(zone.origin.to_text().rstrip(".")
                     for zone in internet.zones
                     if len(zone.origin.labels) == 1)


def _broot_inputs(seed: int, duration: float, rate: float,
                  clients: int) -> Inputs:
    """A B-Root-shaped trace against a signed 20x20 model root.

    ``tcp_fraction`` is pinned to 0 and protocol rewritten by the
    harness where needed: the generator's per-client TCP choice lets
    one Zipf-head client tip the share (README, known gaps)."""
    internet = root_zone_world(tlds=20, slds_per_tld=20, seed=seed)
    internet.sign_all(root_only=True)
    trace = generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=rate, clients=clients,
        do_fraction=0.723, tcp_fraction=0.0, junk_fraction=0.30,
        seed=seed))
    return Inputs(seed=seed, trace=trace, zones=[internet.root_zone],
                  tlds=_tlds(internet))


def _result_counters(results, records: int) -> dict[str, float]:
    answered = [r for r in results if r.answered]
    return {
        "server.responder.mean_response_bytes":
            sum(r.response_size for r in answered) / max(1, len(answered)),
        "server.responder.nxdomain_share":
            sum(1 for r in answered if r.rcode == NXDOMAIN)
            / max(1, len(answered)),
        "replay.querier.timed_out": sum(1 for r in results if r.timed_out),
        "failed_fraction": (records - len(answered)) / records,
    }


def _querier_counters(queriers) -> dict[str, float]:
    return {
        "replay.querier.retransmits": sum(q.retransmits for q in queriers),
        "replay.querier.tcp_fallbacks":
            sum(q.tcp_fallbacks for q in queriers),
    }


def _answercache_counters(cache) -> dict[str, float]:
    return {"server.answercache.hit_ratio": cache.hit_rate(),
            "server.answercache.entries": len(cache)}


def _clock_counters(scheduler, records: int) -> dict[str, float]:
    scheduled = scheduler.wheel_scheduled + scheduler.heap_scheduled
    return {
        "netsim.clock.events_per_record":
            scheduler.events_processed / records,
        "netsim.clock.heap_share":
            scheduler.heap_scheduled / max(1, scheduled),
    }


class Workload:
    name = ""
    kind = ""                   # "sim" | "live" | "trace"
    traced_pace = 1.0           # replay speed of the profiled run
    paced = False               # an open loop that idles between queries
    observer_cost = False       # also run the traced quarter observed
    drives: tuple[str, ...] = ()
    bands: dict[str, tuple[float, float]] = {}

    def inputs(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def world(self, inputs: Inputs, *, head: float = 1.0,
              pace: float = 1.0, observe: bool = False) -> World:
        raise NotImplementedError

    def run(self, world: World):
        raise NotImplementedError

    def account(self, world: World, raw) -> Outcome:
        raise NotImplementedError

    def event_times(self, inputs: Inputs) -> list[float]:
        """When the workload's records fall due (netsim.clock drive)."""
        start = inputs.trace.records[0].time
        return [r.time - start for r in inputs.trace.records]


class SimAuthoritative(Workload):
    kind = "sim"
    replay = dict(mode="distributed", client_instances=2,
                  queriers_per_instance=3)
    extra_time = 5.0

    def world(self, inputs, *, head=1.0, pace=1.0, observe=False):
        # Half-second samples so the connection peak of a seconds-long
        # trace is seen at all.
        experiment = AuthoritativeExperiment(
            inputs.zones, ExperimentConfig(
                sample_interval=0.5,
                replay=ReplayConfig(seed=inputs.seed, observe=observe,
                                    **self.replay)))
        trace = _head(inputs.trace, head)
        return World(experiment, trace, len(trace))

    def run(self, world):
        return world.program.run(world.trace, extra_time=self.extra_time)

    def account(self, world, raw):
        experiment, records = world.program, world.records
        results = raw.report.results
        counters = _result_counters(results, records)
        counters.update(_querier_counters(raw.report.queriers))
        counters.update(_answercache_counters(
            experiment.server.answer_cache))
        counters.update(_clock_counters(experiment.sim.scheduler, records))
        connections = len({(e.src, e.sport)
                           for e in experiment.server.query_log
                           if e.proto == "tcp"})
        counters["netsim.tcp.peak_connections"] = max(
            (s.established for s in raw.samples), default=0)
        counters["netsim.tcp.queries_per_connection"] = (
            records / connections if connections else 0.0)
        failed = records - sum(1 for r in results if r.answered)
        outcome = Outcome(records, failed, counters,
                          sha256=outcome_sha256(results))
        outcome.checks.append(Check(
            "every record answered", failed == 0,
            f"{records - failed}/{records}"))
        return outcome


class Fig9Hot(SimAuthoritative):
    name = "fig9_hot"
    replay = dict(mode="direct", client_instances=1,
                  queriers_per_instance=6, fast=True,
                  reader_cost=GENERATOR_COST)
    extra_time = 1.0
    drives = ("dns.message.encode_query_us", "dns.message.decode_response_us",
              "dns.name.parse_us", "server.responder.hit_us",
              "netsim.clock.event_us")
    bands = {"records": (25_000, 25_000), "sources": (1, 1),
             "questions": (1, 1), "do_share": (0, 0), "udp_share": (1, 1),
             "nxdomain_share": (0, 0)}

    def inputs(self, seed, scale):
        record = QueryRecord(time=0.0, src="172.16.0.1",
                             qname="www.example.com.")
        count = max(50, round(60_000 * scale))
        return Inputs(seed=seed, trace=Trace([record] * count, name="fig9"),
                      zones=[wildcard_zone()])

    def event_times(self, inputs):
        return [i * GENERATOR_COST for i in range(len(inputs.trace))]

    def account(self, world, raw):
        outcome = super().account(world, raw)
        cache = world.program.server.answer_cache
        # One source, one question: everything after the first miss per
        # transport must hit.
        outcome.checks.append(Check(
            "answer cache serves every repeat", cache.misses <= 2,
            f"hit ratio {cache.hit_rate():.5f}, {cache.misses} misses"))
        return outcome


class BrootUdp(SimAuthoritative):
    name = "broot_udp"
    drives = ("dns.message.encode_query_us", "dns.message.decode_response_us",
              "dns.name.parse_us", "dns.zone.lookup_us",
              "server.responder.miss_us", "server.responder.hit_us",
              "netsim.clock.event_us")
    observer_cost = True
    bands = {"records": (11_850, 13_200), "sources": (1_500, 1_830),
             "questions": (8_100, 9_100), "do_share": (0.695, 0.75),
             "udp_share": (1, 1), "nxdomain_share": (0.25, 0.30)}

    def inputs(self, seed, scale):
        return _broot_inputs(seed, 15.0 * scale, 2000.0, 5000)


class BrootTcp(BrootUdp):
    name = "broot_tcp"
    observer_cost = False
    bands = {**BrootUdp.bands, "udp_share": (0, 0)}

    def inputs(self, seed, scale):
        inputs = super().inputs(seed, scale)
        inputs.trace = TracePipeline.from_trace(
            inputs.trace).set_protocol("tcp").collect()
        return inputs


class Rec17Bounded(Workload):
    name = "rec17_bounded"
    kind = "sim"
    drives = ("dns.message.encode_query_us", "dns.name.parse_us",
              "netsim.clock.event_us", "server.cache.lookup_us")
    bands = {"records": (6_150, 8_550), "sources": (91, 91),
             "questions": (2_500, 3_300), "do_share": (0, 0),
             "udp_share": (1, 1), "nxdomain_share": (0, 0)}

    def inputs(self, seed, scale):
        internet = ModelInternet(tlds=20, slds_per_tld=40, seed=seed)
        trace = generate_recursive_trace(internet, RecursiveParams(
            duration=40.0 * scale, mean_rate=500.0, clients=91, seed=seed))
        return Inputs(seed=seed, trace=trace, zones=internet.zones,
                      root_hints=internet.root_hints())

    def world(self, inputs, *, head=1.0, pace=1.0, observe=False):
        experiment = RecursiveExperiment(
            inputs.zones, inputs.root_hints, ExperimentConfig(
                rtt=0.004, cache=CacheConfig(max_entries=1024),
                replay=ReplayConfig(client_instances=1,
                                    queriers_per_instance=2, mode="direct",
                                    seed=inputs.seed, observe=observe)))
        trace = _head(inputs.trace, head)
        return World(experiment, trace, len(trace))

    def run(self, world):
        return world.program.run(world.trace)

    def account(self, world, raw):
        experiment, records = world.program, world.records
        results = raw.report.results
        counters = _result_counters(results, records)
        counters.update(_querier_counters(raw.report.queriers))
        counters.update(_clock_counters(experiment.sim.scheduler, records))
        stats = experiment.resolver.stats
        cache = experiment.resolver.cache.counters()
        queries = max(1, stats["client_queries"])
        counters.update({
            "server.recursive.upstream_per_query":
                stats["upstream_queries"] / queries,
            "server.recursive.cache_answer_ratio":
                stats["cache_answers"] / queries,
            "server.cache.hit_ratio":
                cache["hits"] / max(1, cache["lookups"]),
            "server.cache.evictions_per_query":
                cache["evictions"] / queries,
        })
        failed = records - sum(1 for r in results if r.answered)
        outcome = Outcome(records, failed, counters,
                          sha256=outcome_sha256(results))
        outcome.checks.append(Check(
            "every stub query answered", failed == 0,
            f"{records - failed}/{records}"))
        return outcome


class Live(Workload):
    kind = "live"
    fast = False
    max_inflight = 256
    drives = ("dns.message.encode_query_us", "dns.message.decode_response_us",
              "dns.name.parse_us", "dns.zone.lookup_us",
              "server.responder.miss_us", "server.responder.hit_us",
              "replay.live.server_rtt_us")

    def world(self, inputs, *, head=1.0, pace=1.0, observe=False):
        backend = LiveBackend(inputs.zones, config=ReplayConfig(
            backend="live", fast=self.fast, client_instances=1,
            queriers_per_instance=2, seed=inputs.seed, observe=observe,
            resilience=ResilienceConfig(timeout=2.0, max_retries=3,
                                        backoff=2.0),
            live=LiveReplayConfig(speed=pace,
                                  max_inflight=self.max_inflight,
                                  run_deadline=90.0)))
        trace = _head(inputs.trace, head)
        return World(backend, trace, len(trace))

    def run(self, world):
        return world.program.run(world.trace)

    def account(self, world, raw):
        backend, records = world.program, world.records
        results = raw.results
        answered = [r for r in results if r.answered]
        # An open loop times a query from when it was due, so a stall
        # charges the queries queued behind it; a closed loop has no
        # due time, only the send.
        start = (lambda r: r.send_time) if self.fast \
            else (lambda r: r.scheduled_time)
        latency = sorted((r.response_time - start(r)) * 1e3
                         for r in answered)
        lateness = sorted(abs(r.send_time - r.scheduled_time) * 1e3
                          for r in results)
        socket_errors = backend.server.socket_errors + sum(
            q.socket_errors for q in backend.queriers)
        counters = _result_counters(results, records)
        counters.update(_querier_counters(backend.queriers))
        counters.update(_answercache_counters(
            backend.responder.answer_cache))
        counters.update({
            "replay.live.latency_p90_ms": percentile(latency, 90),
            "replay.live.latency_p99_ms": percentile(latency, 99),
            # The highest percentile with ten samples beyond it.
            "replay.live.latency_pmax10_ms":
                latency[-11] if len(latency) > 10 else latency[-1],
            "replay.live.timing_error_p50_ms": percentile(lateness, 50),
            "replay.live.timing_error_p99_ms": percentile(lateness, 99),
            "replay.live.socket_errors": socket_errors,
        })
        failed = records - len(answered)
        outcome = Outcome(records, failed, counters, end_to_end={
            "latency_p50_ms": percentile(latency, 50)})
        if not self.fast:       # only a paced replay has a schedule
            outcome.end_to_end["timing_error_p90_ms"] = percentile(
                lateness, 90)
        outcome.notes.append(f"{len(latency)} latency samples")
        outcome.checks += [
            Check("answered_fraction >= 0.999",
                  len(answered) >= 0.999 * records,
                  f"{len(answered)}/{records}"),
            Check("no socket errors", socket_errors == 0,
                  str(socket_errors)),
            Check("run deadline not hit", not backend.deadline_hit,
                  str(backend.deadline_hit)),
        ]
        return outcome


class LivePaced(Live):
    name = "live_paced"
    paced = True
    # A third of the rate under the profiler, whose ~3.5x slowdown
    # would otherwise push the open loop into overload.
    traced_pace = 1.0 / 3.0
    bands = {"records": (3_000, 3_650), "sources": (500, 690),
             "questions": (2_550, 3_150), "do_share": (0.675, 0.77),
             "udp_share": (1, 1), "nxdomain_share": (0.23, 0.32)}

    def inputs(self, seed, scale):
        return _broot_inputs(seed, 8.0 * scale, 1000.0, 2000)


class LiveFast(Live):
    name = "live_fast"
    fast = True
    max_inflight = 16           # two queriers: 32 outstanding in total
    bands = BrootUdp.bands

    def inputs(self, seed, scale):
        return _broot_inputs(seed, 15.0 * scale, 2000.0, 5000)


def _keep_all(record) -> bool:
    return True


class TraceWhatIf(Workload):
    name = "trace_whatif"
    kind = "trace"
    drives = ("trace.codec.encode_us", "trace.codec.decode_us")
    # The default tcp_fraction=0.03 is kept here on purpose; its wide
    # band is the generator gap recorded in the README.
    bands = {"records": (48_700, 51_400), "sources": (3_150, 3_520),
             "questions": (23_500, 25_300), "do_share": (0.712, 0.734),
             "udp_share": (0.60, 1.0), "nxdomain_share": (0.26, 0.29)}
    chain = (SetProtocol("tls"), SetDoFraction(1.0), PrependUnique("q"),
             RebaseTime())
    phases = ("trace.codec.text_parse_rps", "trace.pipeline.frame_rps",
              "trace.pipeline.record_rps", "trace.codec.decode_rps")

    def inputs(self, seed, scale):
        internet = root_zone_world(tlds=20, slds_per_tld=20, seed=seed)
        trace = generate_broot_trace(internet, BRootParams(
            duration=48.0 * scale, mean_rate=2500.0, junk_fraction=0.30,
            do_fraction=0.723, seed=seed))
        SCRATCH.mkdir(exist_ok=True)
        inputs = Inputs(seed=seed, trace=trace, tlds=_tlds(internet),
                        tmpdir=tempfile.TemporaryDirectory(dir=SCRATCH))
        inputs.text_path = self._write(inputs, trace, "full")
        return inputs

    @staticmethod
    def _write(inputs, trace, stem) -> Path:
        path = Path(inputs.tmpdir.name) / f"{stem}.txt"
        path.write_text(trace_to_text(trace), encoding="utf-8")
        return path

    def world(self, inputs, *, head=1.0, pace=1.0, observe=False):
        if head >= 1.0:
            return World(None, inputs.text_path, len(inputs.trace))
        trace = _head(inputs.trace, head)
        return World(None, self._write(inputs, trace, "head"), len(trace))

    def run(self, world):
        """Text -> LDPB, the what-if chain in frame mode and again in
        record mode (a keep-all filter forces decoding), LDPB -> records;
        each phase timed apart because the two modes use the pipeline
        differently."""
        marks = [time.perf_counter()]
        ldpb = TracePipeline.from_file(world.trace).to_binary()
        marks.append(time.perf_counter())
        framed = TracePipeline.from_binary(ldpb).pipe(*self.chain).to_binary()
        marks.append(time.perf_counter())
        decoded = TracePipeline.from_binary(ldpb).pipe(
            *self.chain, FilterRecords(_keep_all)).to_binary()
        marks.append(time.perf_counter())
        out = TracePipeline.from_binary(framed).collect()
        marks.append(time.perf_counter())
        walls = [b - a for a, b in zip(marks, marks[1:])]
        return walls, framed, decoded, out

    def account(self, world, raw):
        walls, framed, decoded, out = raw
        records = world.records
        counters = {name: records / wall
                    for name, wall in zip(self.phases, walls)}
        failed = abs(records - len(out))
        counters["failed_fraction"] = failed / records
        outcome = Outcome(records, failed, counters)
        outcome.checks += [
            Check("frame mode == record mode, byte for byte",
                  framed == decoded, f"{len(framed)} vs {len(decoded)} B"),
            Check("decoded count == input count", failed == 0,
                  f"{len(out)}/{records}"),
        ]
        return outcome


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Fig9Hot(), BrootUdp(), BrootTcp(), Rec17Bounded(),
                        LivePaced(), LiveFast(), TraceWhatIf())}
