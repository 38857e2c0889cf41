"""The run shape: timed repeats for the end-to-end metrics, and a
separate traced run for the per-layer ones.

Untraced (``measure``): one untimed 1/50-size pass to finish imports
and lazy set-up, then three repeats.  Every repeat builds its inputs
and a fresh world again (timed as ``setup_s``), collects garbage, and
times one call with profiling off; program caches therefore start cold
each time, as they do for every experiment a user runs.  Each metric is
the median of the three, with min and max beside it.

Traced (``trace``): the same warm-up pass, then one full-size
unprofiled run whose public counters give the "C" metrics, then the
first quarter of the input run twice — plain and under cProfile — for
the layer shares ("A") and the tracing overhead, then the isolated
drives ("D").
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from benchmarks.ledger import drives, layers
from benchmarks.ledger.catalogue import (ALL_LAYERS, REFERENCE_SECONDS,
                                         Declaration)
from benchmarks.ledger.workloads import (Check, Outcome, Workload,
                                         composition)

REPEATS = 3
WARMUP = 1.0 / 50.0
# The reference host runs the calibration loop at this speed (the
# builder's host in its fast regime).  The host under the ledger flips
# between regimes up to 40% apart for minutes at a time, which no bound
# the contract allows would absorb, so the end-to-end times are reported
# as they would be on the reference host (README, "Host speed").
REFERENCE_MOPS = 25.0
TRACED_HEAD = 0.25
OTHER_LIMIT = 0.10
# A workload without a per-query wall clock (or, for the timing error,
# without a schedule) reports wall milliseconds per 1,000 records in
# their place.  It repeats records_per_s and says nothing new; it is
# there because the benchmark contract wants every end-to-end metric
# from every workload.
STAND_INS = ("latency_p50_ms", "timing_error_p90_ms")


@dataclass
class Stat:
    value: float | None
    low: float | None = None
    high: float | None = None
    stand_in: bool = False

    @classmethod
    def of(cls, samples: list[float], stand_in: bool = False) -> "Stat":
        return cls(statistics.median(samples), min(samples), max(samples),
                   stand_in)


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    traced: bool
    metrics: dict[str, Stat]
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    composition: dict[str, float] = field(default_factory=dict)
    sha256: str | None = None
    # Metrics that are exact counts here: equal on every run of one
    # commit and seed (the public counters of a simulated run).
    exact: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


def _clocked(function, *args) -> tuple[float, float, object]:
    """Wall seconds, CPU seconds and the value of ``function(*args)``."""
    cpu = time.process_time()
    wall = time.perf_counter()
    value = function(*args)
    return time.perf_counter() - wall, time.process_time() - cpu, value


def host_speed(seconds: float) -> tuple[float, float]:
    """How fast this host runs right now, as a share of the reference
    host, on the wall clock and on the processor clock (a slow spell
    of the processor shows on both, a descheduled one on the wall
    only): the calibration loop for about 1/25 of the run's seconds."""
    iterations = int(seconds * 1e6)
    wall, cpu, _ = _clocked(drives.calibration_loop, iterations)
    reference = iterations / (REFERENCE_MOPS * 1e6)
    return reference / wall, reference / cpu


def _as_measured(seconds: float) -> tuple[float, float]:
    return 1.0, 1.0


def _timed(workload: Workload, world) -> tuple[float, float, Outcome]:
    gc.collect()
    wall, cpu, raw = _clocked(workload.run, world)
    return wall, cpu, workload.account(world, raw)


def _new_result(workload, seed, seconds, traced, declaration,
                inputs) -> Result:
    result = Result(workload.name, seed, seconds, traced, metrics={})
    result.composition = found = composition(inputs)
    if seconds == declaration.run_seconds:
        result.checks += [
            Check(f"composition {name} in [{low:g}, {high:g}]",
                  low <= found[name] <= high, f"{found[name]:g}")
            for name, (low, high) in workload.bands.items()]
    else:
        result.notes.append(
            "composition bands are written for --seconds "
            f"{declaration.run_seconds} and were not applied")
    return result


def _warm_up(workload: Workload, seed: int, scale: float) -> None:
    """One untimed 1/50-size pass: imports and lazy set-up finish here."""
    inputs = workload.inputs(seed, scale * WARMUP)
    workload.run(workload.world(inputs))
    inputs.cleanup()


def measure(workload: Workload, seed: int, seconds: float,
            declaration: Declaration) -> Result:
    """The untraced run: every end-to-end metric."""
    scale = seconds / REFERENCE_SECONDS
    _warm_up(workload, seed, scale)
    result = None
    setups, walls, cpus, outcomes = [], [], [], []
    # A paced replay idles between queries, and the slow spells of the
    # host (which hit a busy process) leave its CPU seconds alone: it is
    # reported as measured.
    probe = _as_measured if workload.paced else host_speed
    probes = [probe(seconds)]
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.inputs(seed, scale)
        world = workload.world(inputs)
        setups.append(time.perf_counter() - start)
        if result is None:
            result = _new_result(workload, seed, seconds, False,
                                 declaration, inputs)
        wall, cpu, outcome = _timed(workload, world)
        probes.append(probe(seconds))
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
        inputs.cleanup()
        del inputs, world

    # Totals of processor work are scaled to the reference host by the
    # speed probed just before and just after each repeat.  Percentiles
    # over per-query samples are left as measured: they already leave
    # out a slow spell that covers less than their share of a repeat.
    wall_speeds, cpu_speeds = (
        [(a[clock] + b[clock]) / 2 for a, b in zip(probes, probes[1:])]
        for clock in (0, 1))
    records = [o.records for o in outcomes]
    work_walls = [w * v for w, v in zip(walls, wall_speeds)]
    per_thousand = [w / n * 1e6 for w, n in zip(work_walls, records)]
    metrics = result.metrics
    metrics["setup_s"] = Stat.of(
        [s * v for s, v in zip(setups, wall_speeds)])
    metrics["records_per_s"] = Stat.of(
        [n / w for n, w in zip(records, work_walls)])
    metrics["cpu_us_per_record"] = Stat.of(
        [c * v / n * 1e6 for c, v, n in zip(cpus, cpu_speeds, records)])
    metrics["peak_rss_mb"] = Stat(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for name in STAND_INS:
        if name in outcomes[0].end_to_end:
            metrics[name] = Stat.of([o.end_to_end[name] for o in outcomes])
        else:
            metrics[name] = Stat.of(per_thousand, stand_in=True)
    result.attempted = sum(records)
    result.failed = sum(o.failed for o in outcomes)
    for index, outcome in enumerate(outcomes, start=1):
        result.checks += [Check(f"repeat {index}: {c.name}", c.ok, c.detail)
                          for c in outcome.checks]
        at = index - 1
        result.notes.append(
            f"repeat {index}: host speed {wall_speeds[at]:.3f} (wall) "
            f"{cpu_speeds[at]:.3f} (cpu) of reference; as measured: "
            f"set-up {setups[at]:.4f} s, wall {walls[at]:.4f} s, "
            f"cpu {cpus[at]:.4f} s" + "".join(
                f"; {note}" for note in outcome.notes))
    if outcomes[0].sha256 is not None:
        hashes = {o.sha256 for o in outcomes}
        result.sha256 = outcomes[0].sha256
        result.checks.append(Check(
            "outcome_sha256 identical across repeats", len(hashes) == 1,
            outcomes[0].sha256))
    return result


def _profiled(workload: Workload, world) -> tuple[float, Outcome, dict]:
    gc.collect()
    profile = cProfile.Profile()
    wall = time.perf_counter()
    profile.enable()
    raw = workload.run(world)
    profile.disable()
    wall = time.perf_counter() - wall
    return wall, workload.account(world, raw), pstats.Stats(profile).stats


def _calls_per_record(stats: dict, records: int) -> dict[str, float | None]:
    from repro.dns.message import Message
    from repro.dns.name import Name
    from repro.dns.zone import Zone
    targets = {
        "dns.message.decodes_per_record": Message.from_wire,
        "dns.message.encodes_per_record": Message.to_wire,
        "dns.name.parses_per_record": Name.from_text,
        "dns.zone.lookups_per_record": Zone.lookup,
    }
    return {name: layers.calls(stats, function) / records
            for name, function in targets.items()}


def run_drive(name: str, function, *args) -> float | None:
    try:
        return function(*args)
    except (ImportError, AttributeError) as exc:
        print(f"warning: drive {name} could not run ({exc!r}); "
              "reported as null", file=sys.stderr)
        return None


def trace(workload: Workload, seed: int, seconds: float,
          declaration: Declaration) -> Result:
    """The traced run: every per-layer metric."""
    scale = seconds / REFERENCE_SECONDS
    _warm_up(workload, seed, scale)
    inputs = workload.inputs(seed, scale)
    result = _new_result(workload, seed, seconds, True, declaration, inputs)
    values: dict[str, float | None] = dict.fromkeys(declaration.per_layer)

    _, _, full = _timed(workload, workload.world(inputs))
    values.update(full.counters)
    if workload.kind == "sim":
        result.exact = sorted(full.counters)
    result.attempted, result.failed = full.records, full.failed
    result.sha256 = full.sha256
    result.checks += full.checks
    result.notes += full.notes

    pace = workload.traced_pace
    plain_wall, plain_cpu, plain = _timed(
        workload, workload.world(inputs, head=TRACED_HEAD, pace=pace))
    traced_wall, traced, stats = _profiled(
        workload, workload.world(inputs, head=TRACED_HEAD, pace=pace))
    folded = layers.fold(stats)
    for layer in ALL_LAYERS:
        values[f"{layer}.self_share"] = folded.shares[layer]
    values["idle_share"] = folded.idle_share
    values["trace_overhead_ratio"] = traced_wall / plain_wall
    values.update(_calls_per_record(stats, traced.records))
    result.checks += [Check(f"traced run: {c.name}", c.ok, c.detail)
                      for c in traced.checks]
    result.checks.append(Check(
        f"other + unattributed <= {OTHER_LIMIT:.0%} of profiled self time",
        folded.shares["other"] <= OTHER_LIMIT,
        f"{folded.shares['other']:.3f} (unattributed "
        f"{folded.unattributed_share:.3f}; files: "
        f"{', '.join(folded.other_files[:6]) or 'none'})"))
    if plain.sha256 is not None:
        result.checks.append(Check(
            "traced outcome_sha256 == untraced on the same quarter",
            plain.sha256 == traced.sha256, traced.sha256))

    if workload.observer_cost:
        # What observing costs: CPU of the same quarter, on / off.
        _, observed_cpu, _ = _timed(workload, workload.world(
            inputs, head=TRACED_HEAD, pace=pace, observe=True))
        values["obs.overhead_ratio"] = observed_cpu / plain_cpu
    for name in workload.drives:
        values[name] = run_drive(name, drives.DRIVES[name], workload,
                                 inputs, seconds / 30.0)
    values["calibration_mops"] = drives.calibration_mops()
    inputs.cleanup()
    result.metrics = {name: Stat(value) for name, value in values.items()}
    return result
