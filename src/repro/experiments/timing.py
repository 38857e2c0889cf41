"""Figures 6-8: replay timing accuracy, interarrival fidelity, rate.

Methodology mirrors §4.2: replay each trace over UDP in (simulated)
real time, capture the replayed traffic at the server, match queries to
originals by their unique names, and compare

* per-query timing error relative to the first query (Fig 6),
* the inter-arrival time distribution (Fig 7),
* per-second query rates (Fig 8, five trials).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import (authoritative_world,
                                       root_zone_world,
                                       wildcard_root_zone, wildcard_zone)
from repro.trace.pipeline import PrependUnique, RebaseTime
from repro.trace.record import Trace
from repro.util.stats import Summary, cdf_points, summarize
from repro.workloads.broot import broot16
from repro.workloads.synthetic import synthetic_trace


@dataclass
class TimingRun:
    label: str
    errors: list[float]                  # seconds, per matched query
    original_gaps: list[float]
    replayed_gaps: list[float]
    opened: list[bool]                   # opened its TCP connection

    def error_summary_ms(self) -> Summary:
        return summarize([e * 1000 for e in self.errors])


@dataclass
class RateRun:
    label: str
    per_second_diffs: list[float]        # fractional difference per second

    def fraction_within(self, bound: float) -> float:
        if not self.per_second_diffs:
            return 0.0
        return sum(1 for d in self.per_second_diffs if abs(d) <= bound) \
            / len(self.per_second_diffs)


def replay_and_match(trace: Trace, zone, seed: int = 0,
                     warmup_fraction: float = 0.1,
                     client_instances: int = 2,
                     queriers_per_instance: int = 3) -> TimingRun:
    """Replay *trace* and compute per-query arrival-time errors.

    Fixed-interarrival synthetic traces replay through a single querier
    (client_instances=queriers_per_instance=1) so the per-process timer
    cadence equals the trace interarrival — the regime where the §4.2
    timer-resonance anomaly lives.
    """
    tagged = PrependUnique().apply(RebaseTime().apply(trace.sorted()))
    world = authoritative_world([zone], mode="direct", seed=seed,
                                client_instances=client_instances,
                                queriers_per_instance=queriers_per_instance,
                                timing_jitter=True)
    world.run(tagged)
    arrivals, first = {}, {}
    for entry in world.server.query_log:
        arrivals[entry.qname.to_text()] = entry.time
        if entry.proto != "udp":
            first.setdefault((entry.src, entry.sport), entry.qname.to_text())
    opened = set(first.values())
    duration = tagged.duration()
    warmup = tagged[0].time + duration * warmup_fraction
    matched = [(record.time, arrivals[record.qname], record.qname)
               for record in tagged
               if record.qname in arrivals and record.time >= warmup]
    if not matched:
        return TimingRun(trace.name, [], [], [], [])
    # Align the two clocks on the median offset: anchoring on a single
    # query (as literally stated in §4.2) would add that one query's
    # jitter to every error.
    offsets = sorted(replay - orig for orig, replay, _ in matched)
    base = offsets[len(offsets) // 2]
    errors = [(replay - orig) - base for orig, replay, _ in matched]
    replay_times = sorted(replay for _, replay, _ in matched)
    replayed_gaps = [b - a for a, b in zip(replay_times,
                                           replay_times[1:])]
    original_gaps = [b[0] - a[0] for a, b in zip(matched, matched[1:])]
    return TimingRun(trace.name, errors, original_gaps, replayed_gaps,
                     [qname in opened for _, _, qname in matched])


# -- Figure 6 -----------------------------------------------------------------

def figure6(syn_duration: float = 20.0, syn4_duration: float = 2.0,
            broot_duration: float = 20.0, seed: int = 0) \
        -> list[TimingRun]:
    """Query-time error per trace: B-Root plus syn-0..4."""
    internet = root_zone_world()
    runs = []
    broot = broot16(internet, duration=broot_duration, mean_rate=1000,
                    clients=2000)
    runs.append(replay_and_match(broot, wildcard_root_zone(internet),
                                 seed=seed))
    for gap, duration in ((1.0, max(syn_duration, 30.0)),
                          (0.1, syn_duration), (0.01, syn_duration),
                          (0.001, syn_duration),
                          (0.0001, syn4_duration)):
        trace = synthetic_trace(gap, duration=duration,
                                name=f"syn-{gap:g}")
        runs.append(replay_and_match(trace, wildcard_zone(), seed=seed,
                                     client_instances=1,
                                     queriers_per_instance=1))
    return runs


# -- Figure 7 --------------------------------------------------------------------

@dataclass
class InterarrivalCdf:
    label: str
    original: list[tuple[float, float]]
    replayed: list[tuple[float, float]]


def figure7(runs: list[TimingRun] | None = None) -> list[InterarrivalCdf]:
    runs = runs if runs is not None else figure6()
    return [InterarrivalCdf(run.label,
                            cdf_points(run.original_gaps),
                            cdf_points(run.replayed_gaps))
            for run in runs if run.original_gaps]


# -- Figure 8 -----------------------------------------------------------------------

def figure8(trials: int = 5, duration: float = 20.0,
            mean_rate: float = 1500.0) -> list[RateRun]:
    """Per-second rate differences, B-Root replay, N trials."""
    internet = root_zone_world()
    zone = wildcard_root_zone(internet)
    runs = []
    for trial in range(trials):
        trace = broot16(internet, duration=duration,
                        mean_rate=mean_rate, clients=3000,
                        seed=100 + trial)
        tagged = PrependUnique().apply(RebaseTime().apply(trace.sorted()))
        world = authoritative_world([zone], mode="direct", seed=trial,
                                    timing_jitter=True)
        world.run(tagged)
        original = _per_second(tagged[0].time,
                               [r.time for r in tagged])
        arrivals = sorted(world.server.query_log.column("time"))
        replayed = _per_second(arrivals[0], arrivals)
        diffs = []
        for second in range(1, min(len(original), len(replayed)) - 1):
            if original[second] > 0:
                diffs.append((replayed[second] - original[second])
                             / original[second])
        runs.append(RateRun(f"trial-{trial}", diffs))
    return runs


def _per_second(t0: float, times: list[float]) -> list[int]:
    buckets: dict[int, int] = {}
    for t in times:
        buckets[int(t - t0)] = buckets.get(int(t - t0), 0) + 1
    hi = max(buckets)
    return [buckets.get(i, 0) for i in range(hi + 1)]


def main() -> None:
    print("== Fig 6: query-time error (ms) ==")
    runs = figure6()
    for run in runs:
        summary = run.error_summary_ms()
        print(f"{run.label:<14} {summary.row(unit='ms')}")
    print("\n== Fig 7: interarrival CDF divergence ==")
    for cdf in figure7(runs):
        orig_median = cdf.original[len(cdf.original) // 2][0]
        repl_median = cdf.replayed[len(cdf.replayed) // 2][0]
        print(f"{cdf.label:<14} median original={orig_median * 1000:.3f}ms"
              f" replayed={repl_median * 1000:.3f}ms")
    print("\n== Fig 8: per-second rate differences ==")
    for run in figure8():
        summary = summarize([d * 100 for d in run.per_second_diffs])
        print(f"{run.label}: median={summary.median:+.3f}% "
              f"p5={summary.p5:+.3f}% p95={summary.p95:+.3f}% "
              f"within±0.1%={run.fraction_within(0.001):.0%} "
              f"within±1%={run.fraction_within(0.01):.0%}")


if __name__ == "__main__":
    main()
