"""Figure 9: single-host fast-replay throughput.

§4.3's methodology: a continuous stream of identical queries
(www.example.com A) sent over UDP with no timer events, one distributor
and six querier processes on one host, against a wildcard example.com
zone; the query *generator* saturates one core and is the bottleneck
(87 k q/s in the paper's C++ implementation).

This module is the simulated experiment: the generator's per-query cost
bounds the replay rate, and the sampled rate stays flat over the run
(the shape of Fig 9).  What this Python implementation does in wall-clock
time — it cannot match C++ packet rates — is the performance ledger's
``fig9_hot`` workload (benchmarks/ledger/README.md), and EXPERIMENTS.md
records the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiment import (AuthoritativeExperiment,
                                   ExperimentConfig)
from repro.experiments.harness import wildcard_zone
from repro.replay.engine import ReplayConfig
from repro.trace.record import QueryRecord, Trace

# The paper's generator emits ~87k identical queries/s from one core:
GENERATOR_COST = 1.0 / 87_000.0


@dataclass
class ThroughputResult:
    sample_times: list[float]
    rates: list[float]                # queries/s per sample window
    bandwidth_mbps: list[float]
    total_queries: int

    def _steady_windows(self) -> list[float]:
        """Rates excluding the (possibly partial) first and last window."""
        if len(self.rates) <= 2:
            return list(self.rates)
        return self.rates[1:-1]

    def steady_rate(self) -> float:
        windows = self._steady_windows()
        if not windows:
            return 0.0
        return sum(windows) / len(windows)

    def flatness(self) -> float:
        """max/min over the steady windows: ~1.0 means a flat line."""
        windows = [r for r in self._steady_windows() if r > 0]
        if not windows:
            return 0.0
        return max(windows) / min(windows)


def run(duration: float = 10.0, sample_window: float = 2.0,
        scale: float = 0.1, queriers: int = 6) -> ThroughputResult:
    """Fast replay of a continuous identical-query stream.

    *scale* shrinks the generator rate (scale=0.1 emulates a generator
    10x slower than the paper's) to keep event counts laptop-sized; the
    measured steady rate times 1/scale is the paper-comparable number.
    """
    generator_cost = GENERATOR_COST / scale
    count = int(duration / generator_cost)
    # All queries are identical and from one source, as in §4.3.
    records = [QueryRecord(time=0.0, src="172.16.0.1",
                           qname="www.example.com.")] * count
    world = AuthoritativeExperiment(
        [wildcard_zone()], ExperimentConfig(replay=ReplayConfig(
            mode="direct", fast=True, reader_cost=generator_cost,
            client_instances=1, queriers_per_instance=queriers, seed=9)))
    world.run(Trace(records, name="fast-stream"), extra_time=1.0)
    meter = world.server_host.meter
    arrivals = meter.packets_in
    if not arrivals:
        return ThroughputResult([], [], [], 0)
    lo, hi = min(arrivals), max(arrivals)
    times, rates, bandwidth = [], [], []
    second_bytes = meter.bytes_in
    window = max(1, int(sample_window))
    for start in range(lo, hi + 1, window):
        seconds = range(start, min(start + window, hi + 1))
        queries = sum(arrivals.get(s, 0) for s in seconds)
        nbytes = sum(second_bytes.get(s, 0) for s in seconds)
        times.append(start)
        rates.append(queries / window)
        bandwidth.append(nbytes * 8 / window / 1e6)
    return ThroughputResult(times, rates, bandwidth,
                            total_queries=sum(arrivals.values()))


def main() -> None:
    scale = 0.1
    result = run(duration=20.0, scale=scale)
    print("== Fig 9: single-host fast replay (simulated) ==")
    print(f"steady rate: {result.steady_rate():,.0f} q/s at scale "
          f"{scale:g} -> paper-scale ~{result.steady_rate() / scale:,.0f}"
          f" q/s (paper: ~87,000 q/s; generator-bound)")
    print(f"flatness (max/min over steady tail): "
          f"{result.flatness():.3f}")
    for t, rate, bw in zip(result.sample_times[:10], result.rates[:10],
                           result.bandwidth_mbps[:10]):
        print(f"  t={t:>4}s rate={rate:>9,.0f} q/s bw={bw:6.1f} Mb/s")


if __name__ == "__main__":
    main()
