"""Figure 15: query latency vs client-server RTT for UDP/TCP/TLS.

§5.2.4's experiment: replay B-Root-17b with a 20 s connection timeout
while sweeping the client-server RTT; measure per-query latency at the
queriers.  Three views:

* Fig 15a — latency percentiles over **all** clients: busy clients keep
  connections warm, so TCP's median stays near UDP's (within ~15% even
  at 160 ms RTT);
* Fig 15b — **non-busy** clients only: most of their queries pay fresh
  handshakes, so TCP's median is ~2 RTT and TLS climbs from ~2 to ~4
  RTT as RTT grows, with a multi-RTT Nagle/delayed-ACK tail;
* Fig 15c — the per-client load CDF that explains the difference
  (1% of clients ≈ 3/4 of queries; ~80% of clients nearly idle).

The paper's busy/non-busy cutoff is 250 queries out of 53 M from 725 k
clients (≈3.4x the per-client mean); at our scale the cutoff keeps the
same ratio to the mean.

Timeout scaling: what makes Fig 15b work in the paper is where the 20 s
idle timeout sits *between* the busy clients' interarrivals
(milliseconds — always warm) and the non-busy clients' (minutes —
always fresh).  A scaled trace compresses per-client interarrivals, so
the timeout compresses with it (default 1.5 s) to preserve that
dimensionless position; EXPERIMENTS.md records the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import (authoritative_world,
                                       root_zone_world,
                                       wildcard_root_zone)
from repro.trace.pipeline import RebaseTime, SetProtocol
from repro.trace.stats import queries_per_client
from repro.util.stats import Summary, cdf_points, summarize
from repro.workloads.broot import BRootParams, generate_broot_trace

BUSY_CUTOFF_RATIO = 3.4   # paper's 250-query cutoff / per-client mean
SCALED_TIMEOUT = 1.5      # the 20 s timeout's scaled equivalent (see above)


@dataclass
class LatencyCell:
    protocol: str
    rtt: float
    all_clients: Summary              # latency (s), every answered query
    nonbusy_clients: Summary | None   # latency (s), non-busy subset
    answered_fraction: float
    nonbusy_client_fraction: float
    nonbusy_query_fraction: float


def run_cell(protocol: str, rtt: float, duration: float = 30.0,
             mean_rate: float = 600.0, clients: int = 3000,
             timeout: float = SCALED_TIMEOUT, internet=None,
             seed: int = 60, *, tcp_fraction: float = 0.03,
             world_seed: int = 4, before_run=None) -> LatencyCell:
    """One transport cell (this figure's, and the QUIC what-if's): a
    B-Root-17b-like trace replayed at a wildcard root over *protocol* —
    "tcp", "tls" or "quic" rewrites every query to it, anything else
    ("original", "udp") keeps the generated mix — and its latencies
    split into busy and non-busy clients.  *before_run* gets the world
    before the replay starts."""
    internet = internet or root_zone_world(tlds=6, slds_per_tld=8,
                                           seed=10)
    zone = wildcard_root_zone(internet)
    trace = generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=mean_rate, clients=clients,
        seed=seed, tcp_fraction=tcp_fraction), name="B-Root-17b")
    if protocol in ("tcp", "tls", "quic"):
        trace = SetProtocol(protocol).apply(trace)
    trace = RebaseTime().apply(trace)
    world = authoritative_world([zone], rtt=rtt, mode="direct",
                                tcp_idle_timeout=timeout,
                                timing_jitter=False, seed=world_seed)
    if before_run is not None:
        before_run(world)
    report = world.run(trace, extra_time=2.0).report

    counts = queries_per_client(trace)
    mean_load = len(trace) / len(counts)
    cutoff = BUSY_CUTOFF_RATIO * mean_load
    nonbusy = {src for src, n in counts.items() if n < cutoff}

    all_lat = [r.latency for r in report.results
               if r.latency is not None]
    nonbusy_lat = [r.latency for r in report.results
                   if r.latency is not None and r.record.src in nonbusy]
    return LatencyCell(
        protocol=protocol, rtt=rtt,
        all_clients=summarize(all_lat),
        nonbusy_clients=summarize(nonbusy_lat) if nonbusy_lat else None,
        answered_fraction=report.answered_fraction(),
        nonbusy_client_fraction=len(nonbusy) / len(counts),
        nonbusy_query_fraction=sum(counts[s] for s in nonbusy)
        / len(trace))


def sweep(rtts=(0.001, 0.04, 0.08, 0.16),
          protocols=("original", "tcp", "tls"),
          duration: float = 30.0, mean_rate: float = 600.0,
          clients: int = 3000) -> list[LatencyCell]:
    internet = root_zone_world(tlds=6, slds_per_tld=8, seed=10)
    cells = []
    for rtt in rtts:
        for protocol in protocols:
            cells.append(run_cell(protocol, rtt, duration=duration,
                                  mean_rate=mean_rate, clients=clients,
                                  internet=internet))
    return cells


def figure15c(duration: float = 30.0, mean_rate: float = 600.0,
              clients: int = 3000) -> list[tuple[float, float]]:
    """CDF of queries per client in the (unmutated) trace."""
    internet = root_zone_world(tlds=6, slds_per_tld=8, seed=10)
    trace = generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=mean_rate, clients=clients,
        seed=60))
    return cdf_points(list(queries_per_client(trace).values()))


def main() -> None:
    cells = sweep()
    print("== Fig 15a: latency over all clients (ms) ==")
    for cell in cells:
        s = cell.all_clients
        print(f"rtt={cell.rtt * 1000:5.0f}ms {cell.protocol:<9} "
              f"median={s.median * 1000:7.1f} q25={s.p25 * 1000:7.1f} "
              f"q75={s.p75 * 1000:7.1f} p95={s.p95 * 1000:7.1f} "
              f"answered={cell.answered_fraction:.1%}")
    print("\n== Fig 15b: latency over non-busy clients (in RTTs) ==")
    for cell in cells:
        if cell.nonbusy_clients is None or cell.rtt < 0.01:
            continue
        s = cell.nonbusy_clients
        print(f"rtt={cell.rtt * 1000:5.0f}ms {cell.protocol:<9} "
              f"median={s.median / cell.rtt:5.2f}RTT "
              f"q25={s.p25 / cell.rtt:5.2f} q75={s.p75 / cell.rtt:5.2f} "
              f"p95={s.p95 / cell.rtt:5.2f}")
    print("\n== Fig 15c: per-client load CDF ==")
    cdf = figure15c()
    for target in (0.5, 0.81, 0.9, 0.99):
        point = next((v for v, f in cdf if f >= target), cdf[-1][0])
        print(f"  {target:.0%} of clients send <= {point:.0f} queries")


if __name__ == "__main__":
    main()
