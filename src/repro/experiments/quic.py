"""QUIC what-if: the §1 question the paper's evaluation left open.

"What if all DNS requests were made over QUIC, TCP or TLS?" — §5.2
answers TCP and TLS; this experiment adds the QUIC arm with the same
methodology: mutate the trace to all-QUIC, replay at a root-style
server, and measure what changed:

* **latency** — fresh queries cost 2 RTT (combined handshake) and
  *resumed* reconnections only 1 RTT (0-RTT), vs TCP's 2 and TLS's 4;
* **memory** — per-connection state sits between TCP and TLS, and the
  TIME_WAIT population is structurally absent;
* **CPU** — TLS-grade crypto amortized over the connection lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import latency
from repro.experiments.harness import root_zone_world
from repro.util.stats import Summary


@dataclass
class TransportCell:
    protocol: str
    rtt: float
    all_clients: Summary
    nonbusy_clients: Summary
    answered_fraction: float
    server_memory: int
    time_wait: int
    established: int


def run_cell(protocol: str, rtt: float = 0.08, duration: float = 20.0,
             mean_rate: float = 400.0, clients: int = 1600,
             timeout: float = latency.SCALED_TIMEOUT, internet=None,
             seed: int = 61) -> TransportCell:
    snapshot = {}

    def arm_snapshot(world) -> None:
        # Sample once mid-run for the connection-state snapshot.
        meter = world.server_host.meter
        world.sim.scheduler.at(duration * 0.75, lambda: snapshot.update(
            memory=meter.memory, established=meter.established,
            time_wait=meter.time_wait))

    cell = latency.run_cell(
        protocol, rtt, duration, mean_rate, clients, timeout, internet,
        seed, tcp_fraction=0.0, world_seed=6, before_run=arm_snapshot)
    return TransportCell(
        protocol=protocol, rtt=rtt, all_clients=cell.all_clients,
        nonbusy_clients=cell.nonbusy_clients,
        answered_fraction=cell.answered_fraction,
        server_memory=snapshot.get("memory", 0),
        time_wait=snapshot.get("time_wait", 0),
        established=snapshot.get("established", 0))


def compare_transports(rtt: float = 0.08, **kwargs) \
        -> dict[str, TransportCell]:
    internet = root_zone_world(tlds=6, slds_per_tld=8, seed=10)
    return {proto: run_cell(proto, rtt=rtt, internet=internet, **kwargs)
            for proto in ("udp", "tcp", "tls", "quic")}


def main() -> None:
    rtt = 0.08
    cells = compare_transports(rtt=rtt)
    print(f"== all-<transport> replay at RTT={rtt * 1000:.0f}ms ==")
    print(f"{'proto':<6} {'median':>9} {'nonbusy-med':>12} "
          f"{'p95':>9} {'est':>6} {'tw':>6} {'dyn-mem':>10}")
    udp_base = cells["udp"].server_memory
    for proto, cell in cells.items():
        print(f"{proto:<6} "
              f"{cell.all_clients.median * 1000:8.1f}ms "
              f"{cell.nonbusy_clients.median / rtt:10.2f}RTT "
              f"{cell.all_clients.p95 * 1000:8.1f}ms "
              f"{cell.established:6d} {cell.time_wait:6d} "
              f"{(cell.server_memory - udp_base) / 1024 ** 2:8.1f}MB")
    print("\nQUIC: fresh queries 2 RTT, 0-RTT resumption 1 RTT, no "
          "TIME_WAIT population; the §1 what-if completed.")


if __name__ == "__main__":
    main()
