"""DoS-attack experiment: a root server under random-subdomain attack.

One of the paper's motivating what-ifs (§1): replay a normal B-Root-
style trace, inject a water-torture attack partway through, and watch
what experimentation uniquely shows — the time series of query rate,
CPU, NXDOMAIN fraction, and the collateral latency legitimate clients
experience before/during/after the attack window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.constants import Rcode
from repro.experiments.harness import (authoritative_world,
                                       root_zone_world)
from repro.trace.pipeline import RebaseTime
from repro.util.stats import Summary, summarize
from repro.workloads.attack import (AttackParams, generate_attack_trace,
                                    merge_traces)
from repro.workloads.broot import BRootParams, generate_broot_trace


@dataclass
class AttackResult:
    baseline_rate: float
    attack_rate: float
    rate_series: list[int]
    cpu_before: float
    cpu_during: float
    nxdomain_before: float
    nxdomain_during: float
    legit_latency_before: Summary
    legit_latency_during: Summary


def run(duration: float = 45.0, baseline_rate: float = 400.0,
        attack_rate: float = 2000.0, attack_start: float = 15.0,
        attack_duration: float = 15.0, clients: int = 1500,
        server_workers: int | None = None,
        seed: int = 9) -> AttackResult:
    internet = root_zone_world(tlds=6, slds_per_tld=8, seed=10)
    baseline = generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=baseline_rate, clients=clients,
        seed=seed, tcp_fraction=0.0, junk_fraction=0.1))
    baseline = RebaseTime().apply(baseline)
    attack = generate_attack_trace(AttackParams(
        start=attack_start, duration=attack_duration, rate=attack_rate,
        victim_domain="dom000.com.", seed=seed * 7))
    merged = merge_traces(baseline, attack, name="baseline+attack")

    # The server hosts the whole hierarchy's zones (deepest match
    # answers), so baseline queries resolve normally while the attack's
    # random labels land in the victim SLD zone as NXDOMAIN — the
    # water-torture signature an authoritative operator sees.
    world = authoritative_world(internet.zones, mode="direct",
                                timing_jitter=False, seed=2,
                                sample_interval=3.0,
                                server_workers=server_workers)
    result = world.run(merged)

    attack_end = attack_start + attack_duration
    legit_sources = {r.src for r in baseline}

    def window(results, lo, hi):
        return [r for r in results
                if lo <= r.send_time < hi
                and r.record.src in legit_sources
                and r.latency is not None]

    before = window(result.report.results, 0.0, attack_start)
    during = window(result.report.results, attack_start, attack_end)

    log = world.server.query_log
    def nxd_fraction(lo, hi):
        rcodes = [rcode for time, rcode in zip(log.column("time"),
                                               log.column("rcode"))
                  if lo <= time < hi]
        if not rcodes:
            return 0.0
        return rcodes.count(Rcode.NXDOMAIN) / len(rcodes)

    samples = result.samples
    def cpu(lo, hi):
        window_samples = [s for s in samples if lo <= s.time < hi]
        if not window_samples:
            return 0.0
        return sorted(s.cpu_utilization for s in window_samples)[
            len(window_samples) // 2]

    return AttackResult(
        baseline_rate=baseline_rate,
        attack_rate=attack_rate,
        rate_series=world.server_host.meter.rate_series("in"),
        cpu_before=cpu(3.0, attack_start),
        cpu_during=cpu(attack_start + 2, attack_end),
        nxdomain_before=nxd_fraction(0.0, attack_start),
        nxdomain_during=nxd_fraction(attack_start, attack_end),
        legit_latency_before=summarize([r.latency for r in before]),
        legit_latency_during=summarize([r.latency for r in during]))


def run_overload(duration: float = 30.0, baseline_rate: float = 300.0,
                 attack_rate: float = 8000.0, workers: int = 1,
                 seed: int = 9) -> AttackResult:
    """The saturation regime: with a small worker pool the attack
    exceeds server capacity (workers / ~120 µs per query), and
    legitimate clients feel it — §1's DoS question answered with
    queueing, not hand-waving."""
    return run(duration=duration, baseline_rate=baseline_rate,
               attack_rate=attack_rate, attack_start=duration / 3,
               attack_duration=duration / 3, clients=800,
               server_workers=workers, seed=seed)


# -- the defense sweep --------------------------------------------------------
#
# Defenses-on/off x attack-shape x backend, reporting the number an
# operator actually cares about: how much legitimate traffic still gets
# an answer, and at what latency, before/during/after the attack
# window.  "Answered" includes soft-limit REFUSED — a fast REFUSED is a
# signal a real client can act on, an indefinitely-queued query is not.


@dataclass
class DefenseCell:
    shape: str                      # "water-torture" | "direct-flood"
    defended: bool
    backend: str                    # "sim" | "live"
    legit_total: int
    legit_answered: int
    latency_before: Summary | None
    latency_during: Summary | None
    latency_after: Summary | None
    rrl_dropped: int
    rrl_slipped: int
    admission_shed: int
    refused_overload: int

    @property
    def legit_answered_fraction(self) -> float:
        if not self.legit_total:
            return 0.0
        return self.legit_answered / self.legit_total


def sweep_posture():
    """RRL + admission control, no cookies: the canonical defended
    cell.  (With cookies on, replayed clients all verify — they really
    complete the exchange, unlike spoofed attackers — so the cookie
    axis is studied separately, not inside this sweep.)"""
    from repro.server.overload import (AdmissionConfig, OverloadConfig,
                                       RrlConfig)
    return OverloadConfig(
        rrl=RrlConfig(rate=20.0, slip=2, exempt_verified=False),
        admission=AdmissionConfig(limit=64, soft_limit=32))


def _maybe_summary(values: list) -> Summary | None:
    return summarize(values) if values else None


def run_defense_cell(shape: str = "water-torture",
                     defended: bool = True, backend: str = "sim",
                     seed: int = 9) -> DefenseCell:
    """One cell of the sweep: a deliberately undersized server (one
    slow worker in sim, the one-event-loop loopback responder live)
    against an attack that exceeds its capacity several times over."""
    from repro.core.experiment import (AuthoritativeExperiment,
                                       ExperimentConfig)
    from repro.netsim.resources import CostModel
    from repro.replay.engine import ReplayConfig

    internet = root_zone_world(tlds=3, slds_per_tld=3, seed=10)
    live = backend == "live"
    duration = 8.0 if live else 12.0
    attack_start = duration / 3
    attack_duration = duration / 3
    baseline = generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=150.0 if live else 200.0,
        clients=200 if live else 300, seed=seed, tcp_fraction=0.0,
        junk_fraction=0.05))
    baseline = RebaseTime().apply(baseline)
    attack = generate_attack_trace(AttackParams(
        start=attack_start, duration=attack_duration,
        rate=3000.0 if live else 8000.0,
        victim_domain="dom000.com.",
        random_labels=shape == "water-torture", seed=seed * 7))
    merged = merge_traces(baseline, attack, name=f"{shape}-sweep")

    replay = ReplayConfig(mode="direct", client_instances=2,
                          queriers_per_instance=2, seed=2,
                          timing_jitter=False)
    config = ExperimentConfig(
        overload=sweep_posture() if defended else None, replay=replay)
    if live:
        from repro.replay.backends import LiveReplayConfig
        replay.backend = "live"
        # A short per-query timeout is the live analogue of the sim's
        # bounded extra_time: an undefended server that answers later
        # than this has effectively not answered.  The large in-flight
        # window keeps the clients from self-throttling the flood, and
        # the modest speed-up keeps datagram *arrival* feasible for the
        # server's one event loop — the overload must come from
        # response *processing*, which is what admission control
        # triages away, not from the loopback transport itself.
        replay.live = LiveReplayConfig(speed=2.0, query_timeout=0.4,
                                       max_inflight=8192,
                                       run_deadline=120.0)
    else:
        # One worker at 2000 q/s capacity versus an 8000 q/s flood:
        # the undefended backlog grows for the whole attack window and
        # takes far longer than the run to drain.
        config.server_workers = 1
        config.cost = CostModel(udp_query=0.0005)
    world = AuthoritativeExperiment(internet.zones, config)
    # The hard stop is the experiment's patience: an answer the server
    # has not delivered one second after the trace ends is counted as
    # unanswered, exactly like the live cell's query_timeout.
    result = world.run(merged, until=duration + 1.0, extra_time=1.0)

    legit_sources = {r.src for r in baseline}
    legit = [r for r in result.report.results
             if r.record.src in legit_sources]
    answered = [r for r in legit if r.latency is not None]
    attack_end = attack_start + attack_duration

    def window(lo: float, hi: float) -> list[float]:
        return [r.latency for r in answered
                if lo <= r.record.time < hi]

    server = world.server
    return DefenseCell(
        shape=shape, defended=defended, backend=backend,
        legit_total=len(legit), legit_answered=len(answered),
        latency_before=_maybe_summary(window(0.0, attack_start)),
        latency_during=_maybe_summary(window(attack_start, attack_end)),
        latency_after=_maybe_summary(window(attack_end, duration + 1)),
        rrl_dropped=server.rrl_dropped,
        rrl_slipped=server.rrl_slipped,
        admission_shed=server.admission_shed,
        refused_overload=server.admission_refused)


def defense_sweep(backends=("sim",), seed: int = 9) -> list[DefenseCell]:
    """The full defenses-on/off x attack-shape x backend grid."""
    cells = []
    for backend in backends:
        for shape in ("water-torture", "direct-flood"):
            for defended in (False, True):
                cells.append(run_defense_cell(
                    shape=shape, defended=defended, backend=backend,
                    seed=seed))
    return cells


def _cell_row(cell: DefenseCell) -> str:
    def ms(summary: Summary | None) -> str:
        return (f"{summary.median * 1000:.1f}ms"
                if summary is not None else "-")

    label = "defended " if cell.defended else "undefended"
    return (f"{cell.backend:4} {cell.shape:13} {label}: "
            f"legit answered {cell.legit_answered}/{cell.legit_total} "
            f"({cell.legit_answered_fraction:.1%}), latency "
            f"{ms(cell.latency_before)} -> {ms(cell.latency_during)} "
            f"-> {ms(cell.latency_after)}, rrl d/s="
            f"{cell.rrl_dropped}/{cell.rrl_slipped} "
            f"shed={cell.admission_shed} "
            f"refused={cell.refused_overload}")


def check_sweep_gate(cells: list[DefenseCell]) -> list[str]:
    """The CI gate: under the water-torture attack, the defended
    server must answer at least as much legitimate traffic as the
    undefended one (strictly more whenever the attack actually hurt).
    The direct flood is reported but not gated — the answer cache
    absorbs it so cheaply that both postures can saturate at 100%."""
    failures = []
    by_key = {(c.backend, c.shape, c.defended): c for c in cells}
    for backend in {c.backend for c in cells}:
        off = by_key.get((backend, "water-torture", False))
        on = by_key.get((backend, "water-torture", True))
        if off is None or on is None:
            continue
        if on.legit_answered_fraction < off.legit_answered_fraction:
            failures.append(
                f"{backend}: defended answered "
                f"{on.legit_answered_fraction:.1%} < undefended "
                f"{off.legit_answered_fraction:.1%} under "
                "water-torture")
    return failures


def main(argv: list[str] | None = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="repro.experiments.attack",
        description="DoS what-ifs: attack impact and defense sweep.")
    parser.add_argument("--sweep", action="store_true",
                        help="run the defenses-on/off x attack-shape "
                             "sweep instead of the narrative what-if")
    parser.add_argument("--backends", default="sim",
                        help="comma-separated backends for --sweep "
                             "(sim,live)")
    parser.add_argument("--gate", action="store_true",
                        help="with --sweep: exit 1 unless the defended "
                             "server answers at least as much "
                             "legitimate traffic as the undefended one")
    args = parser.parse_args(argv)

    if args.sweep:
        backends = tuple(b.strip() for b in args.backends.split(",")
                         if b.strip())
        cells = defense_sweep(backends=backends)
        print("== defense sweep: legitimate-client collateral ==")
        for cell in cells:
            print(_cell_row(cell))
        failures = check_sweep_gate(cells)
        if failures:
            for failure in failures:
                print(f"GATE FAILED: {failure}")
            return 1 if args.gate else 0
        print("gate ok: defended >= undefended on water-torture")
        return 0

    result = run()
    print("== DoS what-if: random-subdomain attack on the root ==")
    print(f"baseline {result.baseline_rate:.0f} q/s, attack adds "
          f"{result.attack_rate:.0f} q/s for 15s")
    peak = max(result.rate_series)
    print(f"server rate: median "
          f"{sorted(result.rate_series)[len(result.rate_series) // 2]} "
          f"q/s, peak {peak} q/s")
    print(f"CPU: {result.cpu_before:.2%} before -> "
          f"{result.cpu_during:.2%} during")
    print(f"NXDOMAIN fraction: {result.nxdomain_before:.1%} before -> "
          f"{result.nxdomain_during:.1%} during")
    print(f"legit client latency median: "
          f"{result.legit_latency_before.median * 1000:.2f}ms -> "
          f"{result.legit_latency_during.median * 1000:.2f}ms")
    print("\n== overload regime (1 worker, attack >> capacity) ==")
    overload = run_overload()
    print(f"legit latency median: "
          f"{overload.legit_latency_before.median * 1000:.2f}ms -> "
          f"{overload.legit_latency_during.median * 1000:.2f}ms; "
          f"p95 during: "
          f"{overload.legit_latency_during.p95 * 1000:.2f}ms")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
