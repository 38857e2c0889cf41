"""ldp-replay: replay a trace against an emulated server and report.

Usage::

    python -m repro.tools.replay_run trace.txt --zones zones/ \\
        --rtt 0.02 --timeout 20 --instances 2 --queriers 3

Loads zone files, stands up an authoritative server in the simulated
testbed, replays the trace with faithful timing, and prints the §4-style
validation numbers (answered fraction, latency percentiles, timing
error when the trace has unique names).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import AuthoritativeExperiment, ExperimentConfig
from repro.dns.zonefile import load_zone_file
from repro.replay.engine import ReplayConfig
from repro.replay.querier import ResilienceConfig
from repro.trace.pipeline import TracePipeline
from repro.util.stats import summarize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldp-replay",
        description="Replay a DNS trace against an emulated "
                    "authoritative server.")
    parser.add_argument("trace", help="query trace (.pcap/.txt/.ldpb)")
    parser.add_argument("--zones", required=True,
                        help="directory of .zone files to serve")
    parser.add_argument("--rtt", type=float, default=0.001,
                        help="client-server RTT in seconds")
    parser.add_argument("--timeout", type=float, default=20.0,
                        help="server TCP/TLS idle timeout in seconds")
    parser.add_argument("--instances", type=int, default=2,
                        help="client instances")
    parser.add_argument("--queriers", type=int, default=3,
                        help="querier processes per instance")
    parser.add_argument("--fast", action="store_true",
                        help="replay as fast as possible (no timers)")
    parser.add_argument("--mode", choices=("distributed", "direct"),
                        default="direct")
    parser.add_argument("--seed", type=int, default=0)
    live = parser.add_argument_group(
        "replay backend (docs/BACKENDS.md)")
    live.add_argument("--backend", choices=("sim", "live"),
                      default="sim",
                      help="'sim' replays in the deterministic "
                           "simulator; 'live' binds real UDP/TCP "
                           "loopback sockets and replays in "
                           "wall-clock time")
    live.add_argument("--speed", type=float, default=1.0,
                      help="trace-time divisor for the live backend "
                           "(2.0 = replay twice as fast)")
    live.add_argument("--port", type=int, default=0,
                      help="live server port (0 = ephemeral with "
                           "UDP/TCP pair retry)")
    live.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock hard stop for a live replay")
    parser.add_argument("--skip-malformed", action="store_true",
                        help="drop malformed trace records instead of "
                             "aborting; a summary reports the count")
    faults = parser.add_argument_group(
        "faults & resilience (docs/RESILIENCE.md)")
    faults.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON file with a FaultPlan to apply "
                             "during the run")
    supervision = parser.add_argument_group(
        "control-plane supervision (docs/RESILIENCE.md; "
        "distributed mode only)")
    supervision.add_argument("--supervise", action="store_true",
                             help="enable heartbeats, failover, and "
                                  "bounded queues")
    supervision.add_argument("--high-water", type=int, default=512,
                             help="queue high-water mark "
                                  "(with --supervise)")
    supervision.add_argument("--queue-policy",
                             choices=("stall", "shed"),
                             default="stall",
                             help="behavior at the high-water mark "
                                  "(with --supervise)")
    faults.add_argument("--loss", type=float, default=0.0,
                        help="symmetric client-uplink packet loss "
                             "fraction")
    faults.add_argument("--retries", type=int, default=None,
                        help="enable client resilience with this many "
                             "UDP retransmissions per query")
    faults.add_argument("--query-timeout", type=float, default=2.0,
                        help="per-query timeout before the first "
                             "retransmission (with --retries)")
    faults.add_argument("--backoff", type=float, default=2.0,
                        help="timeout multiplier per attempt "
                             "(with --retries)")
    faults.add_argument("--no-tcp-fallback", action="store_true",
                        help="do not retry truncated UDP answers over "
                             "TCP")
    overload = parser.add_argument_group(
        "server overload control (docs/RESILIENCE.md; all off by "
        "default)")
    overload.add_argument("--rrl-rate", type=float, default=None,
                          metavar="QPS",
                          help="enable response rate limiting with this "
                               "per-bucket refill rate")
    overload.add_argument("--rrl-burst", type=float, default=None,
                          help="RRL bucket capacity (default: one "
                               "second of credit, max(1, --rrl-rate))")
    overload.add_argument("--rrl-slip", type=int, default=2,
                          help="send every Nth limited response as a "
                               "truncated (TC=1) reply instead of "
                               "dropping; 0 drops everything "
                               "(with --rrl-rate)")
    overload.add_argument("--rrl-prefix-len", type=int, default=24,
                          help="IPv4 prefix length for RRL client "
                               "aggregation (with --rrl-rate)")
    overload.add_argument("--cookies", action="store_true",
                          help="enable RFC 7873 DNS Cookies: server "
                               "validates, queriers attach and echo")
    overload.add_argument("--admission-limit", type=int, default=None,
                          metavar="N",
                          help="bound the server admission queue at N "
                               "pending queries (drop-oldest beyond)")
    overload.add_argument("--admission-soft-limit", type=int,
                          default=None, metavar="N",
                          help="answer minimal REFUSED once the "
                               "admission queue exceeds N "
                               "(with --admission-limit)")
    return parser


def overload_config_from_args(args):
    """Build an :class:`OverloadConfig` from parsed CLI args, or
    ``None`` when every defense flag is at its off default."""
    from repro.server.overload import (AdmissionConfig, CookieConfig,
                                       OverloadConfig, RrlConfig)
    rrl = None
    if args.rrl_rate is not None:
        rrl = RrlConfig(rate=args.rrl_rate, burst=args.rrl_burst,
                        slip=args.rrl_slip,
                        prefix_len=args.rrl_prefix_len)
    cookies = CookieConfig() if args.cookies else None
    admission = None
    if args.admission_limit is not None:
        admission = AdmissionConfig(limit=args.admission_limit,
                                    soft_limit=args.admission_soft_limit)
    if rrl is None and cookies is None and admission is None:
        return None
    return OverloadConfig(rrl=rrl, cookies=cookies, admission=admission)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    skipped: list = []
    trace = TracePipeline.from_file(
        args.trace, skip_malformed=args.skip_malformed,
        skipped=skipped).collect()
    if skipped:
        print(f"skipped {len(skipped)} malformed record(s); first: "
              f"{skipped[0]}", file=sys.stderr)
    zone_files = sorted(Path(args.zones).glob("*.zone"))
    if not zone_files:
        print(f"no .zone files in {args.zones}", file=sys.stderr)
        return 2
    zones = [load_zone_file(str(path)) for path in zone_files]

    resilience = None
    if args.retries is not None:
        try:
            resilience = ResilienceConfig(
                timeout=args.query_timeout, max_retries=args.retries,
                backoff=args.backoff,
                tcp_fallback=not args.no_tcp_fallback)
        except ValueError as exc:
            parser.error(f"--retries/--query-timeout/--backoff: {exc}")
    fault_plan = None
    if args.fault_plan is not None:
        import json

        from repro.netsim.faults import FaultPlan
        try:
            fault_plan = FaultPlan.from_dict(
                json.loads(Path(args.fault_plan).read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"--fault-plan {args.fault_plan}: {exc}")
    supervision = None
    if args.supervise:
        from repro.replay.supervisor import SupervisionConfig
        try:
            supervision = SupervisionConfig(
                high_water=args.high_water,
                queue_policy=args.queue_policy)
        except ValueError as exc:
            parser.error(f"--high-water: {exc}")
    live_config = None
    if args.backend == "live":
        from repro.replay.backends import LiveReplayConfig
        live_config = LiveReplayConfig(port=args.port, speed=args.speed,
                                       run_deadline=args.deadline)
    overload = overload_config_from_args(args)
    experiment = AuthoritativeExperiment(zones, ExperimentConfig(
        rtt=args.rtt, tcp_idle_timeout=args.timeout,
        client_loss=args.loss, overload=overload,
        replay=ReplayConfig(client_instances=args.instances,
                            queriers_per_instance=args.queriers,
                            mode=args.mode, fast=args.fast,
                            seed=args.seed, resilience=resilience,
                            fault_plan=fault_plan,
                            supervision=supervision,
                            cookies=args.cookies,
                            backend=args.backend, live=live_config)))
    result = experiment.run(trace.rebase_time())
    report = result.report

    print(f"replayed {len(report.results)}/{len(trace)} queries against "
          f"{len(zones)} zones")
    print(f"answered: {report.answered_fraction():.2%}")
    latencies = report.latencies()
    if latencies:
        summary = summarize([lat * 1000 for lat in latencies])
        print(f"latency ms: median={summary.median:.2f} "
              f"q25={summary.p25:.2f} q75={summary.p75:.2f} "
              f"p95={summary.p95:.2f} max={summary.maximum:.2f}")
    meter = experiment.server_host.meter
    rates = meter.rate_series("in")
    if rates:
        print(f"server rate: median {summarize(rates).median:.0f} "
              f"packets/s over {len(rates)}s")
    rcodes: dict[int, int] = {}
    for result_obj in report.results:
        if result_obj.rcode is not None:
            rcodes[result_obj.rcode] = rcodes.get(result_obj.rcode, 0) + 1
    if rcodes:
        from repro.dns.constants import Rcode
        mix = " ".join(
            f"{Rcode.to_text(code)}={count / len(report.results):.1%}"
            for code, count in sorted(rcodes.items()))
        print(f"rcodes: {mix}")
    # Every counter is in every report (docs/OBSERVABILITY.md); print
    # the block of each policy this run configured.
    metrics = report.metrics()

    def block(title: str, group: str, *keys: str) -> None:
        print(f"{title}: " + " ".join(
            f"{key}={metrics[group][key]}" for key in keys))

    if resilience is not None:
        block("resilience", "replay", "timed_out", "retransmits",
              "tcp_fallbacks", "recovered", "still_pending")
    if supervision is not None:
        block("supervision", "replay", "failovers", "redispatched",
              "failed_over", "backpressure_stalls", "shed")
    if overload is not None:
        block("overload", "server", "rrl_dropped", "rrl_slipped",
              "cookies_validated", "admission_shed", "refused_overload")
    print(f"server CPU busy: {meter.cpu_busy:.3f} core-seconds; "
          f"memory now: {meter.memory / 1024 ** 2:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
