"""ldp-verify: the conformance harness CLI (docs/VERIFICATION.md).

Usage::

    python -m repro.tools.verify_run --tier conformance
    python -m repro.tools.verify_run --tier golden
    python -m repro.tools.verify_run --tier fuzz --fuzz-examples 40000
    python -m repro.tools.verify_run --tier scale
    python -m repro.tools.verify_run --record

Tiers:

* ``golden`` — recompute the four canonical corpora (sim report,
  wire messages, overload report, recursive/cache report) and
  byte-compare against the committed files under ``tests/golden/``
  (seconds; the cross-release regression gate);
* ``conformance`` — the full bar: golden verify, the sim config
  matrix (cache on/off x serial/parallel pipeline, all
  byte-identical to the golden), sim-vs-live per-query outcome
  equality over real loopback sockets (six shapes), and a seeded fuzz
  run with zero responder/parser crashes;
* ``fuzz`` — only the seeded never-crash fuzz targets (for the
  time-boxed CI fuzz job; raise ``--fuzz-examples`` to dig deeper);
* ``scale`` — one replay of :data:`SCALE_RECORDS` records of the
  ledger's ``broot_udp`` analogue under ``check=True``: fails unless
  every record is answered and the process's peak RSS stays within
  :data:`SCALE_PEAK_RSS_MB` (a replay's memory must follow what is in
  flight, not the trace; minutes, for CI's ``scale`` job).

``--record`` rewrites the golden files instead of checking them, and
prints for each how it moved by key path (added / changed / removed) —
commit the result in the same PR as the engine change that moved
them, with that summary as the rationale's evidence.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# The scale tier: a B-Root hour is ~144M queries; a million records
# replays in minutes and shows memory that grows with the trace.
SCALE_RECORDS = 1_000_000
SCALE_RATE = 2000.0             # queries/s, the ledger's broot_udp rate
SCALE_SEED = 11
# 1.25 x the peak RSS this replay measured (507.7 MiB on CPython 3.11,
# x86-64 Linux; 1,001,491 records, 262 s on a 2-core host).
SCALE_PEAK_RSS_MB = 1.25 * 507.7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldp-verify",
        description="Verify the replay system's conformance "
                    "contracts: golden byte-identity, sim-vs-sim and "
                    "sim-vs-live differential runs, seeded fuzzing.")
    parser.add_argument("--tier", choices=("golden", "conformance",
                                           "fuzz", "scale"),
                        default="conformance",
                        help="how much to verify (default: "
                             "conformance, the full bar)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden files from the "
                             "current tree instead of verifying")
    parser.add_argument("--golden-dir", type=Path, default=None,
                        help="override the golden corpus directory "
                             "(default: tests/golden/)")
    fuzz = parser.add_argument_group("fuzzing")
    fuzz.add_argument("--fuzz-examples", type=int, default=10_000,
                      help="total fuzz examples split across the "
                           "never-crash targets (default: 10000)")
    fuzz.add_argument("--fuzz-seed", type=int, default=0,
                      help="hypothesis seed for the fuzz run "
                           "(printed, so failures reproduce)")
    live = parser.add_argument_group("sim-vs-live")
    live.add_argument("--skip-live", action="store_true",
                      help="skip the live-backend differential "
                           "(e.g. no loopback sockets available)")
    live.add_argument("--live-speed", type=float, default=20.0,
                      help="trace-time divisor for the live run")
    return parser


def _section(title: str) -> None:
    print(f"== {title}")


def _verify_golden(args, failures: list[str]) -> None:
    from repro.check.golden import verify_goldens
    _section("golden corpus")
    mismatches = verify_goldens(args.golden_dir)
    for mismatch in mismatches:
        print(f"FAIL {mismatch}")
        failures.append(f"golden: {mismatch}")
    if not mismatches:
        print("ok golden files byte-identical")


def _verify_matrix(args, failures: list[str]) -> None:
    from repro.check.differential import diff_sim_matrix
    from repro.check.golden import GOLDEN_DIR, SIM_REPORT
    _section("sim config matrix")
    directory = args.golden_dir or GOLDEN_DIR
    golden_path = directory / SIM_REPORT
    golden = (golden_path.read_text(encoding="utf-8")
              if golden_path.exists() else None)
    if golden is None:
        print(f"note: {golden_path} missing; matrix checked for "
              "internal byte-identity only")
    for result in diff_sim_matrix(golden=golden):
        if result.ok:
            print(f"ok {result.label}")
        else:
            for failure in result.failures:
                print(f"FAIL {result.label}: {failure}")
                failures.append(f"{result.label}: {failure}")


def _verify_live(args, failures: list[str]) -> None:
    from repro.check.differential import diff_sim_live
    _section("sim vs live")
    if args.skip_live:
        print("skipped (--skip-live)")
        return
    for result in diff_sim_live(speed=args.live_speed):
        if result.ok:
            print(f"ok {result.label}: every query's outcome and "
                  f"every source's querier equal")
        for failure in result.failures:
            print(f"FAIL {result.label}: {failure}")
            failures.append(f"{result.label}: {failure}")


def _verify_fuzz(args, failures: list[str]) -> None:
    _section("seeded fuzz")
    try:
        from repro.check.fuzzing import run_fuzz
    except ImportError as exc:
        print(f"FAIL fuzz targets unavailable: {exc}")
        failures.append(f"fuzz: {exc}")
        return
    try:
        report = run_fuzz(max_examples=args.fuzz_examples,
                          seed=args.fuzz_seed,
                          log=lambda line: print(f"   {line}"))
    except Exception as exc:                # shrunk example in message
        print(f"FAIL fuzz (seed {args.fuzz_seed}): {exc}")
        failures.append(f"fuzz: {type(exc).__name__}: {exc}")
        return
    print(f"ok {report.total_examples} examples, "
          f"{len(report.examples)} targets, seed {report.seed}, "
          f"{report.elapsed:.1f}s, zero crashes")


def _verify_scale(args, failures: list[str]) -> None:
    import resource

    from repro.core import AuthoritativeExperiment, ExperimentConfig
    from repro.experiments.harness import root_zone_world
    from repro.replay.engine import ReplayConfig
    from repro.workloads.broot import BRootParams, generate_broot_trace
    _section(f"scale: {SCALE_RECORDS:,} broot_udp records, check=True")
    start = time.perf_counter()
    internet = root_zone_world(tlds=20, slds_per_tld=20, seed=SCALE_SEED)
    internet.sign_all(root_only=True)
    trace = generate_broot_trace(internet, BRootParams(
        duration=SCALE_RECORDS / SCALE_RATE, mean_rate=SCALE_RATE,
        clients=5000, do_fraction=0.723, tcp_fraction=0.0,
        junk_fraction=0.30, seed=SCALE_SEED))
    experiment = AuthoritativeExperiment(
        [internet.root_zone], ExperimentConfig(replay=ReplayConfig(
            seed=SCALE_SEED, check=True)))
    report = experiment.run(trace).report
    records = len(trace)
    answered = sum(1 for result in report.results if result.answered)
    # Linux reports ru_maxrss in KiB.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"   {records:,} records, {answered:,} answered, peak RSS "
          f"{peak:.1f} MiB (bound {SCALE_PEAK_RSS_MB:.1f}), "
          f"{time.perf_counter() - start:.0f} s")
    if answered != records:
        failures.append(f"scale: {records - answered} of {records} "
                        "records unanswered")
    if peak > SCALE_PEAK_RSS_MB:
        failures.append(f"scale: peak RSS {peak:.1f} MiB over "
                        f"{SCALE_PEAK_RSS_MB:.1f}")
    if not failures:
        print("ok every record answered, peak RSS within bound")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.record:
        from repro.check.golden import (GOLDEN_DIR, describe_diff,
                                        record_goldens)
        directory = args.golden_dir or GOLDEN_DIR
        before = {path.name: path.read_text(encoding="utf-8")
                  for path in directory.glob("*.json")}
        for path in record_goldens(directory):
            old, new = before.get(path.name), path.read_text(
                encoding="utf-8")
            print(f"recorded {path}: "
                  + ("new" if old is None else "unchanged" if old == new
                     else describe_diff(old, new)))
        return 0
    failures: list[str] = []
    if args.tier == "golden":
        _verify_golden(args, failures)
    elif args.tier == "fuzz":
        _verify_fuzz(args, failures)
    elif args.tier == "scale":
        _verify_scale(args, failures)
    else:
        _verify_golden(args, failures)
        _verify_matrix(args, failures)
        _verify_live(args, failures)
        _verify_fuzz(args, failures)
    print()
    if failures:
        print(f"ldp-verify: {len(failures)} failure(s) at tier "
              f"{args.tier}")
        return 1
    print(f"ldp-verify: tier {args.tier} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
