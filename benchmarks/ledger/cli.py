"""Command line of the ledger.

``--workload W --trace 0|1`` measures one workload in this process and
prints, as its last line, the JSON object the benchmark contract asks
for.  Without ``--trace`` the command runs each chosen workload twice
(untraced, then traced), each in a fresh child process of its own, one
at a time, and can save everything to ``--out`` for ``compare``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

from benchmarks.ledger.catalogue import LEDGER, ROOT, Declaration

DETAIL = "detail: "
DEFAULT_SEED = 11


def _parser(declaration: Declaration) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=declaration.workloads,
                        help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declaration.run_seconds,
                        help="time the three repeats should take together "
                             "on the reference host; sizes every input")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed repeats, end-to-end metrics; "
                             "1: traced run, per-layer metrics")
    parser.add_argument("--out", help="save every result as JSON "
                                      "(input of `compare`)")
    return parser


def _as_detail(result, units: dict[str, dict]) -> dict:
    detail = dataclasses.asdict(result)
    detail["correct"] = result.correct
    for name, stat in detail["metrics"].items():
        stat["unit"] = units[name]["unit"]
    return detail


def validate(result, declared: dict[str, dict]) -> None:
    """A run emits exactly the declared names; an end-to-end metric
    may not be missing (a per-layer one may be null)."""
    extra = set(result.metrics) - set(declared)
    missing = set(declared) - set(result.metrics)
    if extra or missing:
        raise SystemExit(f"error: {result.workload}: undeclared metrics "
                         f"{sorted(extra)}, missing {sorted(missing)}")
    if not result.traced:
        absent = [n for n, s in result.metrics.items() if s.value is None]
        if absent:
            raise SystemExit(f"error: {result.workload}: end-to-end "
                             f"metrics without a value: {absent}")


def _print_result(result, declared: dict[str, dict]) -> None:
    kind = ("traced run, per-layer metrics" if result.traced
            else "3 timed repeats, end-to-end metrics")
    print(f"workload {result.workload}  seed {result.seed}  "
          f"seconds {result.seconds:g}  ({kind})")
    print("  composition " + "  ".join(
        f"{name}={value:.4g}" for name, value in result.composition.items()))
    for name in declared:
        stat = result.metrics[name]
        unit = declared[name]["unit"]
        if stat.value is None:
            print(f"  {name:<40} {'-':>14} {unit}")
            continue
        line = f"  {name:<40} {stat.value:>14.6g} {unit:<6}"
        if stat.low is not None:
            line += f" [min {stat.low:.6g}  max {stat.high:.6g}]"
        if stat.stand_in:
            line += "  stand-in: wall ms per 1,000 records"
        print(line)
    if not result.traced:
        print(f"  {'failed_fraction':<40} "
              f"{result.failed / result.attempted:>14.6g} ratio  "
              f"({result.failed} of {result.attempted})")
    if result.sha256:
        print(f"  outcome_sha256 {result.sha256}")
    for note in result.notes:
        print(f"  note: {note}")
    for check in result.checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name}: "
              f"{check.detail}")


def run_leaf(args, declaration: Declaration) -> int:
    if args.workload is None:
        raise SystemExit("error: --trace needs --workload")
    try:    # imported here: only a run needs the program under test
        from benchmarks.ledger import harness
        from benchmarks.ledger.workloads import WORKLOADS
    except ModuleNotFoundError as exc:
        raise SystemExit(f"error: cannot import the program under test "
                         f"from {ROOT / 'src'}: {exc}")
    declared = declaration.section(args.trace)
    run = harness.trace if args.trace else harness.measure
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 declaration)
    validate(result, declared)
    _print_result(result, declared)
    print(DETAIL + json.dumps(_as_detail(result, declared)))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": (0.0 if stat.value is None
                                     else stat.value),
                           "unit": declared[name]["unit"]}
                    for name, stat in result.metrics.items()},
    }))
    return 0 if result.correct else 1


def _child(workload: str, seed: int, seconds: float, trace: int) \
        -> tuple[int, dict | None]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    command = [sys.executable, str(LEDGER / "__main__.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    detail = None
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT) as child:
        for line in child.stdout:
            if line.startswith(DETAIL):
                detail = json.loads(line[len(DETAIL):])
            elif not line.startswith("{"):
                print(line, end="", flush=True)
    return child.returncode, detail


def run_all(args, declaration: Declaration) -> int:
    workloads = [args.workload] if args.workload else declaration.workloads
    runs, failures = [], []
    for workload in workloads:
        for trace in (0, 1):
            code, detail = _child(workload, args.seed, args.seconds, trace)
            if detail is not None:
                runs.append(detail)
            if code != 0:
                failures.append(f"{workload} --trace {trace}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "runs": runs}, handle, indent=1)
            handle.write("\n")
    if failures:
        print("FAILED: " + ", ".join(failures))
        return 1
    print(f"ledger: {len(workloads)} workload(s) measured, "
          "every check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    declaration = Declaration()
    if argv[:1] == ["compare"]:
        from benchmarks.ledger.compare import main as compare
        return compare(argv[1:], declaration)
    args = _parser(declaration).parse_args(argv)
    if args.trace is None:
        return run_all(args, declaration)
    return run_leaf(args, declaration)
