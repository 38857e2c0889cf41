"""``compare A.json B.json``: apply the bounds of ``BENCHMARK.json``.

One row per (workload, end-to-end metric) that the workload defines:
``ok``, ``regressed`` or ``improved`` by more than the bound, or
``unresolved`` when the three repeats of either side spread wider than
the bound, so that the medians cannot tell.  Exits non-zero on any
regression.  On the sim workloads it also says whether the outcome
hash and the exact counters of the two sets are identical.
"""

from __future__ import annotations

import json

from benchmarks.ledger.catalogue import Declaration

FAILED_FRACTION_BOUND = 0.001       # absolute


def _load(path: str) -> dict[tuple[str, bool], dict]:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    return {(run["workload"], run["traced"]): run for run in report["runs"]}


def _spread(stat: dict) -> float:
    if stat["low"] is None or not stat["value"]:
        return 0.0
    return (stat["high"] - stat["low"]) / abs(stat["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Status of going from stat *a* to stat *b*, and how much worse
    (as a share of *a*, negative when better) the median got."""
    worse = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        worse = -worse
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def main(argv: list[str], declaration: Declaration) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: python -m benchmarks.ledger compare "
                         "A.json B.json")
    before, after = _load(argv[0]), _load(argv[1])
    regressions = 0
    print(f"{'workload':<14} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  status")
    for workload in declaration.workloads:
        a, b = before.get((workload, False)), after.get((workload, False))
        if a is None or b is None:
            print(f"{workload:<14} missing from one of the two sets")
            continue
        for name, declared in declaration.end_to_end.items():
            stat_a, stat_b = a["metrics"][name], b["metrics"][name]
            if stat_a["stand_in"]:
                continue
            status, worse = verdict(stat_a, stat_b, declared["better"],
                                    declared["bound"])
            regressions += status == "regressed"
            print(f"{workload:<14} {name:<20} {stat_a['value']:>12.5g} "
                  f"{stat_b['value']:>12.5g} {worse:>+9.1%} "
                  f"{declared['bound']:>6.0%}  {status}")
        failed_a = a["failed"] / a["attempted"]
        failed_b = b["failed"] / b["attempted"]
        status = ("regressed"
                  if failed_b - failed_a > FAILED_FRACTION_BOUND else "ok")
        regressions += status == "regressed"
        print(f"{workload:<14} {'failed_fraction':<20} {failed_a:>12.5g} "
              f"{failed_b:>12.5g} {failed_b - failed_a:>+9.4f} "
              f"{FAILED_FRACTION_BOUND:>6}  {status}")
        _exact_rows(workload, a, b, before.get((workload, True)),
                    after.get((workload, True)))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def _exact_rows(workload, a, b, traced_a, traced_b) -> None:
    if a["sha256"] is None:
        return
    same = "identical" if a["sha256"] == b["sha256"] else "DIFFERS"
    print(f"{workload:<14} outcome_sha256 {same}")
    if traced_a is None or traced_b is None:
        return
    differing = [name for name in traced_a["exact"]
                 if traced_a["metrics"][name]["value"]
                 != traced_b["metrics"][name]["value"]]
    print(f"{workload:<14} {len(traced_a['exact'])} exact counters "
          + ("identical" if not differing else f"DIFFER: {differing}"))
