"""The golden corpus: committed snapshots the release must reproduce.

Four files live under ``tests/golden/``:

* ``sim_report.json`` — the canonical conformance replay's full
  ``ReplayReport.to_json(indent=2)``: every deterministic metric of
  the seeded sim run.  Any engine change that shifts a byte here is a
  (possibly intentional) break of the cross-release determinism
  contract and must re-record the golden in the same PR;
* ``wire_messages.json`` — hex query/response pairs through the shared
  :class:`DnsResponder`, pinning the answering core's wire bytes for
  both backends;
* ``overload_report.json`` — the defended flood scenario's summary
  (RRL drop/slip counts, cookie validations, admission accounting),
  pinning the overload-control arithmetic end to end;
* ``recursive_report.json`` — the seeded Rec-17 cache scenario's
  summary (resolver stats plus the full cache counter block), pinning
  LRU eviction, expiry reclaim, serve-stale, and prefetch arithmetic.

``record_goldens`` writes them (``ldp-verify --record``);
``verify_goldens`` recomputes and byte-compares (``ldp-verify --tier
golden``), returning human-readable mismatch descriptions instead of
raising so the CLI can report all of them.  A mismatch, and a
re-record, is described by key path (:func:`describe_diff`): what a
reviewer needs to see that a re-record added keys and moved no value.
"""

from __future__ import annotations

import json
from pathlib import Path

# src/repro/check/golden.py -> repo root -> tests/golden
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

SIM_REPORT = "sim_report.json"
WIRE_MESSAGES = "wire_messages.json"
OVERLOAD_REPORT = "overload_report.json"
RECURSIVE_REPORT = "recursive_report.json"


def _compute_sim_report() -> str:
    from repro.check.scenarios import run_sim_variant
    return run_sim_variant().to_json(indent=2) + "\n"


def _compute_wire_messages() -> str:
    from repro.check.scenarios import build_wire_corpus
    return json.dumps(build_wire_corpus(), indent=2,
                      sort_keys=True) + "\n"


def _compute_overload_report() -> str:
    from repro.check.scenarios import (overload_summary,
                                       run_overload_scenario)
    experiment, result = run_overload_scenario()
    return json.dumps(overload_summary(experiment, result), indent=2,
                      sort_keys=True) + "\n"


def _compute_recursive_report() -> str:
    from repro.check.scenarios import (recursive_summary,
                                       run_recursive_scenario)
    experiment, result = run_recursive_scenario()
    return json.dumps(recursive_summary(experiment, result), indent=2,
                      sort_keys=True) + "\n"


GOLDENS = {
    SIM_REPORT: _compute_sim_report,
    WIRE_MESSAGES: _compute_wire_messages,
    OVERLOAD_REPORT: _compute_overload_report,
    RECURSIVE_REPORT: _compute_recursive_report,
}


def record_goldens(directory: Path | str | None = None,
                   names=None) -> list[Path]:
    """Recompute and write the golden files; returns the paths."""
    directory = Path(directory) if directory is not None else GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names or sorted(GOLDENS):
        path = directory / name
        path.write_text(GOLDENS[name](), encoding="utf-8")
        written.append(path)
    return written


def verify_goldens(directory: Path | str | None = None,
                   names=None) -> list[str]:
    """Recompute each golden and byte-compare against the committed
    file; returns mismatch descriptions (empty = all identical)."""
    directory = Path(directory) if directory is not None else GOLDEN_DIR
    failures: list[str] = []
    for name in names or sorted(GOLDENS):
        path = directory / name
        if not path.exists():
            failures.append(
                f"{name}: missing from {directory} "
                "(run `ldp-verify --record` and commit the result)")
            continue
        committed = path.read_text(encoding="utf-8")
        fresh = GOLDENS[name]()
        if fresh != committed:
            failures.append(f"{name}: {describe_diff(committed, fresh)}")
    return failures


def _leaves(value, path: str = "") -> dict[str, object]:
    """``{dotted key path: leaf}`` of a parsed JSON document."""
    if not isinstance(value, dict):
        return {path: value}
    leaves: dict[str, object] = {}
    for key, child in value.items():
        leaves.update(_leaves(child, f"{path}.{key}" if path else key))
    return leaves


def describe_diff(committed: str, fresh: str) -> str:
    """How two JSON goldens differ, by key path: ``+31 keys (...), 1
    changed (meta.version 1 -> 2), 0 removed``.  Every changed and
    removed path is spelled out — those are the ones that break the
    determinism contract; added paths are counted and sampled."""
    old, new = _leaves(json.loads(committed)), _leaves(json.loads(fresh))
    added = sorted(new.keys() - old.keys())
    removed = sorted(old.keys() - new.keys())
    changed = [f"{path} {old[path]!r} -> {new[path]!r}"
               for path in sorted(old.keys() & new.keys())
               if old[path] != new[path]]
    if not (added or removed or changed):
        return "same keys and values, formatting differs"

    def listed(items: list[str]) -> str:
        return f" ({', '.join(items)})" if items else ""

    sample = added[:4] + ["..."] if len(added) > 4 else added
    return (f"+{len(added)} keys{listed(sample)}, "
            f"{len(changed)} changed{listed(changed)}, "
            f"{len(removed)} removed{listed(removed)}")
