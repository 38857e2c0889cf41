"""Benchmark reporting: paper-vs-measured rows, persisted to disk.

pytest captures stdout, so each benchmark also writes its rows to
``benchmarks/_results/<name>.txt`` — the files EXPERIMENTS.md is
compiled from.

Performance numbers do not come from here: the ledger
(``benchmarks/ledger``, declared in the repo-root ``BENCHMARK.json``) is
the one benchmark that measures speed.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "_results"


def record(name: str, lines: list[str]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"\n== {name} ==")
    print(text)
