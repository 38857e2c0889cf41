"""Regenerate every table and figure: each experiment module's ``main()``.

``python -m repro.experiments.report`` (``make experiments``) is a loop
over the modules below, in EXPERIMENTS.md order.  Each is also
``python -m repro.experiments.<name>`` on its own, and the shapes its
rows must show are asserted by ``tests/experiments/``.
"""

from __future__ import annotations

import argparse
import importlib
import sys

MODULES = ("table1", "timing", "throughput", "dnssec", "tcp_tls",
           "latency", "quic", "attack", "zone_growth", "resilience",
           "failover", "cachepolicy")


def _section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(
        prog="repro.experiments.report",
        description="Run every experiment module's main(), in "
                    "EXPERIMENTS.md order.").parse_args(argv)
    for name in MODULES:
        _section(name)
        module = importlib.import_module(f"repro.experiments.{name}")
        # attack.main parses a command line; [] keeps it off this one's.
        status = module.main([]) if name == "attack" else module.main()
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
