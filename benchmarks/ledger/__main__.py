"""``python -m benchmarks.ledger`` and, for the benchmark driver,
``python3 benchmarks/ledger/__main__.py`` from the repository root."""

import sys
from pathlib import Path

if not __package__:
    # Run as a file: put the repository root (for ``benchmarks``) and
    # ``src`` (for the program under test) on the path ourselves, in
    # place of this directory.
    _root = Path(__file__).resolve().parents[2]
    sys.path[:1] = [str(_root), str(_root / "src")]

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
