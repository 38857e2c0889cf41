"""Lets ``python -m pytest benchmarks/ledger -q`` find the program under
test without ``PYTHONPATH=src``."""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
