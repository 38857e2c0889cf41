"""Snapshot export: canonical JSON for run reports.

The canonical form is what the reproducibility guarantee is stated
over: same seed + same config => byte-identical ``to_canonical_json``
output across processes.  Keys are sorted, separators are fixed, and
floats rely on Python's deterministic ``repr``; no timestamps or
environment data are embedded.
"""

from __future__ import annotations

import json


def to_canonical_json(snapshot: dict, indent: int | None = None) -> str:
    """Serialize a snapshot dict deterministically."""
    if indent is not None:
        return json.dumps(snapshot, sort_keys=True, indent=indent)
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
