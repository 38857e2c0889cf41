"""Run reports: declared counters, their collector, canonical JSON.

**Declared counters.**  A component that counts keeps each count in one
plain attribute and declares it once, next to the class::

    class Querier:
        COUNTERS = {"sent": "replay.queries_sent",
                    "retransmits": "replay.retransmits", ...}

``COUNTERS`` maps attribute (or property) -> dotted metric name; a name
wrapped in :class:`volatile` is left out of default snapshots.  The
declaration is the only list of those names: ``__init__`` zeroes it
(:func:`zero_counters`), :func:`counter_state`/:func:`restore_counters`
carry it through a checkpoint, and :func:`collect` sums it into a
report — over a fixed tuple of declaring classes, so every declared
counter is in every report, zero when idle, whatever the run's
configuration or backend.  A component that owns another counting
component names the attribute in ``COUNTING_PARTS`` (a responder its
``answer_cache``, a resolver its ``cache``) and :func:`collect` follows
it, so a run hands over its top-level objects only.
What only an observed run records is declared the same way, on
:class:`~repro.obs.observer.Observer`, and read with the same
:func:`collect`.

**Canonical JSON** is what the reproducibility guarantee is stated
over: same seed + same config => byte-identical ``to_canonical_json``
output across processes.  Keys are sorted, separators are fixed, and
floats rely on Python's deterministic ``repr``; no timestamps or
environment data are embedded.
"""

from __future__ import annotations

import json


class volatile(str):
    """A declared metric name reported only with
    ``include_volatile=True``: an implementation detail (answer-cache
    hits) or a wall-clock fact (socket errors) that legitimately differs
    between runs whose default snapshots must be byte-identical."""

    __slots__ = ()


def collect(classes, objects, include_volatile: bool = False) -> dict:
    """Flat ``{metric name: total}`` of every counter *classes* declare,
    summed over *objects* and the ``COUNTING_PARTS`` each owns (None
    and strangers are skipped).  The key set depends on *classes*
    alone."""
    totals = {name: 0 for cls in classes
              for name in cls.COUNTERS.values()
              if include_volatile or not isinstance(name, volatile)}
    pending = list(objects)
    for obj in pending:             # grows as owners name their parts
        pending += [getattr(obj, part)
                    for part in getattr(obj, "COUNTING_PARTS", ())]
        for attr, name in getattr(obj, "COUNTERS", {}).items():
            if name in totals:
                totals[name] += getattr(obj, attr)
    return totals


def counter_state(obj) -> dict:
    """*obj*'s declared counters by attribute, as a fresh dict
    (checkpoint payload, and the read-only views components offer:
    ``resolver.stats``, ``cache.counters()``)."""
    return {attr: getattr(obj, attr) for attr in obj.COUNTERS}


def restore_counters(obj, state: dict) -> None:
    """Inverse of :func:`counter_state`; every declared counter must be
    in *state*.  A row backed by a property (``Network.leaks``) is
    derived from state its owner keeps, so it is read, never set."""
    for attr in obj.COUNTERS:
        if not hasattr(type(obj), attr):
            setattr(obj, attr, state[attr])


def zero_counters(obj) -> None:
    """Start every counter *obj* declares at zero (``__init__``)."""
    restore_counters(obj, dict.fromkeys(obj.COUNTERS, 0))


def to_canonical_json(snapshot: dict, indent: int | None = None) -> str:
    """Serialize a snapshot dict deterministically."""
    if indent is not None:
        return json.dumps(snapshot, sort_keys=True, indent=indent)
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
