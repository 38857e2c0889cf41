"""Fold a cProfile run into per-layer shares of self time.

``tottime`` is summed by source file into the layers of
:mod:`benchmarks.ledger.catalogue`.  A built-in or stdlib function has
no layer of its own: its self time is charged to the functions that
called it, through the pstats caller edges, until a file with a layer
is reached.  The selector's idle wait is reported apart and left out of
the denominator, so a paced workload's shares describe its busy time.
"""

from __future__ import annotations

import sysconfig
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.ledger.catalogue import (ALL_LAYERS, LEDGER, SOCKET_MODULES,
                                         SRC, layer_of)

_STDLIB = Path(sysconfig.get_paths()["stdlib"])
IDLE = "idle"


def _relative(filename: str, base: Path) -> str | None:
    try:
        return Path(filename).relative_to(base).as_posix()
    except ValueError:
        return None


def owner(func: tuple, src: Path = SRC) -> str | None:
    """The layer that owns *func*'s self time, ``IDLE`` for the
    selector wait, or None when its callers must be charged."""
    filename, _, name = func
    if filename == "~":
        return IDLE if "select.epoll" in name and "poll" in name else None
    rel = _relative(filename, src)
    if rel is not None:
        return layer_of(rel)
    if _relative(filename, LEDGER) is not None:
        return "other"
    rel = _relative(filename, _STDLIB)
    if rel is not None and rel.startswith(SOCKET_MODULES):
        return "sockets"
    return None


@dataclass
class Fold:
    shares: dict[str, float]            # layer -> share of busy self time
    idle_share: float                   # idle wait / all self time
    unattributed_share: float           # charged to no layer (inside other)
    other_files: list[str] = field(default_factory=list)


def fold(stats: dict, src: Path = SRC) -> Fold:
    """*stats* is ``pstats.Stats(profile).stats``."""
    memo: dict[tuple, dict[str, float]] = {}

    def charge(func: tuple, stack: frozenset) -> dict[str, float]:
        """How one second of *func*'s self time splits over layers."""
        if func in memo:
            return memo[func]
        layer = owner(func, src)
        if layer is not None:
            result = {layer: 1.0}
        elif func in stack or func not in stats:
            return {}
        else:
            callers = stats[func][4]
            total = sum(edge[2] for edge in callers.values())
            result = {}
            for caller, edge in callers.items():
                if total <= 0 or edge[2] <= 0:
                    continue
                for name, part in charge(caller, stack | {func}).items():
                    result[name] = result.get(name, 0.0) \
                        + part * edge[2] / total
        memo[func] = result
        return result

    seconds = dict.fromkeys(ALL_LAYERS, 0.0)
    idle = unattributed = 0.0
    other_files: dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        split = charge(func, frozenset())
        for name, part in split.items():
            if name == IDLE:
                idle += tottime * part
            else:
                seconds[name] += tottime * part
        unattributed += tottime * (1.0 - sum(split.values()))
        rel = _relative(func[0], src)
        if rel is not None and layer_of(rel) == "other":
            other_files[rel] = other_files.get(rel, 0.0) + tottime
    seconds["other"] += unattributed
    busy = sum(seconds.values())
    everything = busy + idle
    return Fold(
        shares={name: (value / busy if busy else 0.0)
                for name, value in seconds.items()},
        idle_share=idle / everything if everything else 0.0,
        unattributed_share=unattributed / busy if busy else 0.0,
        other_files=sorted(other_files, key=other_files.get, reverse=True))


def calls(stats: dict, function) -> int:
    """Number of calls the profile saw of a public function."""
    code = getattr(function, "__func__", function).__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0
