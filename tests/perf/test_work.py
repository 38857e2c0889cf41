"""The work a replay does per record is a golden.

Each of the performance ledger's four simulated workloads
(``benchmarks/ledger/workloads.py``) replays about one second of its
trace at seed 11 under ``sys.setprofile``, and four counts are taken
over the one timed call:

* Python calls to functions under ``src/repro`` (``call`` events,
  generator resumptions included), leaving out comprehension and
  generator-expression code objects, which Python 3.12 inlines
  (PEP 709);
* C calls (``c_call`` events), all of them;
* scheduler events processed;
* the scheduler heap's greatest depth.

They are compared with ``tests/perf/work.json`` for equality.  C calls
are compared only on the minor Python version they were recorded on
(CPython decides per version which calls raise the event); elsewhere
they are printed.  A change that lowers a count records the file again
in the same change (``PYTHONPATH=src python -m tests.perf.test_work``
from the repository root); one that raises a count says by how much
and why.
"""

import gc
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from benchmarks.ledger.workloads import (BrootTcp, BrootUdp, Fig9Hot,
                                         Rec17Bounded)
from repro.dns.rdata import _packed, _v6_text
from repro.trace.record import _query_tail

GOLDEN = Path(__file__).with_name("work.json")
SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro")
SEED = 11
# Ledger scales giving about one second of trace: B-Root is 15 s at
# scale 1 (about 2,000 records here), the recursive trace 40 s (about
# 450 stub queries); fig9_hot's trace is 60,000 copies of one query
# read at the generator's rate, and a fifteenth of it (4,000) keeps
# the four runs together within a few seconds.
WORKLOADS = {"fig9_hot": (Fig9Hot, 1 / 15), "broot_udp": (BrootUdp, 1 / 15),
             "broot_tcp": (BrootTcp, 1 / 15),
             "rec17_bounded": (Rec17Bounded, 1 / 40)}
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def count(name: str) -> dict:
    """One profiled run of workload *name*: its counts.  An unprofiled
    run first imports whatever the run imports lazily, and the
    process-wide memos are emptied, so the counts do not depend on what
    the process ran before."""
    cls, scale = WORKLOADS[name]
    workload = cls()
    workload.run(workload.world(workload.inputs(SEED, scale)))
    for memo in (_query_tail, _packed, _v6_text):
        memo.cache_clear()
    world = workload.world(workload.inputs(SEED, scale))
    gc.collect()
    scheduler = world.program.sim.scheduler
    heap = scheduler._heap
    pushers = {type(scheduler).at.__code__, type(scheduler).after.__code__}
    calls: dict = defaultdict(int)
    c_calls = [0]
    peak = [len(heap)]

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code] += 1
            if code in pushers and len(heap) >= peak[0]:
                peak[0] = len(heap) + 1
        elif event == "c_call":
            c_calls[0] += 1

    events = scheduler.events_processed
    # No collection runs inside the count: a collector callback that
    # another library registers (hypothesis times each one) would count.
    gc.disable()
    sys.setprofile(hook)
    try:
        raw = workload.run(world)
    finally:
        sys.setprofile(None)
        gc.enable()
    outcome = workload.account(world, raw)
    assert outcome.failed == 0, (name, outcome.failed)
    return {
        "records": world.records,
        "python_calls": sum(
            n for code, n in calls.items()
            if code.co_filename.startswith(SRC)
            and code.co_name not in INLINED),
        "c_calls": {PYTHON: c_calls[0]},
        "events": scheduler.events_processed - events,
        "peak_heap": peak[0],
    }


def per_record(counts: dict) -> str:
    records = counts["records"]
    return (f"{counts['python_calls'] / records:.2f} Python calls, "
            f"{sum(counts['c_calls'].values()) / records:.2f} C calls, "
            f"{counts['events'] / records:.3f} events per record, "
            f"peak heap {counts['peak_heap']}")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_per_record_matches_the_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    counted = count(name)
    print(f"{name}: {per_record(counted)}")
    if PYTHON not in golden["c_calls"]:
        # Not gated: recorded on another minor version.
        counted["c_calls"] = golden["c_calls"]
    assert counted == golden, (
        f"{name}: the work per record moved; counted {per_record(counted)}"
        f", golden {per_record(golden)} ({counted} != {golden})")


if __name__ == "__main__":
    recorded = {name: count(name) for name in WORKLOADS}
    for name, counts in recorded.items():
        print(f"{name}: {per_record(counts)}")
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
