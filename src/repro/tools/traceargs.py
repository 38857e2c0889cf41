"""Shared command-line surface for the trace tools.

``ldp-trace-mutate``, ``ldp-trace-convert``, and ``ldp-trace-stats``
are all built on :class:`repro.trace.pipeline.TracePipeline`, so they
share one argparse parent and the flags behave identically everywhere:

* ``--jobs N`` — worker processes for chunk-parallel execution over
  LDPB input (text/pcap sources stream serially regardless);
* ``--chunk-records N`` — records per chunk fanned to a worker (the
  output is byte-identical for any value — it is purely a
  throughput/memory knob);
* ``--skip-malformed`` — drop malformed input records instead of
  aborting; a summary reports what was lost and where;
* ``--seed N`` — seed for the ops with randomized selection.
"""

from __future__ import annotations

import argparse
import sys

from repro.trace.pipeline import TracePipeline


def pipeline_parent() -> argparse.ArgumentParser:
    """The argparse parent carrying the shared pipeline flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("pipeline execution")
    group.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes for chunk-parallel LDPB "
                            "processing (default 1 = in-process)")
    group.add_argument("--chunk-records", type=int, default=4096,
                       metavar="N",
                       help="records per parallel chunk (default 4096; "
                            "output is identical for any value)")
    group.add_argument("--skip-malformed", action="store_true",
                       help="drop malformed input records instead of "
                            "aborting; a summary reports the count")
    group.add_argument("--seed", type=int, default=0,
                       help="seed for randomized selections "
                            "(default 0)")
    return parent


def open_pipeline(path: str, args: argparse.Namespace,
                  skipped: list) -> TracePipeline:
    """Open *path* with the shared flags applied."""
    return TracePipeline.from_file(
        path, jobs=args.jobs, chunk_records=args.chunk_records,
        skip_malformed=args.skip_malformed, skipped=skipped)


def report_skipped(skipped: list) -> None:
    """Shared stderr summary for --skip-malformed runs."""
    if skipped:
        print(f"skipped {len(skipped)} malformed record(s); first: "
              f"{skipped[0]}", file=sys.stderr)
