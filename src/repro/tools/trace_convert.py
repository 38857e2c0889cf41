"""ldp-trace-convert: convert between the three trace formats.

Usage::

    python -m repro.tools.trace_convert input.pcap output.txt
    python -m repro.tools.trace_convert input.txt output.ldpb
    python -m repro.tools.trace_convert big.ldpb copy.ldpb --jobs 4

This is the input engine of Figure 3: network trace -> editable text ->
fast binary stream.  Built on
:class:`repro.trace.pipeline.TracePipeline`: LDPB-to-LDPB conversion
streams chunk-parallel across ``--jobs`` workers without materializing
the trace (see docs/TRACES.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.tools.traceargs import (open_pipeline, pipeline_parent,
                                   report_skipped)
from repro.trace.pipeline import TracePipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldp-trace-convert",
        parents=[pipeline_parent()],
        description="Convert DNS traces between pcap, column text, and "
                    "the LDPB binary stream (format by extension).")
    parser.add_argument("input", help="input trace (.pcap/.txt/.ldpb)")
    parser.add_argument("output", help="output trace (.pcap/.txt/.ldpb)")
    parser.add_argument("--sort", action="store_true",
                        help="sort records by timestamp first")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    skipped: list = []
    pipe = open_pipeline(args.input, args, skipped)
    if args.sort:
        # Sorting is inherently global, so this path materializes.
        trace = pipe.collect().sorted()
        TracePipeline.from_trace(trace).to_file(args.output)
        count = len(trace)
    else:
        result = pipe.to_file(args.output)
        count = result.records_out
    print(f"{args.input} -> {args.output}: {count} records")
    report_skipped(skipped)
    return 0


if __name__ == "__main__":
    sys.exit(main())
