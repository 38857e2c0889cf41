"""ldp-zone-build: rebuild zone files from a query trace (§2.3).

Usage::

    python -m repro.tools.zone_build trace.txt zones/ --tlds 4 --seed 7

Resolves each unique query in the trace once from a cold cache against
the model Internet (the offline stand-in for the real one — see
DESIGN.md §2), reverses the responses captured upstream of the resolver
into per-zone master files, and writes one ``<origin>.zone`` file per
zone into the output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.dns.zonefile import save_zone_file
from repro.trace.pipeline import TracePipeline
from repro.workloads.internet import ModelInternet
from repro.zonegen import construct_zones, harvest_trace, make_prober


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldp-zone-build",
        description="Rebuild the DNS zones a trace touches into master "
                    "files (one-time harvest against the model "
                    "Internet).")
    parser.add_argument("trace", help="query trace (.pcap/.txt/.ldpb)")
    parser.add_argument("outdir", help="directory for .zone files")
    parser.add_argument("--tlds", type=int, default=8,
                        help="model-Internet TLD count (default 8)")
    parser.add_argument("--slds", type=int, default=12,
                        help="SLDs per TLD (default 12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="model-Internet seed")
    parser.add_argument("--dnssec", action="store_true",
                        help="sign the model hierarchy before "
                             "harvesting")
    return parser


def zone_filename(origin) -> str:
    label = origin.to_text().strip(".") or "root"
    return f"{label}.zone"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace = TracePipeline.from_file(args.trace).collect()
    internet = ModelInternet(tlds=args.tlds, slds_per_tld=args.slds,
                             seed=args.seed)
    if args.dnssec:
        internet.sign_all()
    capture = harvest_trace(internet, trace, dnssec=args.dnssec)
    result = construct_zones(capture.responses,
                             prober=make_prober(internet),
                             root_hints=internet.root_hints())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for zone in result.zones:
        save_zone_file(zone, str(outdir / zone_filename(zone.origin)))
    print(f"harvested {capture.queries_sent} iterative queries "
          f"({len(capture.failed_queries)} failed); wrote "
          f"{len(result.zones)} zone files to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
