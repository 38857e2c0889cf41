"""ldp-dig: query a set of zone files the way dig queries a server.

Usage::

    python -m repro.tools.dig zones/ www.dom000.com. A
    python -m repro.tools.dig zones/ dom000.com. MX --do --walk

Loads every ``.zone`` file in the directory into an in-process
authoritative engine and prints the response.  With ``--walk`` it
follows referrals across the loaded zones like a cold-cache iterative
resolver, printing each step — handy for checking rebuilt hierarchies
from ldp-zone-build.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.dns.constants import Flag, Rcode, RRType
from repro.dns.message import Edns, Message
from repro.dns.name import Name
from repro.dns.zone import Zone
from repro.dns.zonefile import load_zone_file
from repro.server.responder import DnsResponder


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldp-dig",
        description="Query loaded zone files like a DNS server would "
                    "answer.")
    parser.add_argument("zones", help="directory of .zone files")
    parser.add_argument("qname", help="query name")
    parser.add_argument("qtype", nargs="?", default="A",
                        help="query type (default A)")
    parser.add_argument("--do", action="store_true",
                        help="set the DNSSEC-OK bit")
    parser.add_argument("--walk", action="store_true",
                        help="follow referrals across loaded zones")
    return parser


def load_zones(directory: str) -> list[Zone]:
    paths = sorted(Path(directory).glob("*.zone"))
    return [load_zone_file(str(path)) for path in paths]


SRC = "127.0.0.1"


def make_query(qname: Name, qtype: int, do: bool) -> Message:
    return Message.make_query(qname, qtype,
                              edns=Edns(do=do) if do else None)


def answer_once(zones: list[Zone], qname: Name, qtype: int,
                do: bool) -> Message:
    # The transport-independent answering core needs no host/network.
    authority = DnsResponder(zones=zones, answer_cache=False)
    return authority.handle_query(make_query(qname, qtype, do), src=SRC)


def walk(zones: list[Zone], qname: Name, qtype: int, do: bool,
         out) -> Message:
    by_origin = {zone.origin: zone for zone in zones}
    zone = by_origin.get(Name.root())
    if zone is None:
        # Start at the shallowest zone enclosing the name.
        enclosing = [z for z in zones if qname.is_subdomain_of(z.origin)]
        if not enclosing:
            print(f"no loaded zone encloses {qname.to_text()}", file=out)
            return Message(rcode=Rcode.REFUSED)
        zone = min(enclosing, key=lambda z: len(z.origin.labels))
    query = make_query(qname, qtype, do)
    for depth in range(16):
        # Each level of the hierarchy is a server hosting only its zone.
        response = DnsResponder(zones=[zone], answer_cache=False) \
            .handle_query(query, src=SRC)
        referral = (not response.flags & Flag.AA and not response.answer
                    and response.authority
                    and response.authority[0].rtype == RRType.NS)
        status = ("delegation" if referral
                  else "success" if response.rcode == Rcode.NOERROR
                  else Rcode.to_text(response.rcode))
        print(f";; step {depth + 1}: zone {zone.origin.to_text()} -> "
              f"{status}", file=out)
        if not referral:
            return response
        cut = response.authority[0].name
        zone = by_origin.get(cut)
        if zone is None:
            print(f";; delegation to {cut.to_text()} but that zone is "
                  f"not loaded", file=out)
            return response
    raise RuntimeError("referral loop")


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    zones = load_zones(args.zones)
    if not zones:
        print(f"no .zone files in {args.zones}", file=sys.stderr)
        return 2
    qname = Name.from_text(args.qname)
    qtype = RRType.from_text(args.qtype)
    print(f";; {len(zones)} zones loaded", file=out)
    if args.walk:
        response = walk(zones, qname, qtype, args.do, out)
    else:
        response = answer_once(zones, qname, qtype, args.do)
    print(response.to_text(), file=out)
    return 0 if response.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN) else 1


if __name__ == "__main__":
    sys.exit(main())
