"""One-time zone harvesting (§2.3): cold-cache resolver + upstream capture.

"we send all unique queries in the original trace to a recursive server
with cold cache and allow it to query Internet to satisfy each query ...
We then capture all the DNS responses that authoritative servers
respond, recording the traffic at the upstream network interface of the
recursive server."

Offline, "the Internet" is any object with ``zones_by_addr`` and
``root_hints()`` (a :class:`~repro.workloads.internet.ModelInternet`):
each nameserver address becomes a simulated host running an
:class:`~repro.server.authoritative.AuthoritativeServer`, the recursive
server is the :class:`~repro.server.recursive.RecursiveResolver` every
experiment runs, and a :class:`~repro.netsim.capture.PacketCapture` on
its host is the tcpdump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.constants import DNS_PORT, Flag, Rcode
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.netsim import Simulator
from repro.netsim.capture import PacketCapture
from repro.server import AuthoritativeServer, RecursiveResolver
from repro.trace.record import Trace

RESOLVER_ADDR = "10.1.0.2"


@dataclass
class CapturedResponse:
    """One response seen at the recursive's upstream interface."""

    server_addr: str
    question: Question
    message: Message


@dataclass
class HarvestCapture:
    """Everything one harvesting pass collected."""

    responses: list[CapturedResponse] = field(default_factory=list)
    failed_queries: list[tuple[str, int]] = field(default_factory=list)
    queries_sent: int = 0


def harvest(internet, queries: list[tuple[str, int]],
            dnssec: bool = False) -> HarvestCapture:
    """Resolve each unique query once from a cold cache against the
    servers of *internet* (``zones_by_addr`` + ``root_hints()``),
    capturing every upstream response; *dnssec* sets DO upstream."""
    sim = Simulator()
    for index, (addr, zones) in enumerate(internet.zones_by_addr.items()):
        AuthoritativeServer(sim.add_host(f"ns{index}", [addr]), zones=zones)
    host = sim.add_host("recursive", [RESOLVER_ADDR])
    resolver = RecursiveResolver(host, internet.root_hints())
    resolver.dnssec_ok = dnssec
    # tcpdump at the upstream interface: datagrams from port 53.  A
    # truncated exchange's TCP retry arrives as segments, not messages.
    tap = PacketCapture(host, ingress=True,
                        match=lambda p: p.proto == "udp"
                        and p.sport == DNS_PORT)
    capture = HarvestCapture()
    seen: set[tuple[str, int]] = set()
    for qname_text, qtype in queries:
        key = (qname_text.lower(), int(qtype))
        if key in seen:
            continue
        seen.add(key)
        resolver.cache.flush()
        results: list[Message] = []
        resolver.resolve(Name.from_text(qname_text), int(qtype),
                         results.append)
        sim.run_until_idle()
        pairs = [(packet, Message.from_wire(packet.payload))
                 for packet in tap.packets]
        tap.clear()
        whole = [pair for pair in pairs if not pair[1].flags & Flag.TC]
        capture.responses.extend(responses_from_packet_capture(whole))
        if len(whole) < len(pairs) or results[0].rcode == Rcode.SERVFAIL:
            capture.failed_queries.append(key)
    capture.queries_sent = resolver.upstream_queries
    return capture


def harvest_trace(internet, trace: Trace,
                  dnssec: bool = False) -> HarvestCapture:
    """Harvest every unique (qname, qtype) in *trace*."""
    return harvest(internet, [(r.qname, r.qtype) for r in trace],
                   dnssec=dnssec)


def responses_from_packet_capture(pairs) -> list[CapturedResponse]:
    """Adapt a real packet capture — ``(CapturedPacket, Message)`` pairs
    from :func:`repro.trace.convert.responses_from_pcap` — into the
    constructor's input.  This is the paper's literal §2.3 procedure:
    tcpdump at the recursive's upstream interface, then reverse the
    pcap.  The responding server's address is the packet source."""
    out = []
    for packet, message in pairs:
        if message.question is None:
            continue
        out.append(CapturedResponse(server_addr=packet.src,
                                    question=message.question,
                                    message=message))
    return out
