"""The simulated network fabric: links, routing, and packet delivery.

Topology model matches the paper's testbeds (Figs 5 and 12): every host
hangs off the fabric by one uplink with a configurable one-way delay and
bandwidth; end-to-end latency is the sum of both uplink delays plus
serialization.  Varying a client's uplink delay is how the §5.2
experiments sweep client-server RTT.

Packets addressed to an IP no host owns are *dropped and recorded* — the
analogue of LDplayer's requirement that replayed traffic must not leak to
the real Internet (§2.1): in the testbed such packets are non-routable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netsim.clock import Scheduler
from repro.netsim.packet import OVERHEAD, Packet
from repro.obs.report import zero_counters


@dataclass
class LinkParams:
    """One host uplink."""

    delay: float = 0.0005          # one-way propagation, seconds (<1 ms LAN)
    bandwidth_bps: float = 1e9     # 1 Gb/s as in the paper's testbed
    loss: float = 0.0              # independent per-packet loss fraction


class Link:
    """Stateful uplink: *free_at* is when its egress finishes
    serializing what was already sent, so back-to-back packets queue.
    *params* is replaced, never edited (:class:`FaultInjector` swaps it
    mid-run), so hold the Link and read ``link.params`` per packet."""

    __slots__ = ("params", "free_at")

    def __init__(self, params: LinkParams):
        self.params = params
        self.free_at = 0.0


class Network:
    """Routes packets between attached hosts."""

    # Declared counters (repro.obs.report): attribute -> report name.
    COUNTERS = {
        "delivered": "transport.wire.delivered",
        "dropped": "transport.wire.dropped",
        "leaks": "transport.wire.leaked",
    }

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self._hosts_by_addr: dict[str, "Host"] = {}
        self._links: dict[str, Link] = {}  # host name -> uplink
        self.leaked: list[Packet] = []
        zero_counters(self)
        self._loss_rng = random.Random(0)

    @property
    def leaks(self) -> int:
        return len(self.leaked)

    # -- wiring -----------------------------------------------------------

    def attach(self, host: "Host", link: LinkParams | None = None) -> None:
        self.set_link(host, link or LinkParams())
        for addr in host.addrs:
            self.register_address(addr, host)
        host.network = self

    def register_address(self, addr: str, host: "Host") -> None:
        existing = self._hosts_by_addr.get(addr)
        if existing is not None and existing is not host:
            raise ValueError(f"address {addr} already owned by "
                             f"{existing.name}")
        self._hosts_by_addr[addr] = host

    def unregister_address(self, addr: str) -> None:
        self._hosts_by_addr.pop(addr, None)

    def host_for(self, addr: str) -> "Host | None":
        return self._hosts_by_addr.get(addr)

    def set_link(self, host: "Host", link: LinkParams) -> None:
        host.link = self._links[host.name] = Link(link)

    def link_of(self, host: "Host") -> Link:
        return host.link

    def rtt_between(self, a: "Host", b: "Host") -> float:
        return 2 * (a.link.params.delay + b.link.params.delay)

    # -- transmission ---------------------------------------------------------

    def transmit(self, packet: Packet, sender: "Host") -> None:
        """Carry *packet* from *sender* to whichever host owns the
        destination address; drop-and-record if nobody does.

        One frame per packet on purpose: metering, loss, egress
        queueing and arrival are written out here, and every float
        expression keeps its order — arrival times are hashed into
        replay outcomes."""
        scheduler = self.scheduler
        now = scheduler.now
        size = OVERHEAD[packet.proto] + len(packet.payload)
        meter = sender.meter        # ResourceMeter.count_out
        second = int(now)
        meter.bytes_out[second] = meter.bytes_out.get(second, 0) + size
        meter.packets_out[second] = meter.packets_out.get(second, 0) + 1
        receiver = self._hosts_by_addr.get(packet.dst)
        if receiver is None:
            self.leaked.append(packet)
            return
        out_link = sender.link
        out = out_link.params
        into = receiver.link.params
        loss = 1 - (1 - out.loss) * (1 - into.loss)
        if loss > 0 and self._loss_rng.random() < loss:
            self.dropped += 1
            return
        done = out_link.free_at if out_link.free_at > now else now
        if out.bandwidth_bps > 0:
            done += size * 8 / out.bandwidth_bps
        out_link.free_at = done
        arrival = done + out.delay + into.delay
        obs = scheduler.obs
        if obs is not None:
            obs.wire_bytes += size
            obs.transit_time.record(arrival - now)
            obs.tracer.emit("wire.transmit", now, arrival,
                            detail=packet.proto)
        scheduler.at(arrival, receiver.receive, packet, size)
