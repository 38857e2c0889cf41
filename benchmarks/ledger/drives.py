"""Isolated drives ("D" metrics): one public function timed over the
workload's own generated inputs, outside any world.

Each drive imports its target inside its own body, so that a later
refactor that moves a public name costs that one number (reported as
null with a warning) and not the run.  A pass makes ``MIN_CALLS`` calls
or runs for the budget, whichever ends first; the value is the median
of ``PASSES`` passes.
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import time

MIN_CALLS = 20_000
PASSES = 3
BLOCK = 500
SAMPLE = 5_000                  # records a drive prepares; cycled over
CLIENT = ("10.3.0.1", 40_000)


def per_call_us(function, items: list, budget: float) -> float:
    """Microseconds per ``function(item)``, cycling over *items*."""
    samples = []
    for _ in range(PASSES):
        calls = 0
        start = time.perf_counter()
        while calls < MIN_CALLS:
            at = calls % len(items)
            for item in items[at:at + BLOCK]:
                function(item)
                calls += 1
            if time.perf_counter() - start >= budget:
                break
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def _queries(inputs) -> list[bytes]:
    return [record.to_message().to_wire()
            for record in inputs.trace.records[:SAMPLE]]


def encode_query_us(workload, inputs, budget):
    return per_call_us(lambda r: r.to_message().to_wire(),
                       inputs.trace.records, budget)


def decode_response_us(workload, inputs, budget):
    from repro import DnsResponder
    from repro.dns.message import Message
    responder = DnsResponder(zones=inputs.zones)
    replies = [responder.reply_wire("udp", wire, *CLIENT)
               for wire in _queries(inputs)]
    return per_call_us(Message.from_wire, replies, budget)


def name_parse_us(workload, inputs, budget):
    from repro.dns.name import Name
    return per_call_us(Name.from_text,
                       [r.qname for r in inputs.trace.records], budget)


def zone_lookup_us(workload, inputs, budget):
    from repro.dns.name import Name
    zone = inputs.zones[0]
    questions = [(Name.from_text(r.qname), r.qtype, r.do)
                 for r in inputs.trace.records[:SAMPLE]]
    return per_call_us(lambda q: zone.lookup(q[0], q[1], dnssec=q[2]),
                       questions, budget)


def responder_miss_us(workload, inputs, budget):
    from repro import DnsResponder
    responder = DnsResponder(zones=inputs.zones, answer_cache=False)
    return per_call_us(lambda w: responder.reply_wire("udp", w, *CLIENT),
                       _queries(inputs), budget)


def responder_hit_us(workload, inputs, budget):
    from repro import DnsResponder
    responder = DnsResponder(zones=inputs.zones)
    queries = _queries(inputs)
    for wire in queries:                # first pass fills the cache
        responder.reply_wire("udp", wire, *CLIENT)
    return per_call_us(lambda w: responder.reply_wire("udp", w, *CLIENT),
                       queries, budget)


def clock_event_us(workload, inputs, budget):
    """Schedule and fire one no-op event per record, due when the
    workload's records fall due."""
    from repro.netsim.clock import Scheduler
    times = workload.event_times(inputs)[:MIN_CALLS]

    def schedule_and_run():
        scheduler = Scheduler()
        for when in times:
            scheduler.after(when, _noop)
        scheduler.run()

    return _per_item_us(schedule_and_run, len(times))


def _noop() -> None:
    pass


def cache_lookup_us(workload, inputs, budget):
    """get_rrset, and put_rrset on a miss, over the stub-query name
    stream on a warmed 1024-entry cache."""
    from repro import CacheConfig
    from repro.dns.constants import RRType
    from repro.dns.name import Name
    from repro.dns.rdata import A
    from repro.dns.rrset import RRset
    from repro.server.cache import DnsCache
    cache = DnsCache(CacheConfig(max_entries=1024))
    names = [Name.from_text(r.qname)
             for r in inputs.trace.records[:SAMPLE]]
    address = [A("192.0.2.1")]

    def lookup(name):
        if cache.get_rrset(name, RRType.A, 0.0) is None:
            cache.put_rrset(RRset(name, RRType.A, 300, address), 0.0)

    for name in names:
        lookup(name)
    return per_call_us(lookup, names, budget)


def server_rtt_us(workload, inputs, budget):
    """Bare UDP ping-pong of pre-encoded queries against a
    LiveDnsServer: one outstanding, no LiveQuerier."""
    from repro import DnsResponder
    from repro.replay.backends.live import LiveDnsServer
    queries = _queries(inputs)[:1000]

    async def pingpong() -> float:
        loop = asyncio.get_running_loop()
        server = await LiveDnsServer(DnsResponder(zones=inputs.zones)).start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.connect((server.host, server.port))
        samples = []
        try:
            # The first, untimed pass fills the answer cache, so the
            # timed ones are sockets and event loop, not zone lookups.
            for timed in (False, *[True] * PASSES):
                calls = 0
                start = time.perf_counter()
                for wire in queries:
                    await loop.sock_sendall(sock, wire)
                    await loop.sock_recv(sock, 65535)
                    calls += 1
                    if calls % BLOCK == 0 \
                            and time.perf_counter() - start >= budget:
                        break
                if timed:
                    samples.append(
                        (time.perf_counter() - start) / calls * 1e6)
        finally:
            sock.close()
            await server.aclose()
        return statistics.median(samples)

    return asyncio.run(pingpong())


def codec_encode_us(workload, inputs, budget):
    from repro.trace.binaryform import trace_to_binary
    records = inputs.trace.records[:SAMPLE]
    return _per_item_us(lambda: trace_to_binary(records), len(records))


def codec_decode_us(workload, inputs, budget):
    from repro.trace.binaryform import binary_to_trace, trace_to_binary
    records = inputs.trace.records[:SAMPLE]
    blob = trace_to_binary(records)
    return _per_item_us(lambda: binary_to_trace(blob), len(records))


def _per_item_us(function, items: int) -> float:
    """Microseconds per item of a function that handles *items* a call."""
    samples = []
    for _ in range(PASSES):
        start = time.perf_counter()
        function()
        samples.append((time.perf_counter() - start) / items * 1e6)
    return statistics.median(samples)


def calibration_loop(iterations: int) -> None:
    """The pure-Python loop of ``test_bench_perf._calibrate``."""
    x = 0
    for i in range(iterations):
        x += i & 7


def calibration_mops(iterations: int = 2_000_000) -> float:
    """Interpreter speed probe, for reading a run from another host;
    never gated."""
    start = time.perf_counter()
    calibration_loop(iterations)
    return iterations / (time.perf_counter() - start) / 1e6


DRIVES = {
    "dns.message.encode_query_us": encode_query_us,
    "dns.message.decode_response_us": decode_response_us,
    "dns.name.parse_us": name_parse_us,
    "dns.zone.lookup_us": zone_lookup_us,
    "server.responder.miss_us": responder_miss_us,
    "server.responder.hit_us": responder_hit_us,
    "netsim.clock.event_us": clock_event_us,
    "server.cache.lookup_us": cache_lookup_us,
    "replay.live.server_rtt_us": server_rtt_us,
    "trace.codec.encode_us": codec_encode_us,
    "trace.codec.decode_us": codec_decode_us,
}
