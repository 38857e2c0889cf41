"""The live asyncio backend: real loopback sockets behind the engine API.

Four areas the sim cannot cover: TCP byte-stream reassembly on a real
socket (split/coalesced segments, pipelined queries), the UDP+TCP
same-port bind-retry dance, graceful shutdown draining in-flight work,
and the raw UDP endpoint's contracts (drain per wake-up, errors, EAGAIN,
close).  Plus the config-surface rejections that keep sim-only features
(faults, supervision) from silently no-opping live.
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dns.constants import Rcode
from repro.dns.message import Message
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.replay import ReplayConfig, ResilienceConfig
from repro.replay.backends import (LiveBackend, LiveDnsServer,
                                   LiveQuerier, LiveReplayConfig, get_backend)
from repro.replay.backends import live as live_module
from repro.server.overload import AdmissionConfig, OverloadConfig
from repro.server.responder import DnsResponder
from repro.trace.record import QueryRecord, Trace

from tests.server.helpers import make_example_zone


def query_wire(qname: str, msg_id: int, proto: str = "tcp") -> bytes:
    record = QueryRecord(time=0.0, src="127.0.0.1", qname=qname,
                         proto=proto, msg_id=msg_id)
    return record.to_message().to_wire()


def make_server() -> LiveDnsServer:
    return LiveDnsServer(DnsResponder(zones=[make_example_zone()]))


# -- TCP framing over real sockets ------------------------------------------


async def _collect_responses(reader, count: int) -> list[Message]:
    wires: list[bytes] = []
    framer = LengthPrefixFramer(wires.append)
    while len(wires) < count:
        data = await asyncio.wait_for(reader.read(65536), 5.0)
        assert data, "connection closed before all responses arrived"
        framer.feed(data)
    return [Message.from_wire(w) for w in wires]


def test_tcp_pipelined_and_split_segments():
    """Two queries coalesced into one segment, then one dribbled in
    3-byte segments (splitting the length prefix itself), all on one
    connection: three answers, ids matched, no desync."""
    async def go():
        server = await make_server().start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Pipelined: two frames in a single write/segment.
            writer.write(frame_message(query_wire("www.example.com.", 7))
                         + frame_message(query_wire("mail.example.com.",
                                                    8)))
            await writer.drain()
            first = await _collect_responses(reader, 2)
            # Split: one frame trickled 3 bytes at a time.
            blob = frame_message(query_wire("www.example.com.", 9))
            for i in range(0, len(blob), 3):
                writer.write(blob[i:i + 3])
                await writer.drain()
                await asyncio.sleep(0)
            second = await _collect_responses(reader, 1)
            writer.close()
            return first + second
        finally:
            await server.aclose()

    messages = asyncio.run(go())
    assert sorted(m.msg_id for m in messages) == [7, 8, 9]
    for message in messages:
        assert message.rcode == 0
        assert message.answer


def test_tcp_single_connection_serves_many_queries():
    """Connection reuse: 20 pipelined queries on one connection are all
    answered in order of arrival, and the server counted one accept."""
    async def go():
        server = await make_server().start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"".join(
                frame_message(query_wire("www.example.com.", i + 1))
                for i in range(20)))
            await writer.drain()
            messages = await _collect_responses(reader, 20)
            writer.close()
            return messages, server.established
        finally:
            await server.aclose()

    messages, established = asyncio.run(go())
    assert [m.msg_id for m in messages] == list(range(1, 21))
    assert established == 1


# -- UDP+TCP same-port bind retry -------------------------------------------


def test_ephemeral_bind_retries_past_tcp_collision(monkeypatch):
    """When the UDP-chosen ephemeral port is busy on TCP, the pair is
    abandoned and a fresh port drawn."""
    real_start_server = asyncio.start_server
    calls = {"n": 0}

    async def flaky_start_server(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError(98, "address already in use")
        return await real_start_server(*args, **kwargs)

    monkeypatch.setattr(asyncio, "start_server", flaky_start_server)

    async def go():
        server = await make_server().start()
        port = server.port
        await server.aclose()
        return port

    assert asyncio.run(go()) is not None
    # More than two when a redrawn port really is taken on TCP.
    assert calls["n"] >= 2


def test_bind_attempts_exhausted_raises(monkeypatch):
    async def always_busy(*args, **kwargs):
        raise OSError(98, "address already in use")

    monkeypatch.setattr(asyncio, "start_server", always_busy)

    async def go():
        server = LiveDnsServer(DnsResponder(zones=[make_example_zone()]))
        with pytest.raises(OSError, match="after 8 attempts"):
            await server.start()

    asyncio.run(go())


def test_fixed_busy_port_raises_immediately():
    """A fixed port that is taken cannot be retried into existence."""
    async def go():
        blocker = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = blocker.sockets[0].getsockname()[1]
        try:
            server = LiveDnsServer(
                DnsResponder(zones=[make_example_zone()]), port=port)
            with pytest.raises(OSError):
                await server.start()
        finally:
            blocker.close()
            await blocker.wait_closed()

    asyncio.run(go())


# -- graceful shutdown -------------------------------------------------------


def test_shutdown_drains_queued_responses():
    """aclose() flushes replies already queued on open connections
    before tearing them down: a client that wrote a query and then
    lost the race with shutdown still reads its answer, then EOF."""
    async def go():
        server = await make_server().start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(frame_message(query_wire("www.example.com.", 3)))
        await writer.drain()
        await asyncio.sleep(0.05)        # let the server task answer
        await server.aclose(grace=2.0)
        data = await asyncio.wait_for(reader.read(), 5.0)  # to EOF
        writer.close()
        wires: list[bytes] = []
        LengthPrefixFramer(wires.append).feed(data)
        return wires, server.meter.established

    wires, established = asyncio.run(go())
    assert len(wires) == 1
    assert Message.from_wire(wires[0]).msg_id == 3
    assert established == 0


# -- the raw UDP endpoint -----------------------------------------------------


def count_wakeups(monkeypatch) -> list:
    """Patch the endpoint's reader to record, per wake-up, the owner of
    the endpoint woken (the server or a querier's host)."""
    woken = []
    real = live_module._UdpEndpoint._read_ready

    def counted(self):
        woken.append(self._owner)
        real(self)

    monkeypatch.setattr(live_module._UdpEndpoint, "_read_ready", counted)
    return woken


def udp_client(port: int) -> socket.socket:
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.connect(("127.0.0.1", port))
    return client


def loop_host(port: int):
    loop = asyncio.get_running_loop()
    host = live_module._LoopHost(
        "probe", live_module._LoopScheduler(loop, None), ("127.0.0.1", port))
    host.start()
    return host


def send_burst(client: socket.socket, count: int) -> None:
    """*count* queries, written without yielding to the event loop: the
    kernel holds them all before the server's reader can run."""
    for i in range(count):
        client.send(query_wire("www.example.com.", i + 1, "udp"))


def drain_replies(client: socket.socket) -> list[Message]:
    client.setblocking(False)
    replies = []
    with pytest.raises(BlockingIOError):
        while True:
            replies.append(Message.from_wire(client.recv(65535)))
    return replies


class SendBlocks:
    """A socket whose first *times* sends would block (``EAGAIN``)."""

    def __init__(self, sock: socket.socket, times: float):
        self._sock = sock
        self.left = times
        self.blocked = 0

    def _maybe_block(self) -> None:
        if self.left > 0:
            self.left -= 1
            self.blocked += 1
            raise BlockingIOError

    def send(self, data):
        self._maybe_block()
        return self._sock.send(data)

    def sendto(self, data, addr):
        self._maybe_block()
        return self._sock.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_udp_burst_is_answered_from_one_wakeup_in_arrival_order(
        monkeypatch):
    woken = count_wakeups(monkeypatch)

    async def go():
        server = await make_server().start()
        with udp_client(server.port) as client:
            try:
                send_burst(client, 24)
                await asyncio.sleep(0.05)
                return drain_replies(client), server
            finally:
                await server.aclose()

    replies, server = asyncio.run(go())
    assert [m.msg_id for m in replies] == list(range(1, 25))
    assert all(m.answer for m in replies)
    assert woken == [server]


def test_udp_drain_yields_to_the_loop_after_a_batch():
    """A peer in another process can keep the socket non-empty: one
    wake-up reads at most ``_DRAIN_BATCH`` datagrams, so a callback
    queued during the drain (the admission pop, a stream's wake-up)
    runs before the next batch."""
    batch = live_module._DRAIN_BATCH

    class Flood:
        """A socket that never runs dry."""
        reads = 0

        def recvfrom(self, size):
            self.reads += 1
            if self.reads > 10 * batch:     # the old drain never returns
                raise AssertionError("the drain never yielded")
            return b"query", ("127.0.0.1", 5353)

    async def go():
        loop = asyncio.get_running_loop()
        server = await make_server().start()
        endpoint = server._udp
        real, endpoint._sock = endpoint._sock, Flood()
        ran = []

        def on_datagram(data, src, sport):
            if endpoint._sock.reads == 1:
                loop.call_soon(lambda: ran.append(endpoint._sock.reads))
        endpoint.on_datagram = on_datagram
        try:
            endpoint._read_ready()
            returned_after = endpoint._sock.reads
            await asyncio.sleep(0)
        finally:
            endpoint._sock = real
            await server.aclose()
        return returned_after, ran

    assert asyncio.run(go()) == (batch, [batch])


def test_refused_datagram_on_connected_socket_counts_once():
    """The server's socket is gone: the kernel's ICMP refusal reaches
    the querier's connected socket as ``ConnectionRefusedError``, which
    is one socket error, not an exception or a stuck reader."""
    async def go():
        server = await make_server().start()
        host = loop_host(server.port)
        delivered = []
        sock = host.udp_socket()
        sock.on_datagram = lambda *args: delivered.append(args)
        await server.aclose()
        sock.sendto(query_wire("www.example.com.", 1, "udp"),
                    "127.0.0.1", server.port)
        await asyncio.sleep(0.1)
        errors = host.socket_errors
        await host.aclose()
        return errors, delivered

    errors, delivered = asyncio.run(go())
    assert errors == 1
    assert delivered == []


def test_send_that_would_block_is_flushed_later_in_order():
    """``EAGAIN`` on the server's reply, and again on the first flush:
    that reply and the ones behind it wait for the socket to be
    writable, then go out in order — nothing lost, nothing counted as
    an error."""
    async def go():
        loop = asyncio.get_running_loop()
        server = await make_server().start()
        endpoint = server._udp
        endpoint._sock = fake = SendBlocks(endpoint._sock, times=2)
        with udp_client(server.port) as client:
            try:
                send_burst(client, 8)
                await asyncio.sleep(0.05)
                writer_left = loop.remove_writer(endpoint._fd)
                return drain_replies(client), fake.blocked, writer_left, \
                    server.socket_errors
            finally:
                await server.aclose()

    replies, blocked, writer_left, errors = asyncio.run(go())
    assert [m.msg_id for m in replies] == list(range(1, 9))
    assert blocked == 2
    assert not writer_left          # flushed: the writer took itself off
    assert errors == 0


def test_retransmit_timer_after_close_neither_raises_nor_sends():
    async def go():
        loop = asyncio.get_running_loop()
        raised = []
        loop.set_exception_handler(lambda _loop, context:
                                   raised.append(context))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as listener:
            listener.bind(("127.0.0.1", 0))
            port = listener.getsockname()[1]
            host = loop_host(port)
            host.scheduler.after(0.01, host.udp_socket().sendto,
                                 b"late retransmit", "127.0.0.1", port)
            await host.aclose()
            await asyncio.sleep(0.05)
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.recv(512)
        return raised, host.socket_errors

    raised, errors = asyncio.run(go())
    assert raised == []
    assert errors == 0


@pytest.mark.parametrize("admission", [
    AdmissionConfig(limit=4), AdmissionConfig(limit=8, soft_limit=4)])
def test_burst_beyond_admission_limit_conserves_queries(monkeypatch,
                                                        admission):
    """A burst larger than the admission queue, all triaged in one
    wake-up: every query is answered, shed or refused, exactly once."""
    woken = count_wakeups(monkeypatch)
    sent = 20

    async def go():
        responder = DnsResponder(zones=[make_example_zone()],
                                 overload=OverloadConfig(admission=admission))
        server = await LiveDnsServer(responder).start()
        with udp_client(server.port) as client:
            try:
                send_burst(client, sent)
                await asyncio.sleep(0.1)
                return drain_replies(client), server
            finally:
                await server.aclose()

    replies, server = asyncio.run(go())
    responder = server.responder
    refused = [m for m in replies if m.rcode == Rcode.REFUSED]
    answered = [m for m in replies if m.rcode != Rcode.REFUSED]
    assert woken == [server]
    assert len(answered) == responder.admission_processed
    assert len(refused) == responder.admission_refused
    assert len(answered) + responder.admission_shed + len(refused) == sent
    assert responder.admission_shed + responder.admission_refused > 0
    assert not responder.admission_queue


def test_aclose_leaves_no_reader_or_writer_on_either_udp_fd():
    """Both endpoints closed with a send still queued (writer
    registered): neither fd is left on the loop."""
    async def go():
        loop = asyncio.get_running_loop()
        server = await make_server().start()
        host = loop_host(server.port)
        endpoints = [server._udp, host.udp_socket()]
        for endpoint in endpoints:
            endpoint._sock = SendBlocks(endpoint._sock, times=float("inf"))
            endpoint.sendto(b"stuck", "127.0.0.1", server.port)
            assert endpoint._backlog
        fds = [endpoint._fd for endpoint in endpoints]
        await host.aclose()
        await server.aclose()
        return [(loop.remove_reader(fd), loop.remove_writer(fd))
                for fd in fds]

    assert asyncio.run(go()) == [(False, False), (False, False)]


# -- the backend end-to-end ---------------------------------------------------


def live_config(**live_kwargs) -> ReplayConfig:
    live_kwargs.setdefault("speed", 50.0)
    live_kwargs.setdefault("run_deadline", 60.0)
    return ReplayConfig(backend="live", client_instances=1,
                        queriers_per_instance=2, observe=True,
                        live=LiveReplayConfig(**live_kwargs))


def mixed_trace(n: int = 40) -> Trace:
    return Trace([QueryRecord(time=i * 0.02, src=f"10.9.0.{i % 4}",
                              qname="www.example.com.",
                              proto="tcp" if i % 4 == 0 else "udp")
                  for i in range(n)])


def test_live_backend_replays_mixed_udp_tcp_trace():
    backend = LiveBackend([make_example_zone()], config=live_config())
    report = backend.run(mixed_trace())
    assert report.answered_fraction() == 1.0
    assert len(report.results) == 40
    # Sticky sources: the single TCP source reuses one connection.
    assert backend.server.established == 1
    metrics = report.metrics(include_volatile=True)
    assert metrics["replay"]["wall_qps"] > 0
    assert metrics["replay"]["unanswered_at_close"] == 0
    assert metrics["meta"]["sim_time"] > 0
    # Observed rows: the per-query ones are read off the results, the
    # server's are written by the responder through the Observer.
    replay, server = metrics["replay"], metrics["server"]
    assert replay["latency"]["count"] == replay["timing_error"]["count"] \
        == 40
    assert (replay["queries_tcp"], replay["queries_udp"]) == (10, 30)
    assert (server["queries_tcp"], server["queries_udp"]) == (10, 30)


def unique_trace(n: int, gap: float = 0.01) -> Trace:
    return Trace([QueryRecord(time=i * gap, src=f"10.9.0.{i % 4}",
                              qname=f"u{i}.example.com.", proto="udp")
                  for i in range(n)])


def test_query_log_and_results_share_one_clock():
    """The server process stamps its query log on the parent's replay
    epoch: each query is logged between its send and its answer."""
    backend = LiveBackend([make_example_zone()], config=live_config(),
                          log_queries=True)
    report = backend.run(unique_trace(40))
    logged = {str(entry.qname): entry.time
              for entry in backend.responder.query_log}
    assert len(logged) == len(report.results) == 40
    for result in report.results:
        assert result.send_time <= logged[result.record.qname] \
            <= result.response_time


def test_observed_run_reports_the_server_process_counts():
    """What the server process counts and records comes back whole:
    the observer's server rows and spans, the answer cache's hits, the
    responder's books."""
    backend = LiveBackend([make_example_zone()], config=live_config())
    report = backend.run(udp_trace(40, gap=0.005, sources=4))
    answered = sum(r.answered for r in report.results)
    metrics = report.metrics(include_volatile=True)
    server = metrics["server"]
    assert answered == 40
    assert server["queries"] == server["responses_sent"] == answered
    assert server["queries_udp"] == server["view_selections"] == answered
    assert server["view_misses"] == 0
    # Every query is one question from 127.0.0.1: one miss, then hits.
    assert (server["answer_cache_misses"], server["answer_cache_hits"]) \
        == (1, answered - 1)
    assert metrics["trace"]["kinds"]["server.handle"] == answered
    assert metrics["trace"]["kinds"]["querier.send"] == 40
    meter = backend.host.meter
    assert sum(meter.packets_in.values()) == answered
    assert meter.memory > 0 and len(meter.samples) == 1


def test_second_run_forks_again_from_this_process_state():
    """Counters and the query log accumulate over runs; answer-cache
    entries start from this process's (empty) cache, as on a restarted
    server, so the one question (all from 127.0.0.1) misses once per
    run."""
    backend = LiveBackend([make_example_zone()], config=live_config(),
                          log_queries=True)
    pids = []
    for _ in range(2):
        report = backend.run(udp_trace(12, gap=0.005, sources=3))
        assert report.answered_fraction() == 1.0
        pids.append(backend.server_pid)
    responder, cache = backend.responder, backend.responder.answer_cache
    assert pids[0] != pids[1]
    assert responder.queries_handled == len(responder.query_log) == 24
    assert (cache.misses, cache.hits) == (2, 22)
    assert len(cache) == 0
    assert len(backend.host.meter.samples) == 2


def spin(seconds: float) -> None:
    """Burn *seconds* of this process's CPU."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


@pytest.mark.parametrize("side", ["server", "querier"])
def test_meter_charges_the_server_process_cpu_alone(monkeypatch, side):
    """2 ms of CPU per query on one side: the server host's meter sees
    it when the server spends it, not when the replay client does."""
    queries, cost = 40, 0.002
    if side == "server":
        real = DnsResponder.reply_wire
        monkeypatch.setattr(DnsResponder, "reply_wire",
                            lambda *args: spin(cost) or real(*args))
    else:
        real = LiveQuerier.send
        monkeypatch.setattr(LiveQuerier, "send",
                            lambda *args: spin(cost) or real(*args))
    backend = LiveBackend([make_example_zone()], config=one_querier_config())
    report = backend.run(udp_trace(queries))
    assert report.answered_fraction() == 1.0
    busy = backend.host.meter.cpu_busy
    if side == "server":
        assert busy >= queries * cost
    else:
        assert busy < queries * cost


def test_killed_server_process_fails_the_run_promptly(monkeypatch):
    """SIGKILL the server mid-run: the run ends in an error naming how
    the process ended, at once rather than at the run deadline or after
    every remaining query timed out, and the child is reaped."""
    query_timeout = 1.0
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        query_timeout=query_timeout, run_deadline=60.0))
    real = LiveQuerier.send

    def send(self, record, due):
        if self.sent == 5:
            os.kill(backend.server_pid, signal.SIGKILL)
        real(self, record, due)

    monkeypatch.setattr(LiveQuerier, "send", send)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="killed by SIGKILL"):
        backend.run(udp_trace(500, gap=0.01))       # five seconds of trace
    assert time.monotonic() - start < \
        query_timeout + live_module._SHUTDOWN_GRACE
    with pytest.raises(ChildProcessError):
        os.waitpid(backend.server_pid, os.WNOHANG)


def test_report_repr_is_a_summary_and_teardown_formats_no_record(
        monkeypatch):
    """``asyncio.run`` reprs the main task's result at teardown (the
    SIGINT handler lookup formats the task): with the dataclass repr
    that was every result and record of the run, twice."""
    calls = []
    record_repr = QueryRecord.__repr__
    monkeypatch.setattr(
        QueryRecord, "__repr__",
        lambda self: calls.append(1) or record_repr(self))
    lengths = []
    for n in (8, 40):
        backend = LiveBackend([make_example_zone()], config=live_config())
        report = backend.run(mixed_trace(n))
        assert len(report.results) == n
        lengths.append(len(repr(report)))
    assert max(lengths) < 100       # counts, whatever the trace size
    # asyncio's debug mode (-X dev) reprs every scheduled callback's
    # arguments, records included; that is its job, not the teardown's.
    if not sys.flags.dev_mode:
        assert not calls


def test_live_backend_until_truncates():
    backend = LiveBackend([make_example_zone()], config=live_config())
    report = backend.run(mixed_trace(), until=0.2)
    assert len(report.results) == 11       # records at t <= 0.2


def test_live_backend_until_counts_from_the_first_record():
    """``until`` is trace time after the first record, as the sim's
    clock counts it: a trace starting at t=100 keeps the same records
    as one starting at t=0 (it used to keep none)."""
    shifted = Trace([r.with_(time=r.time + 100.0) for r in mixed_trace()])
    backend = LiveBackend([make_example_zone()], config=live_config())
    report = backend.run(shifted, until=0.21)
    assert len(report.results) == 11       # records at t - 100 <= 0.21


def test_get_backend_constructs_live():
    backend = get_backend("live", [make_example_zone()],
                          config=live_config())
    assert isinstance(backend, LiveBackend)
    with pytest.raises(ValueError, match="unknown replay backend"):
        get_backend("quantum")


# -- sim-only features are rejected, not ignored ------------------------------


def test_live_rejects_supervision_and_faults():
    from repro.netsim.faults import FaultPlan
    from repro.replay import SupervisionConfig
    with pytest.raises(ValueError, match="supervision is sim-only"):
        LiveBackend([make_example_zone()], config=ReplayConfig(
            backend="live", mode="distributed",
            supervision=SupervisionConfig()))
    with pytest.raises(ValueError, match="fault injection is sim-only"):
        LiveBackend([make_example_zone()], config=ReplayConfig(
            backend="live", fault_plan=FaultPlan([])))


def _sim_only_cases():
    from repro.netsim.faults import FaultPlan
    from repro.replay import SupervisionConfig
    return {
        "supervision": (dict(mode="distributed",
                             supervision=SupervisionConfig()),
                        "supervision is sim-only"),
        "fault_plan": (dict(fault_plan=FaultPlan([])),
                       "fault injection is sim-only"),
        "client_loss": (dict(client_loss=0.1), "client loss is sim-only"),
        "client_rtts": (dict(client_rtts=[0.08]),
                        "client_rtts is sim-only"),
    }


@pytest.mark.parametrize("entry", sorted(_sim_only_cases()))
def test_live_facade_rejects_each_sim_only_entry(entry):
    """One case per entry of the capability table, through the facade:
    a lossy client link or per-instance RTTs used to replay silently
    loss-free, at loopback RTT."""
    from repro.experiments.harness import authoritative_world
    from repro.replay.engine import SIM_ONLY
    assert len(_sim_only_cases()) == len(SIM_ONLY)
    knobs, refusal = _sim_only_cases()[entry]
    with pytest.raises(ValueError, match=refusal):
        authoritative_world([make_example_zone()], backend="live", **knobs)
    authoritative_world([make_example_zone()], **knobs)     # sim runs it


def test_live_rejects_unreplayable_protocols():
    backend = LiveBackend([make_example_zone()], config=live_config())
    trace = Trace([QueryRecord(time=0.0, src="10.9.0.1",
                               qname="www.example.com.", proto="tls")])
    with pytest.raises(ValueError, match="SetProtocol"):
        backend.run(trace)


# -- the one querier, over real sockets ---------------------------------------
#
# The protocol is the sim's Querier (tests/replay/test_querier_hostile.py
# drives it against a hostile responder); these pin what the asyncio host
# adapter and the feed loop add.


def one_querier_config(resilience=None, fast=False, queriers=1,
                       **live_kwargs) -> ReplayConfig:
    live_kwargs.setdefault("run_deadline", 30.0)
    return ReplayConfig(backend="live", client_instances=1,
                        queriers_per_instance=queriers, fast=fast,
                        resilience=resilience, check=True,
                        live=LiveReplayConfig(**live_kwargs))


def udp_trace(n: int, gap: float = 0.0, sources: int = 1) -> Trace:
    return Trace([QueryRecord(time=i * gap, src=f"10.9.0.{i % sources}",
                              qname="www.example.com.", proto="udp")
                  for i in range(n)])


def test_server_close_with_query_outstanding_is_resent_once(monkeypatch):
    """The stream dies under a query: the same reconnect-and-resend the
    sim does (once, on a fresh connection), not only a retried write."""
    real = LiveDnsServer._answer_stream
    seen = []       # the server process's copy counts its queries

    def flaky(self, writer, wire, peer):
        seen.append(wire)
        if len(seen) == 1:
            writer.close()              # take the query, hang up
        else:
            real(self, writer, wire, peer)

    monkeypatch.setattr(LiveDnsServer, "_answer_stream", flaky)
    # What reaches the server is what the client wrote: record that here.
    written = []
    real_send = live_module._LoopTcpConnection.send
    monkeypatch.setattr(live_module._LoopTcpConnection, "send",
                        lambda conn, data: written.append(data)
                        or real_send(conn, data))
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        resilience=ResilienceConfig(timeout=2.0, max_retries=1)))
    report = backend.run(Trace([QueryRecord(
        time=0.0, src="10.9.0.1", qname="www.example.com.",
        proto="tcp")]))
    (querier,) = backend.queriers
    assert report.answered_fraction() == 1.0
    assert querier.reconnects == 1
    assert report.results[0].attempts == 2
    assert len(written) == 2 and written[0] == written[1]
    assert backend.server.established == 2


def test_unresilient_reply_after_query_timeout_is_unanswered(monkeypatch):
    """Without a policy, ``query_timeout`` is the query's whole life: an
    answer that arrives later is ignored, not counted (the undefended
    cells of experiments/attack.py depend on it)."""
    real = LiveDnsServer.datagram_received

    def slow(self, data, src, sport):
        asyncio.get_running_loop().call_later(0.3, real, self, data, src,
                                              sport)

    monkeypatch.setattr(LiveDnsServer, "datagram_received", slow)
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        query_timeout=0.1))
    # The first reply lands at 0.3 s, after its query was given up and
    # while the querier is still waiting to send the second.
    report = backend.run(udp_trace(2, gap=0.6))
    (querier,) = backend.queriers
    assert not backend.deadline_hit
    assert [r.answered for r in report.results] == [False, False]
    assert querier.unanswered_at_close == 2
    assert querier.pending_count() == 0
    assert backend.responder.responses_sent >= 1


def test_fast_mode_keeps_exactly_max_inflight_outstanding(monkeypatch):
    """Closed loop: against a server that never replies, the run sends
    its window and blocks — ``max_inflight`` per querier, pooled over
    the one reader, no more and no fewer."""
    monkeypatch.setattr(LiveDnsServer, "datagram_received",
                        lambda self, data, src, sport: None)
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        fast=True, queriers=2, max_inflight=4, run_deadline=0.5))
    backend.run(udp_trace(80, sources=8))
    assert backend.deadline_hit
    assert sum(q.sent for q in backend.queriers) == 8


def test_connection_with_a_query_pending_is_not_evicted(monkeypatch):
    """The server falls more sources behind than the connection cap:
    the cap must not close a connection under its outstanding query,
    which could then only wait out ``query_timeout`` unanswered."""
    real = LiveDnsServer._answer_stream
    sources = live_module._TCP_CONNECTION_CAP + 16
    held = []

    def hold(self, writer, wire, peer):
        held.append((writer, wire, peer))
        if len(held) >= sources:        # every source has one outstanding
            for args in held:
                real(self, *args)
            held.clear()

    monkeypatch.setattr(LiveDnsServer, "_answer_stream", hold)
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        query_timeout=2.0))
    report = backend.run(Trace([
        QueryRecord(time=i * 0.001, src=f"10.9.1.{i}",
                    qname="www.example.com.", proto="tcp")
        for i in range(sources)]))
    (querier,) = backend.queriers
    assert not backend.deadline_hit
    assert report.answered_fraction() == 1.0
    assert querier.unanswered_at_close == 0
    assert backend.server.established == sources


def test_idle_connections_beyond_the_cap_close_least_recently_used():
    """One query outstanding at a time, so every other connection is
    idle at each connect: with more sources than the cap, cycling, each
    source's connection is closed before its next turn."""
    sources = live_module._TCP_CONNECTION_CAP + 16
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        fast=True, max_inflight=1))
    report = backend.run(Trace([
        QueryRecord(time=0.0, src=f"10.9.1.{i % sources}",
                    qname="www.example.com.", proto="tcp")
        for i in range(2 * sources)]))
    assert report.answered_fraction() == 1.0
    assert backend.server.established == 2 * sources


_CAPPED_TCP_RUN = """
from repro.replay import ReplayConfig
from repro.replay.backends import LiveBackend, LiveReplayConfig
from repro.trace.record import QueryRecord, Trace
from tests.server.helpers import make_example_zone

trace = Trace([QueryRecord(time=i * 0.002,
                           src=f"10.9.{i % 200 // 100}.{i % 100}",
                           qname="www.example.com.", proto="tcp")
               for i in range(2000)])
backend = LiveBackend([make_example_zone()], config=ReplayConfig(
    backend="live", client_instances=1, queriers_per_instance=2,
    check=True, live=LiveReplayConfig(speed=4.0, run_deadline=60.0)))
report = backend.run(trace)
print(report.answered_fraction(), backend.server.established)
"""


def test_tcp_sources_beyond_connection_cap_replay_cleanly():
    """200 TCP sources cycling over two queriers, each capped at 64 open
    connections, so a query evicts an idle connection: eviction is
    quiet (no reconnect-resend, nothing pending lost), every query is
    answered, and the interpreter exits without asyncio complaining
    about tasks it had to destroy."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    done = subprocess.run([sys.executable, "-c", _CAPPED_TCP_RUN],
                          cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    answered, established = done.stdout.split()
    assert float(answered) == 1.0
    # Each source is evicted before its next turn, unless the host is
    # so loaded that its connection stayed busy (and so open) all round.
    assert 200 <= int(established) <= 2000
    assert "Task was destroyed" not in done.stderr
    assert "Traceback" not in done.stderr


# -- the one reader: one time sync, the sim's pin tables ----------------------


def test_source_first_seen_late_is_sent_at_its_trace_time():
    """§2.6: one time sync, on the trace's first record, for every
    querier.  Source B first appears 1 s into the trace, pinned to a
    querier with nothing earlier: a querier synced on B's own first
    record would send it at once, 1 s early, and call that on time."""
    early, late, speed = "10.9.0.1", "10.9.0.4", 5.0
    trace = Trace([QueryRecord(time=t, src=src, qname="www.example.com.",
                               proto="udp")
                   for t, src in [(0.0, early), (0.1, early), (0.2, early),
                                  (1.0, late), (1.1, late)]])
    backend = LiveBackend([make_example_zone()], config=replace(
        one_querier_config(queriers=2, speed=speed), seed=4))
    report = backend.run(trace)
    assert report.answered_fraction() == 1.0
    holders = {src: {q.name for q in backend.queriers for r in q.results
                     if r.record.src == src} for src in (early, late)}
    assert len(holders[early]) == len(holders[late]) == 1
    assert holders[early] != holders[late]
    first = min((r for r in report.results if r.record.src == late),
                key=lambda r: r.record.time)
    floor = 1.0 / speed - 0.01
    assert first.scheduled_time >= floor
    assert first.send_time >= floor


def placements(backend: str, trace: Trace, sticky: bool) -> dict:
    """Record time -> (source, querier position ``i.q``) in one run."""
    from repro import authoritative_world
    report = authoritative_world(
        [make_example_zone()], backend=backend, client_instances=1,
        queriers_per_instance=2, sticky_sources=sticky, check=True, seed=7,
        live=LiveReplayConfig(speed=5.0, run_deadline=30.0)).run(
            trace).report
    return {result.record.time: (result.record.src,
                                 querier.name.rpartition("querier-")[2])
            for querier in report.queriers for result in querier.results}


@pytest.mark.parametrize("sticky", [True, False])
def test_each_record_reaches_the_querier_the_sim_draws(sticky):
    """§2.6's same-source rule and its ablation, drawn from the sim's
    pin tables: pinned (the default; ``check=True`` verifies it at the
    end of the run), each source keeps one querier; unsticky, every
    record draws, so one source reaches both.  Either way each record
    reaches the querier it reaches on the sim."""
    trace = udp_trace(40, gap=0.005, sources=8 if sticky else 1)
    live = placements("live", trace, sticky)
    assert len(live) == 40
    assert live == placements("sim", trace, sticky)
    held: dict = {}
    for src, position in live.values():
        held.setdefault(src, set()).add(position)
    assert set().union(*held.values()) == {"0.0", "0.1"}
    assert all(len(positions) == 1 for positions in held.values()) \
        == sticky
