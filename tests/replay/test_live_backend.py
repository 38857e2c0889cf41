"""The live asyncio backend: real loopback sockets behind the engine API.

Three areas the sim cannot cover: TCP byte-stream reassembly on a real
socket (split/coalesced segments, pipelined queries), the UDP+TCP
same-port bind-retry dance, and graceful shutdown draining in-flight
work.  Plus the config-surface rejections that keep sim-only features
(checkpoints, faults, supervision) from silently no-opping live.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dns.message import Message
from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.replay import ReplayConfig, ResilienceConfig
from repro.replay.backends import (LiveBackend, LiveDnsServer,
                                   LiveReplayConfig, get_backend)
from repro.replay.backends import live as live_module
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


def test_get_backend_constructs_live():
    backend = get_backend("live", [make_example_zone()],
                          config=live_config())
    assert isinstance(backend, LiveBackend)
    with pytest.raises(ValueError, match="unknown replay backend"):
        get_backend("quantum")


# -- sim-only features are rejected, not ignored ------------------------------


def test_live_rejects_resume_from():
    backend = LiveBackend([make_example_zone()], config=live_config())
    with pytest.raises(ValueError, match="backend='sim'"):
        backend.run(mixed_trace(), resume_from=object())


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
    seen = []

    def flaky(self, writer, wire, peer):
        seen.append(wire)
        if len(seen) == 1:
            writer.close()              # take the query, hang up
        else:
            real(self, writer, wire, peer)

    monkeypatch.setattr(LiveDnsServer, "_answer_stream", flaky)
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        resilience=ResilienceConfig(timeout=2.0, max_retries=1)))
    report = backend.run(Trace([QueryRecord(
        time=0.0, src="10.9.0.1", qname="www.example.com.",
        proto="tcp")]))
    (querier,) = backend.queriers
    assert report.answered_fraction() == 1.0
    assert querier.reconnects == 1
    assert report.results[0].attempts == 2
    assert seen[0] == seen[1]
    assert backend.server.established == 2


def test_unresilient_reply_after_query_timeout_is_unanswered(monkeypatch):
    """Without a policy, ``query_timeout`` is the query's whole life: an
    answer that arrives later is ignored, not counted (the undefended
    cells of experiments/attack.py depend on it)."""
    real = live_module._ServerDatagramProtocol.datagram_received

    def slow(self, data, addr):
        asyncio.get_running_loop().call_later(0.3, real, self, data, addr)

    monkeypatch.setattr(live_module._ServerDatagramProtocol,
                        "datagram_received", slow)
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
    """Closed loop: against a server that never replies, each querier
    sends its window and blocks — no more, no fewer."""
    monkeypatch.setattr(live_module._ServerDatagramProtocol,
                        "datagram_received",
                        lambda self, data, addr: None)
    backend = LiveBackend([make_example_zone()], config=one_querier_config(
        fast=True, queriers=2, max_inflight=4, run_deadline=0.5))
    backend.run(udp_trace(80, sources=8))
    assert backend.deadline_hit
    assert [q.sent for q in backend.queriers] == [4, 4]


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
