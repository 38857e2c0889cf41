"""Online invariants: ReplayConfig(check=True) on clean runs, the
byte-identity guarantee, and violation detection on corrupted state.

The checker must be a pure observer — a checked replay produces the
exact report an unchecked one does — and it must actually fire: every
class of corruption it claims to catch is injected here and asserted
to raise :class:`InvariantViolation`.
"""

import pytest

from repro.check.invariants import (InvariantChecker, InvariantViolation,
                                    verify_queriers)
from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.netsim import LinkParams, Simulator
from repro.replay import ReplayConfig, ReplayEngine, ResilienceConfig
from repro.server import AuthoritativeServer
from repro.trace.record import QueryRecord, Trace
from repro.workloads.synthetic import synthetic_trace

N = Name.from_text


def example_zone():
    zone = Zone(N("example.com."))
    zone.add(make_soa(N("example.com.")))
    zone.add(RRset(N("example.com."), RRType.NS, 3600,
                   [NS(N("ns1.example.com."))]))
    zone.add(RRset(N("ns1.example.com."), RRType.A, 3600,
                   [A("198.51.100.53")]))
    zone.add(RRset(N("*.example.com."), RRType.A, 300, [A("192.0.2.1")]))
    return zone


def build_world():
    sim = Simulator()
    host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    AuthoritativeServer(host, zones=[example_zone()])
    return sim


def run_checked(config=None, trace=None):
    sim = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", config or ReplayConfig(
        client_instances=2, queriers_per_instance=2, seed=3,
        check=True))
    trace = trace if trace is not None else synthetic_trace(
        0.02, duration=1.0, seed=3)
    return engine, engine.run(trace)


def test_checked_run_passes_and_scans():
    engine, report = run_checked()
    assert report.answered_fraction() == 1.0
    checker = engine.queriers[0].check
    assert isinstance(checker, InvariantChecker)
    assert checker.id_checks == len(report.results)
    assert checker.scans >= 1          # at least the final scan


def test_checked_run_is_byte_identical_to_unchecked():
    """check=True must not move a single byte of the report: the
    checker reads state (and, per message, compares the querier's
    wire-level fast path with the full codec), it never schedules
    events."""
    def run(check, protos):
        sim = build_world()
        engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
            client_instances=2, queriers_per_instance=2, seed=4,
            observe=True, check=check))
        return engine.run(Trace([
            r.with_(proto=protos[i % len(protos)]) for i, r in
            enumerate(synthetic_trace(0.02, duration=1.0, seed=4))]))
    for protos in (("udp",), ("udp", "tcp", "tls")):
        assert run(True, protos).to_json(indent=2) \
            == run(False, protos).to_json(indent=2)


def test_checked_run_with_resilience_and_loss():
    """Timeouts/retransmits keep conservation intact: every result
    still lands in exactly one terminal state."""
    sim = Simulator()
    host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    AuthoritativeServer(host, zones=[example_zone()])
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=5,
        client_link=LinkParams(loss=0.2),
        resilience=ResilienceConfig(timeout=0.2, max_retries=2),
        check=True, extra_time=3.0))
    report = engine.run(synthetic_trace(0.02, duration=1.0, seed=5))
    assert len(report.results) == 50


def test_checked_run_mixed_protocols():
    trace = Trace([QueryRecord(time=0.05 * i, src=f"172.16.0.{i % 4 + 1}",
                               qname=f"m{i}.example.com.",
                               proto=("udp", "tcp")[i % 2])
                   for i in range(30)])
    _engine, report = run_checked(trace=trace)
    assert report.answered_fraction() == 1.0


# -- violation detection ------------------------------------------------------

def corrupted_engine():
    engine, _report = run_checked()
    return engine


def test_detects_sent_result_mismatch():
    engine = corrupted_engine()
    engine.queriers[0].sent += 1
    with pytest.raises(InvariantViolation, match="exactly one result"):
        verify_queriers(engine.queriers)


def test_detects_double_terminal_state():
    engine = corrupted_engine()
    result = engine.queriers[0].results[0]
    assert result.answered
    result.timed_out = True
    with pytest.raises(InvariantViolation,
                       match="multiple terminal states"):
        verify_queriers(engine.queriers)


def test_detects_unaccounted_open_result():
    engine = corrupted_engine()
    result = engine.queriers[0].results[0]
    result.response_time = None        # answered -> silently open
    with pytest.raises(InvariantViolation, match="open results"):
        verify_queriers(engine.queriers)


def test_detects_negative_counter():
    engine = corrupted_engine()
    engine.queriers[0].timeouts = -1
    with pytest.raises(InvariantViolation, match="negative"):
        verify_queriers(engine.queriers)


def test_detects_finished_result_left_pending():
    engine = corrupted_engine()
    querier = engine.queriers[0]
    result = querier.results[0]
    querier._udp_channels[result.record.src].pending[9999] = result
    with pytest.raises(InvariantViolation, match="finished result"):
        verify_queriers(engine.queriers)


def test_detects_result_pending_on_two_channels():
    engine = corrupted_engine()
    querier = engine.queriers[0]
    first, second = list(querier._udp_channels.values())[:2]
    assert first is not second
    result = querier.results[0]
    result.response_time = None        # reopened, then double-booked
    first.pending[9998] = second.pending[9999] = result
    with pytest.raises(InvariantViolation, match="two sockets at once"):
        verify_queriers(engine.queriers)


def test_detects_broken_source_pinning():
    engine = corrupted_engine()
    donor, receiver = engine.queriers[0], engine.queriers[-1]
    assert donor is not receiver
    moved = next(r for r in donor.results
                 if r.record.src != receiver.results[0].record.src)
    receiver.results += donor.results[moved.row:moved.row + 1]
    receiver.sent += 1
    with pytest.raises(InvariantViolation, match="split across"):
        verify_queriers(engine.queriers)


def test_pinning_skipped_when_not_sticky():
    engine = corrupted_engine()
    donor, receiver = engine.queriers[0], engine.queriers[-1]
    moved = next(r for r in donor.results
                 if r.record.src != receiver.results[0].record.src)
    receiver.results += donor.results[moved.row:moved.row + 1]
    receiver.sent += 1
    verify_queriers(engine.queriers, sticky=False)      # no raise


def test_detects_lost_records_via_expected_total():
    engine = corrupted_engine()
    total = sum(len(q.results) for q in engine.queriers)
    with pytest.raises(InvariantViolation, match="records lost"):
        verify_queriers(engine.queriers, expected_results=total + 1)


def test_on_msg_id_rejects_collisions_and_bad_ids():
    engine = corrupted_engine()
    querier = engine.queriers[0]
    checker = querier.check
    record = querier.results[0].record
    querier._udp_channels[record.src].pending[1234] = querier.results[0]
    with pytest.raises(InvariantViolation, match="collides"):
        checker.on_msg_id(querier, record, 1234, scan=False)
    with pytest.raises(InvariantViolation, match="outside"):
        checker.on_msg_id(querier, record, 0x10000, scan=False)


def test_violation_message_lists_every_failure():
    engine = corrupted_engine()
    engine.queriers[0].sent += 1
    engine.queriers[1].timeouts = -2
    with pytest.raises(InvariantViolation) as excinfo:
        verify_queriers(engine.queriers)
    message = str(excinfo.value)
    assert "exactly one result" in message
    assert "negative" in message


# -- both backends ------------------------------------------------------------

def flip_rd_in_every_query(monkeypatch):
    """Plant a fast-path bug: every query leaves with its RD bit
    flipped, which only the full-encoder comparison can see."""
    real = QueryRecord.query_wire

    def flipped(self, msg_id):
        wire = bytearray(real(self, msg_id))
        wire[2] ^= 0x01
        return bytes(wire)
    monkeypatch.setattr(QueryRecord, "query_wire", flipped)


def live_checked_run(query_timeout=5.0, qtype=RRType.A):
    from repro.replay.backends import LiveBackend, LiveReplayConfig
    backend = LiveBackend([example_zone()], config=ReplayConfig(
        backend="live", client_instances=1, queriers_per_instance=2,
        seed=6, check=True,
        live=LiveReplayConfig(speed=50.0, query_timeout=query_timeout,
                              run_deadline=60.0)))
    trace = Trace([QueryRecord(time=0.05 * i, src=f"172.16.1.{i % 3 + 1}",
                               qname=f"lv{i}.example.com.", qtype=qtype)
                   for i in range(20)])
    return backend, backend.run(trace)


def test_live_backend_verifies_when_checked(monkeypatch):
    """The live backend runs the sim's checker: the same per-message
    hooks on the queriers and the responder, the periodic scans and
    the final verification (tiny trace: this opens real loopback
    sockets)."""
    backend, report = live_checked_run()
    assert len(report.results) == 20
    (checker,) = {querier.check for querier in backend.queriers}
    assert isinstance(checker, InvariantChecker)
    assert backend.responder.check is checker
    assert checker.id_checks == 20
    assert checker.scans == 1          # the final scan
    flip_rd_in_every_query(monkeypatch)
    for run in (live_checked_run, run_checked):
        with pytest.raises(InvariantViolation, match="full encoder"):
            run()


def test_live_violation_in_a_socket_callback_fails_the_run(monkeypatch):
    """A response-side check runs inside the datagram callback, whose
    exceptions the event loop reports, not the feed: the run must still
    end in the violation."""
    from repro.replay import querier as querier_module
    real = querier_module.read_header
    monkeypatch.setattr(querier_module, "read_header",
                        lambda wire: real(wire)[:3] + (5,))
    with pytest.raises(InvariantViolation, match="header read"):
        live_checked_run(query_timeout=0.3)


def test_live_violation_in_the_server_process_fails_the_run(monkeypatch):
    """The live server runs in a process of its own: a miss-path
    response the checker refuses there (a corrupted splice: the
    wildcard's AAAA NODATA is one template for every name) must still
    end the parent's run in that violation."""
    from repro.server.answercache import AnswerCache
    real = AnswerCache.spliced

    def corrupted(self, *args):
        wire = real(self, *args)
        return wire if wire is None else wire[:-1] + bytes([wire[-1] ^ 1])
    monkeypatch.setattr(AnswerCache, "spliced", corrupted)
    with pytest.raises(InvariantViolation, match="plain engine"):
        live_checked_run(query_timeout=0.3, qtype=RRType.AAAA)


def test_unchecked_runs_attach_nothing():
    from repro.replay.backends import LiveBackend
    engine, _ = run_checked(ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=3))
    backend = LiveBackend([example_zone()])
    backend.run(Trace([QueryRecord(time=0.0, src="172.16.1.1",
                                   qname="n.example.com.")]))
    for querier in engine.queriers + backend.queriers:
        assert querier.check is None
    assert backend.responder.check is None


def test_fault_injected_run_stays_conserved():
    """A querier crash without supervision: failed_over queries and
    stranded orphans must still satisfy conservation (pinning is
    skipped — the crash legitimately reshapes the accounting)."""
    from repro.netsim.faults import FaultPlan, QuerierCrash
    sim = build_world()
    engine = ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=2, seed=7,
        mode="distributed", check=True,
        fault_plan=FaultPlan([QuerierCrash(start=0.3,
                                           target="querier-0.0")])))
    report = engine.run(synthetic_trace(0.02, duration=1.0, seed=7))
    assert any(q.crashed for q in engine.queriers)
    assert len(report.results) <= 50
