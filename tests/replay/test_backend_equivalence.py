"""Sim-vs-live cross-validation: the fidelity check of docs/BACKENDS.md.

Both backends run the one :class:`Querier` against the one
:class:`DnsResponder`, so on loopback every query must have the same
outcome on both — :func:`repro.check.compare_sim_live`, here on a
~1k-record B-Root analogue in every shape of the live matrix — even
though the live backend cannot promise byte-identical timing.  The
metric schema must also match key-for-key, so downstream tooling reads
either report unchanged.  The sim side's per-seed byte-identity is
pinned here too: it is the regression bar the live backend is validated
against.
"""

import asyncio
import os
import signal

from repro.check import compare_sim_live
from repro.check.scenarios import LIVE_MATRIX, run_for_live
from repro.experiments.harness import root_zone_world, wildcard_root_zone
from repro.replay.backends import live as live_module
from repro.replay.backends.live import LiveQuerier
from repro.workloads.broot import broot16

TLDS = 4
SLDS = 4
WORLD_SEED = 3
TRACE_KW = dict(duration=2.0, mean_rate=500.0, clients=60)
STALL = 0.6     # seconds the server process is stopped for


def build_zone_and_trace():
    internet = root_zone_world(tlds=TLDS, slds_per_tld=SLDS,
                               seed=WORLD_SEED)
    zone = wildcard_root_zone(internet)
    trace = broot16(internet, **TRACE_KW)
    return zone, trace


def test_sim_and_live_agree_on_broot_analogue():
    """The ~1k-record B-Root analogue gets the same outcome for every
    query through real sockets and through the simulator, in each shape
    of the live matrix."""
    for label, shape in LIVE_MATRIX:
        sim_report = run_for_live("sim", *build_zone_and_trace(), **shape)
        live_report = run_for_live("live", *build_zone_and_trace(),
                                   **shape)
        assert len(sim_report.results) > 900, label  # a B-Root-scale slice
        assert compare_sim_live(sim_report, live_report) == [], label
        if shape.get("signed"):
            assert any(r.fell_back for r in live_report.results)

    # Both reports expose the same metric schema, group for group and
    # key for key (live's wall-clock extras are volatile-only, so the
    # default snapshot shape is shared) — every declared counter, not
    # the one ``replay`` key an unobserved v1 report carried.
    sim_metrics = sim_report.metrics()
    live_metrics = live_report.metrics()
    assert set(sim_metrics) == set(live_metrics)
    for group in sim_metrics:
        assert set(sim_metrics[group]) == set(live_metrics[group]), group
    assert len(sim_metrics["replay"]) + len(sim_metrics["server"]) > 50
    for report, metrics in ((sim_report, sim_metrics),
                            (live_report, live_metrics)):
        assert metrics["replay"]["responses"] \
            == sum(r.answered for r in report.results)


def test_sim_backend_remains_byte_identical_per_seed():
    """The regression bar the live backend is validated against: two
    sim runs at one seed produce byte-identical reports."""
    first = run_for_live("sim", *build_zone_and_trace()).to_json()
    second = run_for_live("sim", *build_zone_and_trace()).to_json()
    assert first == second


def test_a_stalled_server_process_costs_no_stream_query(monkeypatch):
    """The load flake, made deterministic: the forked server process is
    stopped for 0.6 s (SIGSTOP, then SIGCONT on its pid) in the middle
    of the all-TCP replay.  A stream query gets one wait, so the
    harness's wait must outlast the stall: every query still gets the
    sim's outcome."""
    pids, stalled = [], []
    real_init = live_module._ServerProcess.__init__

    def init(self, backend):
        real_init(self, backend)
        pids.append(self.pid)

    real_send = LiveQuerier.send

    def send(self, *args):
        if self.sent == 100 and not stalled:
            stalled.append(pids[-1])
            os.kill(pids[-1], signal.SIGSTOP)
            asyncio.get_running_loop().call_later(
                STALL, os.kill, pids[-1], signal.SIGCONT)
        real_send(self, *args)

    monkeypatch.setattr(live_module._ServerProcess, "__init__", init)
    monkeypatch.setattr(LiveQuerier, "send", send)
    sim_report = run_for_live("sim", *build_zone_and_trace(), proto="tcp")
    live_report = run_for_live("live", *build_zone_and_trace(), proto="tcp")
    assert stalled
    assert compare_sim_live(sim_report, live_report) == []
