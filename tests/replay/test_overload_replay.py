"""Overload control through full replays, on both backends.

The unit layer (tests/server/test_overload.py) pins the mechanisms;
these tests pin the integration: the querier really echoes cookies the
server really validates, RRL really changes what a replayed client
experiences, defended really beats undefended under the canonical
flood, and the whole thing is deterministic in the simulator."""

import pytest

from repro.experiments.harness import authoritative_world, wildcard_zone
from repro.server.overload import (AdmissionConfig, CookieConfig,
                                   OverloadConfig, RrlConfig)
from repro.trace.record import QueryRecord, Trace


def hammer_trace(queries: int = 120, sources: int = 3,
                 names: int = 2, spacing: float = 0.005) -> Trace:
    """A few sources repeating a few names fast — RRL bait."""
    return Trace([
        QueryRecord(time=i * spacing, src=f"10.9.{i % sources}.7",
                    qname=f"q{i % names}.example.com.")
        for i in range(queries)], name="hammer")


def run_world(overload, *, cookies=False, check=True, backend="sim",
              trace=None):
    world = authoritative_world(
        [wildcard_zone()], client_instances=2,
        queriers_per_instance=2, observe=(backend == "sim"),
        overload=overload, cookies=cookies, check=check,
        backend=backend, seed=5)
    result = world.run(trace or hammer_trace(), extra_time=2.0)
    return world, result


def test_sim_rrl_limits_and_is_deterministic():
    overload = OverloadConfig(
        rrl=RrlConfig(rate=5.0, slip=2, exempt_verified=False))
    runs = [run_world(overload) for _ in range(2)]
    (w1, r1), (w2, r2) = runs
    assert w1.server.rrl_dropped > 0
    assert w1.server.rrl_slipped > 0
    # check=True already ran verify_responder via the engine's final
    # scan; byte-identity across runs is the determinism contract.
    assert r1.report.to_json() == r2.report.to_json()
    for counter in ("rrl_dropped", "rrl_slipped", "responses_sent",
                    "queries_handled"):
        assert getattr(w1.server, counter) == getattr(w2.server, counter)
    # The drops are visible client-side: not everything was answered.
    assert r1.report.answered_fraction() < 1.0


def test_sim_rrl_counters_reach_observer():
    overload = OverloadConfig(
        rrl=RrlConfig(rate=5.0, slip=2, exempt_verified=False))
    world, result = run_world(overload)
    server = result.report.metrics()["server"]
    assert server["rrl_dropped"] == world.server.rrl_dropped > 0
    assert server["rrl_slipped"] == world.server.rrl_slipped > 0


def test_cookie_echo_exempts_verified_clients():
    """With client cookies on, replayed clients verify after first
    contact and (by default) bypass RRL; the same replay without
    cookies is limited.  This is the querier-to-responder round trip:
    the exemption only happens if the echo actually works."""
    rrl = RrlConfig(rate=5.0, slip=2)      # exempt_verified default
    with_cookies, result = run_world(
        OverloadConfig(rrl=rrl, cookies=CookieConfig()), cookies=True)
    assert with_cookies.server.cookies_validated > 0
    assert result.report.answered_fraction() == 1.0
    without, result_off = run_world(OverloadConfig(rrl=rrl))
    assert without.server.cookies_validated == 0
    assert without.server.rrl_dropped > with_cookies.server.rrl_dropped
    assert result_off.report.answered_fraction() < 1.0


def test_cookie_replay_deterministic():
    overload = OverloadConfig(
        rrl=RrlConfig(rate=5.0, exempt_verified=False),
        cookies=CookieConfig())
    (w1, r1), (w2, r2) = [
        run_world(overload, cookies=True) for _ in range(2)]
    assert w1.server.cookies_validated == w2.server.cookies_validated
    assert r1.report.to_json() == r2.report.to_json()


def test_sim_admission_refuses_under_burst():
    overload = OverloadConfig(
        admission=AdmissionConfig(limit=16, soft_limit=8))
    # One worker with a 2ms service time (500 q/s capacity) against a
    # 1000 q/s burst: the queue fills and the soft limit refuses.
    from repro.core.experiment import (AuthoritativeExperiment,
                                       ExperimentConfig)
    from repro.netsim.resources import CostModel
    from repro.replay.engine import ReplayConfig
    world = AuthoritativeExperiment([wildcard_zone()], ExperimentConfig(
        server_workers=1, cost=CostModel(udp_query=0.002),
        overload=overload,
        replay=ReplayConfig(client_instances=2,
                            queriers_per_instance=2, seed=5,
                            check=True)))
    result = world.run(hammer_trace(queries=300, spacing=0.001),
                       extra_time=2.0)
    server = world.server
    assert server.admission_refused > 0
    assert server.admission_received == (
        server.admission_processed + server.admission_shed
        + server.admission_refused + len(server.admission_queue))
    # Refused queries still got an answer (REFUSED), fast.
    assert result.report.answered_fraction() == 1.0


def test_overload_golden_scenario_runs_checked():
    from repro.check.scenarios import (overload_summary,
                                       run_overload_scenario)
    experiment, result = run_overload_scenario(check=True)
    summary = overload_summary(experiment, result)
    assert summary["server"]["rrl_dropped"] > 0
    assert summary["server"]["admission_refused"] > 0
    assert summary["server"]["cookies_validated"] > 0


@pytest.mark.slow
def test_defended_beats_undefended_sim():
    from repro.experiments.attack import run_defense_cell
    off = run_defense_cell(shape="water-torture", defended=False)
    on = run_defense_cell(shape="water-torture", defended=True)
    assert on.legit_answered_fraction > off.legit_answered_fraction
    assert on.rrl_dropped > 0
    assert off.rrl_dropped == 0


def test_live_overload_round_trip():
    overload = OverloadConfig(
        rrl=RrlConfig(rate=20.0, slip=2, exempt_verified=False),
        cookies=CookieConfig(),
        admission=AdmissionConfig(limit=64, soft_limit=32))
    world, result = run_world(overload, cookies=True, backend="live",
                              trace=hammer_trace(queries=80))
    server = world.server
    # check=True ran verify_responder post-drain; spot-check the
    # mechanisms engaged over real sockets too.  Live timing is not
    # deterministic, so the assertions are existence, not counts.
    assert server.cookies_validated > 0
    assert server.admission_received > 0
    assert server.responses_sent + server.rrl_dropped \
        == server.queries_handled
    assert result.report.answered_fraction() > 0.2
