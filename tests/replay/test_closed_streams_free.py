"""A closed simulated TCP or TLS connection is freed by reference
counting, not left for the cycle collector.

While a connection is ESTABLISHED its callbacks close cycles back to it
(``conn.on_data`` -> the framer -> the querier's channel or the server's
handler -> ``conn``).  No data is delivered past ESTABLISHED, so the
connection drops them when it leaves: after a replay, with the world
still alive, a full collection finds no connection and no framer that
only a cycle held.
"""

import gc

import pytest

from repro import authoritative_world
from repro.experiments.harness import wildcard_zone
from repro.netsim.framing import LengthPrefixFramer
from repro.netsim.tcp import TcpConnection
from repro.trace.record import Trace
from repro.workloads.synthetic import synthetic_trace


@pytest.mark.parametrize("proto", ["tcp", "tls"])
def test_closed_connections_leave_no_cyclic_garbage(proto):
    base = synthetic_trace(0.01, duration=2.0, seed=5)
    trace = Trace([r.with_(proto=proto) for r in base.records], name=proto)
    world = authoritative_world([wildcard_zone()], seed=5)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = world.run(trace).report
        gc.collect()
        kinds = {type(o) for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert all(result.answered for result in report.results)
    # Every connection closed, and none of them lingers as garbage.
    assert world.server_host.meter.established == 0
    assert TcpConnection not in kinds
    assert LengthPrefixFramer not in kinds
