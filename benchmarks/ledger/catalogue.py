"""What the ledger declares: metric names from ``BENCHMARK.json`` and
the map from source files to layers.

``BENCHMARK.json`` is the single place where workload names, metric
names, units, directions and bounds are written down; the harness
reads it and refuses to emit a name it does not declare.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
LEDGER = Path(__file__).resolve().parent

# The issue's sizes give three repeats of 6-8 s each; a run of
# ``--seconds`` S shrinks every record count by S / REFERENCE_SECONDS.
REFERENCE_SECONDS = 24.0

# layer -> files (or directories, with a trailing slash) under src/repro.
# Everything else in src/repro, and the harness itself, is ``other``.
LAYERS: dict[str, tuple[str, ...]] = {
    "dns.name": ("dns/name.py",),
    "dns.wire": ("dns/wire.py", "dns/rdata.py", "dns/rrset.py",
                 "dns/constants.py"),
    "dns.message": ("dns/message.py",),
    "dns.zone": ("dns/zone.py", "dns/dnssec.py", "dns/zonefile.py"),
    "server.responder": ("server/responder.py", "server/authoritative.py",
                         "server/views.py", "server/metadns.py",
                         "server/metacluster.py", "server/overload.py"),
    "server.answercache": ("server/answercache.py",),
    "server.recursive": ("server/recursive.py",),
    "server.cache": ("server/cache.py",),
    "netsim.clock": ("netsim/clock.py", "netsim/sim.py"),
    "netsim.udp": ("netsim/udp.py", "netsim/network.py", "netsim/host.py",
                   "netsim/packet.py", "netsim/jitter.py",
                   "netsim/resources.py", "netsim/faults.py",
                   "netsim/capture.py", "netsim/tun.py"),
    "netsim.tcp": ("netsim/tcp.py", "netsim/tls.py", "netsim/quic.py",
                   "netsim/framing.py"),
    "replay.querier": ("replay/querier.py", "replay/timing.py"),
    "replay.controller": ("replay/controller.py", "replay/distributor.py",
                          "replay/engine.py", "replay/supervisor.py",
                          "replay/backends/sim.py",
                          "replay/backends/base.py"),
    "replay.live": ("replay/backends/live.py",),
    "trace.pipeline": ("trace/pipeline.py", "trace/stream.py"),
    "trace.codec": ("trace/binaryform.py", "trace/textform.py",
                    "trace/record.py", "trace/convert.py",
                    "trace/pcaplib.py", "trace/stats.py",
                    "trace/errors.py"),
    "proxy": ("proxy/",),
    "obs": ("obs/", "check/"),
}
# Stdlib modules whose self time (and the built-ins they call) is the
# real-socket layer; matched on the path below the stdlib directory.
SOCKET_MODULES = ("asyncio/", "selectors.py", "socket.py")
ALL_LAYERS = (*LAYERS, "sockets", "other")


def layer_of(relpath: str) -> str:
    """The layer of a file given relative to ``src/repro``."""
    matches = [layer for layer, entries in LAYERS.items()
               if relpath.startswith(entries)]
    if len(matches) > 1:
        raise ValueError(f"{relpath} is claimed by layers {matches}")
    return matches[0] if matches else "other"


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Declaration:
    """``BENCHMARK.json``, indexed by name."""

    def __init__(self, raw: dict | None = None):
        raw = raw if raw is not None else load_declaration()
        self.run_seconds: int = raw["run_seconds"]
        self.workloads: list[str] = [w["name"] for w in raw["workloads"]]
        self.end_to_end: dict[str, dict] = {
            m["name"]: m for m in raw["end_to_end"]}
        self.per_layer: dict[str, dict] = {
            m["name"]: m for m in raw["per_layer"]}

    def section(self, trace: int) -> dict[str, dict]:
        return self.per_layer if trace else self.end_to_end
