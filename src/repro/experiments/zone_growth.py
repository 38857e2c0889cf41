"""Zone-growth what-if: scaling the number of hosted zones.

Another §5-listed application ("growth of the number or size of
zones").  The meta-DNS-server's whole value is hosting *many* zones on
one instance (549 zones in a 1-hour Rec-17 trace; "thousands" for
longer captures).  This experiment measures how zone count scales:

* server memory for the loaded zone database;
* split-horizon view count (one per nameserver address);
* per-query service correctness and latency through the full
  recursive + proxies pipeline as the hierarchy grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.constants import Rcode, RRType
from repro.dns.name import Name
from repro.netsim import LinkParams, Simulator
from repro.proxy import AuthoritativeProxy, RecursiveProxy
from repro.server import MetaDnsServer, RecursiveResolver
from repro.util.stats import Summary, summarize
from repro.workloads.internet import ModelInternet


@dataclass
class GrowthPoint:
    zones: int
    views: int
    zone_memory_mb: float
    resolve_latency: Summary
    failures: int


def run_point(tlds: int, slds_per_tld: int, probes: int = 40,
              seed: int = 13) -> GrowthPoint:
    internet = ModelInternet(tlds=tlds, slds_per_tld=slds_per_tld,
                             seed=seed)
    sim = Simulator()
    meta_host = sim.add_host("meta", ["10.2.0.2"], LinkParams())
    meta = MetaDnsServer(meta_host, internet.zones)
    rec_host = sim.add_host("recursive", ["10.1.0.2"], LinkParams())
    resolver = RecursiveResolver(rec_host, internet.root_hints())
    RecursiveProxy(rec_host, meta_server_addr="10.2.0.2")
    AuthoritativeProxy(meta_host, recursive_addr="10.1.0.2")

    import random
    rng = random.Random(seed)
    latencies = []
    failures = 0
    for _ in range(probes):
        qname = Name.from_text(internet.random_qname(rng))
        results = []
        start = sim.now
        resolver.resolve(qname, RRType.A, results.append)
        sim.run_until_idle()
        if results and results[0].rcode in (Rcode.NOERROR,
                                            Rcode.NXDOMAIN):
            latencies.append(sim.now - start)
        else:
            failures += 1
        resolver.cache.flush()  # force full walks: stress every level

    zone_memory = sum(z.estimated_memory() for z in internet.zones)
    return GrowthPoint(
        zones=internet.zone_count(),
        views=len(meta.views.views),
        zone_memory_mb=zone_memory / 1024 ** 2,
        resolve_latency=summarize(latencies),
        failures=failures)


def sweep(points=((2, 5), (4, 25), (8, 60), (12, 120), (20, 160))) \
        -> list[GrowthPoint]:
    return [run_point(tlds, slds) for tlds, slds in points]


def main() -> None:
    print("== zone growth: one meta-server, growing hierarchy ==")
    for point in sweep():
        s = point.resolve_latency
        print(f"zones={point.zones:5d} views={point.views:5d} "
              f"zone-db={point.zone_memory_mb:7.2f}MB "
              f"cold-resolve median={s.median * 1000:6.2f}ms "
              f"p95={s.p95 * 1000:6.2f}ms failures={point.failures}")


if __name__ == "__main__":
    main()
