"""Rec-17-like workload: a department-level recursive server's clients.

Table 1's Rec-17: one hour, 91 client IPs, ~20 k queries, mean
interarrival 0.18 s (heavily bursty: sd 0.36 s), touching 549 distinct
zones.  This generator produces stub-client queries (RD=1) with Zipf
domain popularity and bursty arrivals (exponential gaps drawn per
burst), for replay against the recursive server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dns.constants import RRType
from repro.trace.record import QueryRecord, Trace
from repro.workloads.internet import ModelInternet


@dataclass
class RecursiveParams:
    duration: float = 60.0
    mean_rate: float = 20.0         # queries/second (bursty)
    clients: int = 91
    burst_mean: int = 4             # queries per burst
    zipf_skew: float = 1.0          # domain-popularity exponent
    seed: int = 0
    start_time: float = 0.0


def generate_recursive_trace(internet: ModelInternet,
                             params: RecursiveParams | None = None,
                             name: str = "Rec-17") -> Trace:
    params = params or RecursiveParams()
    rng = random.Random(params.seed)
    domain_weights = [1.0 / (i + 1) ** params.zipf_skew
                      for i in range(len(internet.domains))]
    total = sum(domain_weights)
    cumulative = []
    acc = 0.0
    for w in domain_weights:
        acc += w / total
        cumulative.append(acc)

    import bisect

    def pick_domain():
        u = rng.random()
        return internet.domains[min(bisect.bisect_left(cumulative, u),
                                    len(cumulative) - 1)]

    records: list[QueryRecord] = []
    t = params.start_time
    end = params.start_time + params.duration
    burst_gap = params.burst_mean / params.mean_rate
    while True:
        t += rng.expovariate(1.0 / burst_gap)
        if t >= end:
            break
        client = rng.randrange(params.clients)
        burst = 1 + int(rng.expovariate(1.0 / max(params.burst_mean - 1,
                                                  1e-9)))
        bt = t
        for _ in range(burst):
            domain = pick_domain()
            label = rng.choice(["www", "mail", "", "host0", "host1"])
            qname = f"{label}.{domain.text}" if label else domain.text
            qtype = rng.choices(
                [RRType.A, RRType.AAAA, RRType.MX, RRType.TXT],
                weights=[0.6, 0.25, 0.1, 0.05])[0]
            records.append(QueryRecord(
                time=bt, src=f"10.10.0.{client + 1}", qname=qname,
                qtype=qtype, rd=True, msg_id=rng.randrange(65536)))
            bt += rng.expovariate(200.0)  # ~5 ms intra-burst gaps
            if bt >= end:
                break
    records.sort(key=lambda r: r.time)
    return Trace(records, name=name)
