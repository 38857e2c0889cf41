"""B-Root-like workload generator.

Generates traces with the distributional properties of the paper's DITL
B-Root captures (Table 1, Fig 15c):

* heavy-tailed client load — Zipf-weighted clients, tuned so roughly 1%
  of clients carry ~3/4 of the queries and ~80% of clients send fewer
  than 10 queries over the trace (§5.2.4);
* Poisson arrivals with a slowly varying rate (Fig 8's "rate varies
  over time");
* a root-realistic query mix: names under real delegations (answered
  with referrals), junk names (NXDOMAIN with NSEC when DO), and apex
  queries (., NS, DNSKEY, SOA);
* 72.3% of queries with the DO bit and ~3% over TCP, matching the
  mid-2016/2017 numbers the paper quotes.

Scale note (DESIGN.md §5): the real B-Root-16 hour is 137 M queries from
1.07 M clients at ~38 k q/s.  Defaults here generate seconds-to-minutes
of trace at 1-4 k q/s; experiments report the scale factor next to
paper-absolute numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.dns.constants import RRType
from repro.trace.record import QueryRecord, Trace
from repro.workloads.internet import ModelInternet

# Query-type mix measured in root traffic (approximate).
_QTYPE_MIX = [
    (RRType.A, 0.50),
    (RRType.AAAA, 0.22),
    (RRType.PTR, 0.05),
    (RRType.MX, 0.04),
    (RRType.NS, 0.04),
    (RRType.TXT, 0.04),
    (RRType.SOA, 0.03),
    (RRType.DS, 0.05),
    (RRType.DNSKEY, 0.01),
    (RRType.SRV, 0.02),
]

# Client load skew.  The top 1% of clients send 52.5% of queries here (Fig
# 15c as measured in EXPERIMENTS.md; the paper has ~75%): ROADMAP item 4.
ZIPF_ALPHA = 1.18


@dataclass
class BRootParams:
    duration: float = 60.0
    mean_rate: float = 2000.0         # queries/second
    clients: int = 5000
    do_fraction: float = 0.723
    tcp_fraction: float = 0.03
    junk_fraction: float = 0.30       # NXDOMAIN-bound names
    rate_wobble: float = 0.10         # slow sinusoidal rate variation
    seed: int = 0
    start_time: float = 0.0


def _zipf_weights(n: int, alpha: float) -> list[float]:
    weights = [1.0 / (i + 1) ** alpha for i in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def _cumulative(weights: list[float]) -> list[float]:
    out = []
    acc = 0.0
    for w in weights:
        acc += w
        out.append(acc)
    return out


def _pick(cum: list[float], u: float) -> int:
    import bisect
    return min(bisect.bisect_left(cum, u), len(cum) - 1)


def generate_broot_trace(internet: ModelInternet,
                         params: BRootParams | None = None,
                         name: str = "b-root") -> Trace:
    """Generate a B-Root-style query trace against *internet*'s root."""
    params = params or BRootParams()
    rng = random.Random(params.seed)
    client_cum = _cumulative(_zipf_weights(params.clients, ZIPF_ALPHA))
    qtype_cum = _cumulative([w for _, w in _QTYPE_MIX])
    qtypes = [t for t, _ in _QTYPE_MIX]
    client_addrs = [f"172.{16 + (i >> 16) % 16}.{(i >> 8) % 256}.{i % 256}"
                    for i in range(params.clients)]
    # TCP-capable clients are chosen once (protocol is a client property,
    # which is what makes connection reuse meaningful), accumulating
    # clients in random order until they carry ~tcp_fraction of the
    # expected query load -- a uniform per-client draw would let one
    # Zipf-head client blow the fraction up.
    weights = _zipf_weights(params.clients, ZIPF_ALPHA)
    order = list(range(params.clients))
    rng.shuffle(order)
    tcp_clients: set[int] = set()
    tcp_weight = 0.0
    for client in order:
        if tcp_weight >= params.tcp_fraction:
            break
        tcp_clients.add(client)
        tcp_weight += weights[client]

    records: list[QueryRecord] = []
    t = params.start_time
    end = params.start_time + params.duration
    wobble_period = max(params.duration / 3.0, 1e-9)
    while True:
        phase = 2 * math.pi * (t - params.start_time) / wobble_period
        rate = params.mean_rate * (1 + params.rate_wobble * math.sin(phase))
        t += rng.expovariate(rate)
        if t >= end:
            break
        client = _pick(client_cum, rng.random())
        qtype = qtypes[_pick(qtype_cum, rng.random())]
        if qtype in (RRType.DNSKEY, RRType.SOA) and rng.random() < 0.8:
            qname = "."
        elif qtype == RRType.DS:
            qname = rng.choice(internet.domains).name.to_text()
        else:
            qname = internet.random_qname(rng, params.junk_fraction)
        do = rng.random() < params.do_fraction
        records.append(QueryRecord(
            time=t, src=client_addrs[client], qname=qname, qtype=qtype,
            proto="tcp" if client in tcp_clients else "udp",
            do=do, edns_payload=4096 if do else 0,
            msg_id=rng.randrange(65536)))
    return Trace(records, name=name)


def broot16(internet: ModelInternet, duration: float = 60.0,
            mean_rate: float = 2000.0, clients: int = 5000,
            seed: int = 16) -> Trace:
    """B-Root-16 analogue (2016-04-06 DITL hour, scaled)."""
    return generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=mean_rate, clients=clients,
        do_fraction=0.723, seed=seed), name="B-Root-16")


def broot17a(internet: ModelInternet, duration: float = 60.0,
             mean_rate: float = 2200.0, clients: int = 5500,
             seed: int = 171) -> Trace:
    """B-Root-17a analogue (2017-04-11 DITL hour, scaled)."""
    return generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=mean_rate, clients=clients,
        do_fraction=0.75, seed=seed), name="B-Root-17a")


def broot17b(internet: ModelInternet, duration: float = 20.0,
             mean_rate: float = 2200.0, clients: int = 4000,
             seed: int = 172) -> Trace:
    """B-Root-17b analogue (the 20-minute subset, scaled)."""
    return generate_broot_trace(internet, BRootParams(
        duration=duration, mean_rate=mean_rate, clients=clients,
        do_fraction=0.75, seed=seed), name="B-Root-17b")
