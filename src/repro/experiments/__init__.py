"""Experiment regenerators: one module per paper table/figure.

| module        | regenerates                                        |
|---------------|----------------------------------------------------|
| table1        | Table 1 (trace inventory)                          |
| timing        | Fig 6 (timing error), Fig 7 (interarrival CDF),    |
|               | Fig 8 (per-second rate differences)                |
| throughput    | Fig 9 (single-host fast-replay throughput)         |
| dnssec        | Fig 10 + §5.1 (DNSSEC response bandwidth)          |
| tcp_tls       | Fig 11 (CPU), Fig 13 (TCP mem/conns),              |
|               | Fig 14 (TLS mem/conns)                             |
| latency       | Fig 15a/b/c (latency vs RTT, per-client load)      |
| attack        | extension: DoS what-if (§1's motivating question)  |
| quic          | extension: the §1 QUIC what-if                     |
| zone_growth   | extension: zone-count scaling on one meta-server   |
| resilience    | extension: answered fraction and latency vs loss   |
| failover      | extension: answered fraction vs querier crash time |
| cachepolicy   | extension: resolver-cache capacity x Zipf skew     |

Each module exposes structured run functions plus a ``main()`` that
prints paper-style rows; ``python -m repro.experiments.<module>`` works
for all of them, and ``python -m repro.experiments.report`` runs them
all.  EXPERIMENTS.md records paper-vs-measured values.
"""
