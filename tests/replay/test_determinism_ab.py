"""Determinism A/B: the hot-path machinery must be invisible.

The answer cache exists purely for wall-clock speed; DESIGN.md's
determinism contract says a seeded run's *simulated* behaviour — every
report metric, every query-log entry, every latency — must be
byte-identical whether it is on or off.  These tests pin that on a
seeded B-Root analogue replay (mixed protocols, many clients, unique
query names), which exercises UDP and stream paths and cache hits and
misses.
"""

from repro.experiments.harness import (authoritative_world,
                                       root_zone_world,
                                       wildcard_root_zone)
from repro.workloads.broot import broot16


def run_broot(answer_cache: bool = True):
    internet = root_zone_world(tlds=4, slds_per_tld=4, seed=3)
    zone = wildcard_root_zone(internet)
    trace = broot16(internet, duration=2.0, mean_rate=150, clients=40)
    world = authoritative_world([zone], mode="direct",
                                client_instances=2,
                                queriers_per_instance=3,
                                observe=True,
                                answer_cache=answer_cache, seed=11)
    result = world.run(trace, extra_time=2.0)
    return world, result.report


def test_report_identical_with_answer_cache_on_and_off():
    world_on, on = run_broot(answer_cache=True)
    world_off, off = run_broot(answer_cache=False)
    # The cache must actually have been exercised for this A/B to mean
    # anything: repeated names from repeated clients produce hits.
    cache = world_on.server.answer_cache
    assert cache is not None and cache.hits > 0 and cache.misses > 0
    assert world_off.server.answer_cache is None
    assert on.metrics() == off.metrics()
    assert on.to_json() == off.to_json()
    # Server-side observable state matches entry for entry too.
    assert world_on.server.query_log == world_off.server.query_log
    assert world_on.server.queries_handled == \
        world_off.server.queries_handled
    assert world_on.server.refused == world_off.server.refused


def test_latencies_identical_across_all_four_configurations():
    def latencies(answer_cache):
        return [(r.send_time, r.response_time, r.rcode)
                for r in run_broot(answer_cache)[1].results]

    assert latencies(True) == latencies(False)
