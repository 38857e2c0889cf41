"""The cache-policy sweep's acceptance bar (docs/RECURSIVE.md): a
bounded LRU at capacity >= working-set size stays within 5% of the
unbounded hit ratio while actually bounding entries and memory.  The
sweep is seeded, so these numbers are identical on every machine."""

from repro.experiments.cachepolicy import (WORKING_SET,
                                           lru_vs_unbounded_gap, sweep)


def test_lru_at_working_set_stays_within_five_percent_of_unbounded():
    cells = sweep(capacities=(None, WORKING_SET, WORKING_SET // 8),
                  skews=(1.0,), lookups=20_000)
    by_cap = {cell.capacity: cell for cell in cells}
    unbounded, at_ws, small = (by_cap[None], by_cap[WORKING_SET],
                               by_cap[WORKING_SET // 8])
    assert lru_vs_unbounded_gap(cells, capacity=WORKING_SET) <= 0.05
    assert at_ws.entries <= WORKING_SET
    assert small.entries <= WORKING_SET // 8
    assert small.memory_bytes < unbounded.memory_bytes
    # Shrinking capacity below the working set must cost hits.
    assert small.hit_ratio < at_ws.hit_ratio
