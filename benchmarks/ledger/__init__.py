"""The performance ledger: one layered benchmark for the whole repo.

Seven named workloads, end-to-end metrics with fixed regression
bounds, and per-layer attribution from a separate traced run.  The
repo-root ``BENCHMARK.json`` declares the workloads and every metric
name; this package measures them.  README.md in this directory is the
catalogue: what each number means, which layer should move which
end-to-end metric on which workload, and how to run and compare.

Everything here drives the program under test from outside, through
public functions and public counters only, so that refactors of
private names cannot break a benchmark they are not allowed to edit.
"""
