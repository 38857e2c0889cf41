"""Tests for resource metering and the jitter model."""

import pytest

from repro.netsim.clock import Scheduler
from repro.netsim.jitter import (TIMER_SLOP_MAX, NullSendPath,
                                 SendPathModel)
from repro.netsim.resources import (CostModel, PeriodicSampler,
                                    ResourceMeter)


def test_alloc_free_balance():
    meter = ResourceMeter()
    meter.alloc(100)
    meter.alloc(50)
    meter.free(100)
    assert meter.memory == 50
    with pytest.raises(RuntimeError):
        meter.free(51)


def test_cpu_utilization_window():
    sched = Scheduler()
    meter = ResourceMeter(cores=4)
    meter.take_sample(0.0)
    meter.charge_cpu(2.0)  # 2 core-seconds
    sched.now = 10.0
    sample = meter.take_sample(10.0)
    # 2 busy core-seconds over a 10 s window on 4 cores = 5%.
    assert sample.cpu_utilization == pytest.approx(0.05)


def test_utilization_resets_each_window():
    meter = ResourceMeter(cores=1)
    meter.take_sample(0.0)
    meter.charge_cpu(1.0)
    meter.take_sample(10.0)
    sample = meter.take_sample(20.0)
    assert sample.cpu_utilization == 0.0


def test_traffic_buckets_and_bandwidth_series():
    meter = ResourceMeter()
    meter.count_out(0.5, 125_000)   # 1 Mbit in second 0
    meter.count_out(1.2, 250_000)   # 2 Mbit in second 1
    meter.count_out(3.9, 125_000)   # second 3; second 2 empty
    series = meter.bandwidth_series_mbps("out")
    assert series == pytest.approx([1.0, 2.0, 0.0, 1.0])


def test_rate_series_counts_packets():
    meter = ResourceMeter()
    for t in (0.1, 0.2, 0.3, 1.5):
        meter.count_in(t, 100)
    assert meter.rate_series("in") == [3, 1]


def test_periodic_sampler():
    sched = Scheduler()
    meter = ResourceMeter()
    PeriodicSampler(sched, meter, interval=10.0)
    meter.alloc(42)
    sched.at(100.0, lambda: None)
    sched.run(until=35.0)
    assert len(meter.samples) == 3
    assert all(s.memory == 42 for s in meter.samples)


def test_cost_model_defaults_are_sane():
    cost = CostModel()
    # TCP per-query cheaper than UDP (the §5.2.3 offload surprise).
    assert cost.tcp_query < cost.udp_query
    # TLS adds noticeable but not multiple memory over TCP (aggregate
    # server memory lands ~30% above all-TCP in the Fig 14 experiment).
    ratio = (cost.tcp_connection + cost.tls_session) / cost.tcp_connection
    assert 1.2 < ratio < 1.8


def test_null_sendpath_is_perfect():
    path = NullSendPath()
    assert path.timer_slop(0.1) == 0.0
    assert path.occupy(5.0) == 5.0


def test_sendpath_deterministic_under_seed():
    a = SendPathModel(seed=7)
    b = SendPathModel(seed=7)
    assert [a.timer_slop(0.01) for _ in range(10)] == \
        [b.timer_slop(0.01) for _ in range(10)]


def test_timer_slop_bounded():
    path = SendPathModel(seed=1)
    slops = [path.timer_slop(0.01) for _ in range(2000)]
    assert all(abs(s) <= TIMER_SLOP_MAX for s in slops)
    # Quartiles should be in the low-millisecond range (Fig 6).
    slops.sort()
    q3 = slops[int(len(slops) * 0.75)]
    assert 0.0005 < q3 < 0.006


def test_resonance_band_inflates_slop():
    path = SendPathModel(seed=2)
    inside = [abs(path.timer_slop(0.1)) for _ in range(3000)]
    path2 = SendPathModel(seed=2)
    outside = [abs(path2.timer_slop(0.01)) for _ in range(3000)]
    inside.sort()
    outside.sort()
    assert inside[len(inside) // 2] > outside[len(outside) // 2] * 1.5


def test_occupy_serializes_sends():
    path = SendPathModel(seed=3, send_cost_mean=100e-6)
    first = path.occupy(0.0)
    second = path.occupy(0.0)
    assert first == 0.0
    assert second > 0.0  # queued behind the first send
    # After the queue drains, sends at a later time go immediately.
    later = path.occupy(10.0)
    assert later == 10.0
