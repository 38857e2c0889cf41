"""Tests for the event scheduler."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.clock import Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.at(3.0, fired.append, "c")
    sched.at(1.0, fired.append, "a")
    sched.at(2.0, fired.append, "b")
    sched.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert sched.now == 3.0


def test_ties_break_by_insertion_order():
    sched = Scheduler()
    fired = []
    for tag in "abc":
        sched.at(1.0, fired.append, tag)
    sched.run_until_idle()
    assert fired == ["a", "b", "c"]


def test_after_is_relative():
    sched = Scheduler()
    fired = []
    sched.at(5.0, lambda: sched.after(2.0, fired.append, "x"))
    sched.run_until_idle()
    assert fired == ["x"]
    assert sched.now == 7.0


def test_cancelled_events_do_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.at(1.0, fired.append, "x")
    event.cancel()
    sched.run_until_idle()
    assert fired == []


def test_run_until_stops_clock_at_bound():
    sched = Scheduler()
    sched.at(10.0, lambda: None)
    sched.run(until=4.0)
    assert sched.now == 4.0
    sched.run(until=20.0)
    assert sched.now == 20.0
    assert sched.events_processed == 1


def test_past_events_clamp_to_now():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run_until_idle()
    times = []
    sched.at(1.0, lambda: times.append(sched.now))
    sched.run_until_idle()
    assert times == [5.0]


def test_events_scheduled_during_run_execute():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sched.after(1.0, chain, n + 1)

    sched.at(0.0, chain, 0)
    sched.run_until_idle()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_max_events_limit():
    sched = Scheduler()
    for i in range(10):
        sched.at(float(i), lambda: None)
    sched.run(max_events=3)
    assert sched.events_processed == 3


def test_run_until_idle_raises_at_its_cap_with_work_pending():
    # A cap reached with live events left is a truncated run, not an
    # idle one: returning quietly would drop the tail of a long trace.
    sched = Scheduler()
    for i in range(20):
        sched.at(float(i), lambda: None)
    with pytest.raises(RuntimeError, match=r"max_events cap \(10\) "
                       r"with 10 live events"):
        sched.run_until_idle(max_events=10)
    assert sched.events_processed == 10


def test_run_until_idle_cap_ignores_daemon_and_cancelled_leftovers():
    sched = Scheduler()
    for i in range(10):
        sched.at(float(i), lambda: None)
    sched.at(20.0, lambda: None).cancel()
    sched.at(30.0, lambda: None, daemon=True)
    sched.run_until_idle(max_events=10)
    assert sched.events_processed == 10


def test_daemon_events_do_not_keep_loop_alive():
    sched = Scheduler()
    fired = []

    def periodic():
        fired.append(sched.now)
        sched.after(10.0, periodic, daemon=True)

    sched.after(10.0, periodic, daemon=True)
    sched.at(25.0, lambda: None)  # the only non-daemon work
    sched.run_until_idle()
    # The daemon ticked while real work was pending, then the loop
    # stopped instead of ticking forever.
    assert fired == [10.0, 20.0]
    assert sched.now <= 25.0


def test_daemon_events_run_within_bounded_window():
    sched = Scheduler()
    ticks = []

    def periodic():
        ticks.append(sched.now)
        sched.after(1.0, periodic, daemon=True)

    sched.after(1.0, periodic, daemon=True)
    sched.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_leaves_later_events_pending():
    sched = Scheduler()
    fired = []
    sched.at(5.0, fired.append, "later")
    sched.run(until=1.0)
    assert sched.now == 1.0
    assert fired == []
    sched.run_until_idle()
    assert fired == ["later"]


def test_run_until_in_the_past_keeps_the_clock():
    """run(until=t) with t behind the clock must not move it back,
    also when an event is still pending beyond t."""
    sched = Scheduler()
    fired = []
    sched.at(10.0, fired.append, "far")
    sched.run(until=4.0)
    sched.run(until=2.0)
    assert sched.now == 4.0
    sched.after(1.0, lambda: fired.append(sched.now))
    sched.run_until_idle()
    assert fired == [5.0, "far"]


# -- model-based: random scripts against a reference scheduler ----------


class ModelEvent:
    def __init__(self, time, order, fn, args, daemon):
        self.time, self.order, self.fn, self.daemon = time, order, fn, daemon
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ModelScheduler:
    """The Scheduler contract over a list re-sorted by (time, insertion)
    on every insert: no heap, no live counter."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.queue = []
        self.inserted = 0

    def at(self, time, fn, *args, daemon=False):
        event = ModelEvent(max(time, self.now), self.inserted, fn, args,
                           daemon)
        self.inserted += 1
        self.queue.append(event)
        self.queue.sort(key=lambda e: (e.time, e.order))
        return event

    def after(self, delay, fn, *args, daemon=False):
        return self.at(self.now + max(0.0, delay), fn, *args, daemon=daemon)

    def run(self, until=None, max_events=None):
        fired = 0
        while self.queue:
            if max_events is not None and fired >= max_events:
                return
            if until is None and all(e.daemon for e in self.queue):
                return
            if until is not None and self.queue[0].time > until:
                break
            event = self.queue.pop(0)
            if not event.cancelled:
                self.now = event.time
                event.fn(*event.args)
                self.events_processed += 1
                fired += 1
        if until is not None:
            self.now = max(self.now, until)

    def run_until_idle(self):
        self.run()


def play(sched, script) -> list:
    """Drive *sched* through *script*; return everything observable:
    each firing with its time, and per step (now, events_processed)
    and every handle's read surface — pending, fired or cancelled."""
    log = []
    handles = []
    labels = itertools.count()

    def schedule(method, when, daemon, on_fire):
        label = next(labels)

        def fire(fired):
            log.append(("fire", fired, sched.now))
            for action in on_fire:
                act(action)

        handles.append(method(when, fire, label, daemon=daemon))

    def act(action):
        if isinstance(action, tuple):   # re-entrant scheduling
            schedule(sched.after, *action)
        elif handles:                   # cancel: pending, fired or cancelled
            handles[action % len(handles)].cancel()

    for op, *args in script:
        if op == "at":
            schedule(sched.at, *args[0])
        elif op == "act":
            act(args[0])
        elif op == "run":
            delta, max_events = args
            sched.run(until=None if delta is None else sched.now + delta,
                      max_events=max_events)
        else:
            sched.run_until_idle()
        log.append(("step", sched.now, sched.events_processed,
                    [(h.time, h.args, h.cancelled, h.daemon)
                     for h in handles]))
    return log


# Ties, a microsecond, packet- and second-scale delays, and timers
# beyond TCP idle and TIME_WAIT.
OFFSETS = (0.0, 1e-6, 1 / 64, 1.0, 100.0, 300.0)
offsets = st.sampled_from(OFFSETS)
cancels = st.integers(0, 63)
# (delay or absolute time, daemon, actions run when it fires)
event_specs = st.recursive(
    st.tuples(offsets, st.booleans(), st.just(())),
    lambda inner: st.tuples(
        offsets, st.booleans(),
        st.lists(inner | cancels, max_size=3).map(tuple)),
    max_leaves=6)
scripts = st.lists(st.one_of(
    st.tuples(st.just("at"), event_specs),
    st.tuples(st.just("act"), event_specs | cancels),
    st.tuples(st.just("run"),
              st.none() | st.sampled_from((-1.0, -1e-6) + OFFSETS),
              st.none() | st.integers(0, 4)),
    st.just(("idle",))), max_size=30)


# max_examples comes from the loaded profile, so the CI fuzz job's
# seeded sweep can deepen this.
@settings(deadline=None)
@given(scripts)
def test_scheduler_matches_reference_model(script):
    assert play(Scheduler(), script) == play(ModelScheduler(), script)
