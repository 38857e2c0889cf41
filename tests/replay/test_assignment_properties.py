"""Property tests for the pin table (repro.replay.supervisor.Pins).

Two invariants the supervised replay depends on:

* **Stability** — when a querier dies, only *its* sources move; every
  source pinned to a survivor keeps its querier.  This is what makes
  failover safe for per-source sockets and connection reuse.
* **Balance** — after any crash sequence, no survivor carries more
  than twice its fair share of sources (rendezvous hashing spreads the
  dead querier's sources instead of dumping them on one successor).

Both are drawn over crash orders on a bare :class:`Pins`; one
engine-level case of each goes through ``Supervisor.fail``.
"""

import json
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.netsim import LinkParams, Simulator
from repro.replay import ReplayConfig, ReplayEngine
from repro.replay.supervisor import Pins, SupervisionConfig, surviving
from repro.server import AuthoritativeServer

from tests.replay.test_engine import wildcard_example_zone


class Member:
    """What a pin table needs of a member: a name and a liveness flag."""

    def __init__(self, name: str):
        self.name = name
        self.crashed = False


def members(count: int) -> list[Member]:
    return [Member(f"querier-0.{i}") for i in range(count)]


def sources(count: int, seed: int) -> list[str]:
    # Deterministic synthetic client addresses: the property must hold
    # for arbitrary source sets, but we derive them from a drawn seed
    # rather than letting the strategy hand-craft strings, so shrinking
    # explores crash orders, not CRC-32 collisions.
    return [f"172.{(seed + i) % 31 + 1}.{i // 250}.{i % 250}"
            for i in range(count)]


def crash(pins: Pins, victim) -> None:
    victim.crashed = True
    pins.repin(victim)


def assert_balanced(pins: Pins, n_sources: int) -> None:
    survivors = [m for m in pins.members if not m.crashed]
    counts = Counter(member.name for member in pins.table.values())
    assert sum(counts.values()) == n_sources
    fair_share = n_sources / len(survivors)
    for member in survivors:
        assert counts[member.name] <= 2 * fair_share, (counts, fair_share)


@settings(max_examples=25, deadline=None)
@given(queriers=st.integers(2, 6), seed=st.integers(0, 999),
       n_sources=st.integers(20, 120), data=st.data())
def test_repinning_never_moves_a_survivors_source(queriers, seed,
                                                  n_sources, data):
    pins = Pins(members(queriers), seed)
    for src in sources(n_sources, seed):
        pins.member_for(src)
    crashes = data.draw(st.integers(1, queriers - 1))
    order = data.draw(st.permutations(range(queriers)))[:crashes]
    for index in order:
        victim = pins.members[index]
        survivors_before = {src: owner
                            for src, owner in pins.table.items()
                            if owner is not victim and not owner.crashed}
        crash(pins, victim)
        for src, owner in survivors_before.items():
            assert pins.table[src] is owner, \
                f"{src} moved off surviving {owner.name}"
        # Nothing left pinned to the dead querier.
        assert not any(owner is victim for owner in pins.table.values())


@settings(max_examples=25, deadline=None)
@given(queriers=st.integers(2, 6), seed=st.integers(0, 999),
       data=st.data())
def test_assignment_stays_balanced_after_crashes(queriers, seed, data):
    n_sources = 40 * queriers
    pins = Pins(members(queriers), seed)
    for src in sources(n_sources, seed):
        pins.member_for(src)
    crashes = data.draw(st.integers(0, queriers - 1))
    order = data.draw(st.permutations(range(queriers)))[:crashes]
    for index in order:
        crash(pins, pins.members[index])
    assert_balanced(pins, n_sources)


def test_unsticky_pins_nothing_and_draws_every_call():
    team = members(3)
    pins = Pins(team, seed=4, sticky=False)
    reference = random.Random(4)
    assert [pins.member_for("172.16.0.1") for _ in range(40)] == \
        [reference.choice(team) for _ in range(40)]
    assert pins.table == {}


def test_a_first_draw_on_a_crashed_member_goes_to_its_survivor():
    team = members(3)
    random.Random(5).choice(team).crashed = True
    pins = Pins(team, seed=5)
    owner = pins.member_for("172.16.0.1")
    assert not owner.crashed
    assert owner is surviving("172.16.0.1", team)
    assert pins.table == {"172.16.0.1": owner}


def test_live_moves_a_source_off_a_crashed_member_without_drawing():
    team = members(3)
    pins = Pins(team, seed=6)
    owner = pins.member_for("172.16.0.1")
    owner.crashed = True
    state = pins.rng.getstate()
    moved = pins.live("172.16.0.1")
    assert moved is surviving("172.16.0.1", team) and moved is not owner
    # A source nobody pinned goes to its surviving choice, no draw.
    assert pins.live("172.16.0.2") is surviving("172.16.0.2", team)
    assert pins.rng.getstate() == state


def test_actor_names_who_dies_for_a_member():
    """The controller's members are channels; their distributor dies."""
    class Channel:
        def __init__(self, distributor):
            self.distributor = distributor
    distributors = members(3)
    pins = Pins([Channel(d) for d in distributors], seed=7,
                actor=lambda channel: channel.distributor)
    for src in sources(60, 7):
        pins.member_for(src)
    victim = distributors[0]
    crash(pins, victim)
    assert pins.table
    assert all(channel.distributor is not victim
               for channel in pins.table.values())


def test_state_round_trip_continues_the_draw_sequence():
    srcs = sources(60, 8)
    pins = Pins(members(4), seed=8)
    for src in srcs[:30]:
        pins.member_for(src)
    clone = Pins(members(4), seed=0)
    clone.load(json.loads(json.dumps(pins.state())))
    names = {src: member.name for src, member in pins.table.items()}
    assert {src: m.name for src, m in clone.table.items()} == names
    for src in srcs[30:]:
        assert clone.member_for(src).name == pins.member_for(src).name


# -- one engine-level case of each property ---------------------------------


def build_engine(queriers: int, seed: int) -> ReplayEngine:
    sim = Simulator()
    server_host = sim.add_host("server", ["10.0.0.2"], LinkParams())
    AuthoritativeServer(server_host, zones=[wildcard_example_zone()])
    return ReplayEngine(sim, "10.0.0.2", ReplayConfig(
        client_instances=1, queriers_per_instance=queriers,
        seed=seed, supervision=SupervisionConfig()))


def test_supervisor_failover_moves_only_the_dead_queriers_sources():
    engine = build_engine(queriers=4, seed=17)
    pins = engine.distributors[0].pins
    for src in sources(80, 17):
        pins.member_for(src)
    victim = pins.members[1]
    survivors_before = {src: owner for src, owner in pins.table.items()
                        if owner is not victim}
    engine.supervisor.fail(victim.name)
    assert victim.crashed
    for src, owner in survivors_before.items():
        assert pins.table[src] is owner
    assert not any(owner is victim for owner in pins.table.values())


def test_supervisor_failover_keeps_the_table_balanced():
    engine = build_engine(queriers=5, seed=19)
    pins = engine.distributors[0].pins
    for src in sources(200, 19):
        pins.member_for(src)
    for index in (3, 0):
        engine.supervisor.fail(pins.members[index].name)
    assert_balanced(pins, 200)
