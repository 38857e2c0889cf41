"""The §2.1 repeatability requirement, demonstrated end to end.

"When an experiment is re-run, the replies to the same set replayed
queries should stay the same ... Some zones hosted at CDNs may have
external factors that influence responses, such as load balancing."

The live hierarchy churns (CDN-style address rotation) between and
after zone construction; the *rebuilt* zones keep answering identically
across replays, and conflicting captured responses resolve
first-one-wins (§2.3).  A fresh construction pass picks up the update.
"""

import pytest

from repro.dns.constants import RRType
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.zone import LookupStatus
from repro.server.responder import DnsResponder
from repro.workloads.internet import ModelInternet
from repro.zonegen import construct_zones, harvest, make_prober

N = Name.from_text

QUERIES = [("dom000.com.", RRType.A), ("dom001.com.", RRType.A),
           ("dom002.net.", RRType.A)]


@pytest.fixture()
def internet():
    return ModelInternet(tlds=3, slds_per_tld=4, seed=51)


def answers_of(zones, qname):
    zone = next(z for z in zones if z.origin == N(qname))
    result = zone.lookup(N(qname), RRType.A)
    assert result.status == LookupStatus.SUCCESS
    return sorted(rd.address for rrset in result.answers
                  for rd in rrset if rrset.rtype == RRType.A)


def test_rotation_changes_live_answers(internet):
    before = internet.ground_truth_resolve(N("dom000.com."), RRType.A)
    before_addr = before.answers[0].rdatas[0].address
    changed = internet.rotate_addresses(fraction=1.0, seed=1)
    assert N("dom000.com.") in changed
    after = internet.ground_truth_resolve(N("dom000.com."), RRType.A)
    assert after.answers[0].rdatas[0].address != before_addr


def test_rotation_reaches_servers_built_before_it(internet):
    """The rotation goes through the zone, so a server's answer cache
    drops what it compiled before: cached and uncached servers agree."""
    zone = internet.zone_by_origin[N("dom000.com.")]
    servers = [DnsResponder(zones=[zone]),
               DnsResponder(zones=[zone], answer_cache=False)]
    query = Message.make_query("dom000.com.", RRType.A).to_wire()

    def served():
        return [Message.from_wire(server.reply_wire(
            "udp", query, "10.0.0.1", 5353)).answer[0].rdatas[0].address
            for server in servers]

    before = served()
    internet.rotate_addresses(fraction=1.0, seed=1)
    rotated = zone.get_rrset(N("dom000.com."), RRType.A).rdatas[0].address
    assert before[0] == before[1] != rotated
    assert served() == [rotated, rotated]


def test_rebuilt_zones_frozen_against_live_churn(internet):
    """Once zones are constructed, live-Internet churn cannot change
    what the experiment serves: replays stay repeatable."""
    capture = harvest(internet, QUERIES)
    zones = construct_zones(capture.responses,
                            prober=make_prober(internet),
                            root_hints=internet.root_hints()).zones
    frozen = {q: answers_of(zones, q) for q, _ in QUERIES}
    internet.rotate_addresses(fraction=1.0, seed=2)
    # The rebuilt zones still answer exactly as before the churn.
    for qname, _ in QUERIES:
        assert answers_of(zones, qname) == frozen[qname]


def test_conflicting_captures_resolve_first_wins(internet):
    """Harvest, churn, harvest again, merge the captures: the §2.3
    rule keeps the FIRST answer for each name."""
    first = harvest(internet, QUERIES)
    original = {q: internet.ground_truth_resolve(N(q), t)
                .answers[0].rdatas[0].address for q, t in QUERIES}
    internet.rotate_addresses(fraction=1.0, seed=3)
    second = harvest(internet, QUERIES)
    merged = first.responses + second.responses
    zones = construct_zones(merged, prober=make_prober(internet),
                            root_hints=internet.root_hints()).zones
    for qname, _ in QUERIES:
        assert answers_of(zones, qname) == [original[qname]]


def test_fresh_construction_pass_picks_up_updates(internet):
    """'If an experiment requires updated zone data, we make an
    additional pass of zone construction.'"""
    harvest(internet, QUERIES)  # first pass, discarded
    internet.rotate_addresses(fraction=1.0, seed=4)
    updated = {q: internet.ground_truth_resolve(N(q), t)
               .answers[0].rdatas[0].address for q, t in QUERIES}
    capture = harvest(internet, QUERIES)
    zones = construct_zones(capture.responses,
                            prober=make_prober(internet),
                            root_hints=internet.root_hints()).zones
    for qname, _ in QUERIES:
        assert answers_of(zones, qname) == [updated[qname]]
