"""Building the meta-DNS-server and its shards: the zone index.

Each zone's nameserver addresses are found by walking the NS target's
ancestors through a by-origin index, not by scanning every zone.  These
tests hold that build to the old full scan (a copy kept here) on three
hierarchies, pin that each address is listed once, and count the work:
Python calls per zone must not grow with the number of zones.
"""

import cProfile
import pstats

import pytest

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.netsim import LinkParams, Simulator
from repro.server import MetaDnsServer, nameserver_addresses
from repro.server.metacluster import MetaDnsCluster
from repro.server.views import ViewSelector
from repro.workloads.internet import ModelInternet
from repro.zonegen import construct_zones, harvest, make_prober

from tests.server.helpers import COM_NS_ADDR, all_zones

N = Name.from_text


# -- the build before the index, kept as the reference -----------------------

def scan_nameserver_addresses(zone, parent_zones):
    """Every zone scanned for every NS target (duplicates included)."""
    ns_rrset = zone.apex_ns
    if ns_rrset is None:
        return []
    addrs = []
    for rdata in ns_rrset.rdatas:
        target = rdata.target
        for z in [zone] + list(parent_zones):
            if not target.is_subdomain_of(z.origin):
                continue
            for rtype in (RRType.A, RRType.AAAA):
                rrset = z.get_rrset(target, rtype)
                if rrset is not None:
                    addrs.extend(rd.address for rd in rrset.rdatas)
    return addrs


def scan_views(zones):
    views = ViewSelector()
    for zone in zones:
        for addr in scan_nameserver_addresses(zone, zones):
            views.add_address_view(addr, [zone])
    return views


def encoded_memory(zone):
    """`Zone.estimated_memory` with every rdata encoded."""
    return sum(rrset.name.wire_length() + 16
               + sum(len(rd.to_wire()) + 32 for rd in rrset.rdatas)
               for rrset in zone.rrsets())


def views_memory(views):
    return sum(encoded_memory(z) for v in views.views for z in v.zones)


def view_shape(views):
    return ([(v.name, [id(z) for z in v.zones]) for v in views.views],
            views.generation)


# -- hierarchies --------------------------------------------------------------

def rebuilt_zones():
    """Zones rebuilt by zonegen, with one nameserver whose address only
    the parent holds and one that lives in a sibling zone."""
    internet = ModelInternet(tlds=3, slds_per_tld=4, seed=21)
    queries = [("host0.dom000.com.", RRType.A),
               ("host0.dom001.com.", RRType.A),
               ("mail.dom000.net.", RRType.A)]
    zones = construct_zones(harvest(internet, queries).responses,
                            prober=make_prober(internet),
                            root_hints=internet.root_hints()).zones
    by_origin = {z.origin: z for z in zones}
    # dom000.net. gains ns9, whose glue sits only in net.
    by_origin[N("dom000.net.")].add(RRset(
        N("dom000.net."), RRType.NS, 86400, [NS(N("ns9.dom000.net."))]))
    by_origin[N("net.")].add(RRset(N("ns9.dom000.net."), RRType.A, 86400,
                                   [A("198.51.100.9")]))
    # dom001.com. shares a nameserver with its sibling dom000.com.
    by_origin[N("dom001.com.")].add(RRset(
        N("dom001.com."), RRType.NS, 86400, [NS(N("ns1.dom000.com."))]))
    return zones


HIERARCHIES = {
    "helpers": all_zones,
    "model": lambda: ModelInternet(tlds=6, slds_per_tld=8, seed=3).zones,
    "rebuilt": rebuilt_zones,
}


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
def test_meta_server_equals_the_full_scan(name):
    zones = HIERARCHIES[name]()
    host = Simulator().add_host("meta", ["10.2.0.2"], LinkParams())
    before = host.meter.memory
    meta = MetaDnsServer(host, zones)
    expected = scan_views(zones)
    assert meta.zone_addresses == {
        z.origin: list(dict.fromkeys(scan_nameserver_addresses(z, zones)))
        for z in zones}
    assert view_shape(meta.views) == view_shape(expected)
    assert host.meter.memory - before == \
        host.meter.cost.server_base + views_memory(expected)


@pytest.mark.parametrize("name, shards",
                         # com.'s only glue is in the root zone, so the
                         # helpers hierarchy cannot be split.
                         [("helpers", 1), ("model", 3), ("rebuilt", 3)])
def test_cluster_equals_the_full_scan(name, shards):
    zones = HIERARCHIES[name]()
    cluster = MetaDnsCluster(Simulator(), zones, shards=shards)
    routes, expected, by_addr = {}, {}, {}
    for server in cluster.servers:
        shard = server.host.addr
        expected[shard] = scan_views(server.zones)
        assert server.host.meter.memory == \
            server.host.meter.cost.server_base \
            + views_memory(expected[shard])
        for zone in server.zones:
            for addr in scan_nameserver_addresses(zone, zones):
                routes.setdefault(addr, shard)
    for zone in zones:
        for addr in scan_nameserver_addresses(zone, zones):
            by_addr.setdefault(addr, []).append(zone)
    for addr, served in by_addr.items():
        for zone in served:
            expected[routes[addr]].add_address_view(addr, [zone])
    assert list(cluster.routes.items()) == list(routes.items())
    for server in cluster.servers:
        assert view_shape(server.views) == \
            view_shape(expected[server.host.addr])


def test_each_address_listed_once():
    """A zone's own glue used to be scanned twice ([zone] + a list that
    already held it), so com. listed its address two or three times."""
    zones = all_zones()
    com = zones[1]
    assert nameserver_addresses(com, parent_zones=zones) == [COM_NS_ADDR]
    internet = ModelInternet(tlds=4, slds_per_tld=3, seed=1)
    meta = MetaDnsServer(
        Simulator().add_host("meta", ["10.2.0.2"], LinkParams()),
        internet.zones)
    for zone in internet.zones:
        addrs = meta.zone_addresses[zone.origin]
        assert len(addrs) == len(set(addrs)) == 2, zone.origin


def test_enclosing_zones_come_in_list_order():
    """Zones that disagree on a target's addresses: the zone's own glue
    first, then the listed zones in list order, not depth order."""
    zones = all_zones()
    com, example, other = zones[1], zones[2], zones[4]
    target = N("ns1.example.com.")
    example.add(RRset(target, RRType.A, 60, [A("203.0.113.7")]))
    com.add(RRset(target, RRType.A, 60, [A("203.0.113.8")]))
    other.add(RRset(other.origin, RRType.NS, 60, [NS(target)]))
    seen = set()
    for zone in (example, other):
        for parents in ([com, example], [example, com]):
            got = nameserver_addresses(zone, parent_zones=parents)
            assert got == list(dict.fromkeys(
                scan_nameserver_addresses(zone, parents)))
            seen.add(tuple(got))
    assert len(seen) == 3   # own-first, com-first, example-first


# -- work per zone ------------------------------------------------------------

def calls(build):
    profile = cProfile.Profile()
    profile.enable()
    build()
    profile.disable()
    return pstats.Stats(profile).total_calls


def meta_build(zones):
    sim = Simulator()
    MetaDnsServer(sim.add_host("meta", ["10.2.0.2"], LinkParams()), zones)


def cluster_build(zones):
    MetaDnsCluster(Simulator(), zones, shards=3)


@pytest.fixture(scope="module")
def hierarchies():
    return [ModelInternet(tlds=20, slds_per_tld=slds).zones
            for slds in (20, 80)]


@pytest.mark.parametrize("build", [meta_build, cluster_build])
def test_build_calls_per_zone_are_flat(hierarchies, build):
    """421 and 1,621 zones: the full scan read 3.0x/3.5x more calls per
    zone at the larger size; the index stays within 1.15x."""
    small, large = (calls(lambda: build(zones)) / len(zones)
                    for zones in hierarchies)
    assert large <= small * 1.15, (small, large)
