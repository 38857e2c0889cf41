"""Tests for the model Internet hierarchy."""

import pytest

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.zone import LookupStatus
from repro.workloads.internet import AddressAllocator, ModelInternet

N = Name.from_text


@pytest.fixture(scope="module")
def internet():
    return ModelInternet(tlds=4, slds_per_tld=5, seed=1)


def test_address_allocator_unique():
    alloc = AddressAllocator()
    addrs = [alloc.allocate() for _ in range(1000)]
    assert len(set(addrs)) == 1000
    assert all(a.startswith("198.1") for a in addrs)


def test_zone_inventory(internet):
    # root + 4 TLDs + 4*5 SLDs
    assert internet.zone_count() == 1 + 4 + 20
    assert len(internet.domains) == 20


def test_all_zones_valid(internet):
    for zone in internet.zones:
        assert zone.validate() == [], zone.origin.to_text()


def test_root_delegates_tlds(internet):
    result = internet.root_zone.lookup(N("www.dom000.com."), RRType.A)
    assert result.status == LookupStatus.DELEGATION
    assert result.authority[0].name == N("com.")
    assert result.additional  # glue present


def test_ground_truth_resolve_success(internet):
    result = internet.ground_truth_resolve(N("host0.dom001.com."),
                                           RRType.A)
    assert result.status == LookupStatus.SUCCESS


def test_ground_truth_resolve_cname(internet):
    result = internet.ground_truth_resolve(N("www.dom000.net."), RRType.A)
    assert result.status in (LookupStatus.SUCCESS, LookupStatus.CNAME)
    assert result.answers[0].rtype == RRType.CNAME


def test_ground_truth_resolve_nxdomain(internet):
    result = internet.ground_truth_resolve(N("nope.dom000.com."),
                                           RRType.A)
    assert result.status == LookupStatus.NXDOMAIN


def test_nameserver_addresses_unique_across_hierarchy(internet):
    seen = list(internet.zones_by_addr)
    assert len(seen) == len(set(seen))
    # Every zone reachable from at least one address.
    covered = {z.origin for zones in internet.zones_by_addr.values()
               for z in zones}
    assert covered == {z.origin for z in internet.zones}


def test_random_qname_resolvable(internet):
    import random
    rng = random.Random(5)
    for _ in range(50):
        qname = internet.random_qname(rng, junk_probability=0.0)
        result = internet.ground_truth_resolve(N(qname), RRType.A)
        assert result.status in (LookupStatus.SUCCESS, LookupStatus.CNAME,
                                 LookupStatus.NODATA)


def test_random_qname_junk_is_nxdomain(internet):
    import random
    rng = random.Random(6)
    qname = internet.random_qname(rng, junk_probability=1.0)
    result = internet.ground_truth_resolve(N(qname), RRType.A)
    assert result.status == LookupStatus.NXDOMAIN


def test_sign_all_root_only():
    internet = ModelInternet(tlds=2, slds_per_tld=2, seed=2)
    internet.sign_all(zsk_bits=2048, root_only=True)
    assert internet.root_zone.is_signed()
    assert not internet.domains[0].zone.is_signed()


def test_sign_all_installs_ds():
    internet = ModelInternet(tlds=2, slds_per_tld=2, seed=3)
    internet.sign_all(zsk_bits=2048)
    assert internet.root_zone.get_rrset(N("com."), RRType.DS) is not None
    tld = internet.zone_by_origin[N("com.")]
    assert tld.get_rrset(N("dom000.com."), RRType.DS) is not None


def test_deterministic_under_seed():
    a = ModelInternet(tlds=2, slds_per_tld=3, seed=9)
    b = ModelInternet(tlds=2, slds_per_tld=3, seed=9)
    assert [z.origin for z in a.zones] == [z.origin for z in b.zones]
    assert list(a.zones_by_addr) == list(b.zones_by_addr)
