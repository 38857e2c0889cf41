"""`ZoneConstructor.scan()` is linear: one pass for NS names, one for
their addresses.  The first pass used to try addresses too, rebuilding
the set of every NS target per A/AAAA RRset (quadratic: 0.75 s on 6,294
responses / 493 zones) to find a subset of what the second pass finds.
"""

import random

from repro.dns.constants import RRType
from repro.workloads.internet import ModelInternet
from repro.zonegen.constructor import ZoneConstructor
from repro.zonegen.harvest import harvest


def scan_with_old_first_pass(constructor):
    """The pre-1.10.0 `scan()`, kept as the reference."""
    def maybe_ns_address(rrset):
        ns_targets = {t for targets in constructor.ns_names.values()
                      for t in targets}
        if rrset.name in ns_targets:
            addrs = constructor.ns_addrs.setdefault(rrset.name, set())
            addrs.update(r.address for r in rrset.rdatas)

    for captured in constructor.responses:
        for rrset in captured.message.all_rrsets():
            if rrset.rtype == RRType.NS:
                targets = constructor.ns_names.setdefault(rrset.name, set())
                for rdata in rrset.rdatas:
                    targets.add(rdata.target)
            elif rrset.rtype in (RRType.A, RRType.AAAA):
                maybe_ns_address(rrset)
    ns_targets = {t for targets in constructor.ns_names.values()
                  for t in targets}
    for captured in constructor.responses:
        for rrset in captured.message.all_rrsets():
            if rrset.rtype in (RRType.A, RRType.AAAA) \
                    and rrset.name in ns_targets:
                addrs = constructor.ns_addrs.setdefault(rrset.name, set())
                addrs.update(r.address for r in rrset.rdatas)


def test_scan_equals_the_old_two_pass_scan():
    internet = ModelInternet(tlds=4, slds_per_tld=5, seed=8)
    rng = random.Random(3)
    queries = [(internet.random_qname(rng, 0.1), qtype)
               for _ in range(80) for qtype in (RRType.A, RRType.AAAA)]
    responses = harvest(internet, queries).responses
    new = ZoneConstructor(responses, root_hints=internet.root_hints())
    old = ZoneConstructor(responses, root_hints=internet.root_hints())
    new.scan()
    scan_with_old_first_pass(old)
    assert new.ns_names == old.ns_names
    assert new.ns_addrs == old.ns_addrs
    assert len(new.ns_names) > 20 and len(new.ns_addrs) > 20
