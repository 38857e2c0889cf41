"""DNS server applications running on simulated hosts.

* :class:`AuthoritativeServer` — BIND/NSD stand-in with referral logic,
  EDNS, truncation, DNSSEC attachment, and split-horizon views.
* :class:`MetaDnsServer` — the §2.4 meta-DNS-server emulating the whole
  hierarchy from one server instance and one address.
* :class:`RecursiveResolver` — caching iterative resolver that walks the
  hierarchy and serves stub clients.
* :class:`DnsResponder` — the transport-independent answering core the
  servers (and the live replay backend) are built on.
"""

from repro.server.authoritative import AuthoritativeServer
from repro.server.cache import CacheConfig, DnsCache
from repro.server.metacluster import MetaDnsCluster, RoutingProxy
from repro.server.metadns import MetaDnsServer, nameserver_addresses
from repro.server.recursive import RecursiveResolver, RootHint
from repro.server.responder import DnsResponder, QueryLog, QueryLogEntry
from repro.server.views import (View, ViewSelector, catch_all_view,
                                prefix_match)

__all__ = [
    "AuthoritativeServer", "CacheConfig", "DnsCache", "DnsResponder",
    "MetaDnsCluster",
    "MetaDnsServer", "QueryLog", "QueryLogEntry", "RecursiveResolver",
    "RootHint",
    "RoutingProxy", "View", "ViewSelector", "catch_all_view",
    "nameserver_addresses", "prefix_match",
]
