"""Count guard for the server's wire-level miss path (docs/BACKENDS.md).

No timing: calls of the full decoder, of the one encoder
(``dns.message.encode``, under ``Message.to_wire`` too) and of
``Zone.lookup`` are counted while a responder answers names it has
never seen.  With the precompiled-answer cache on, junk inside one NSEC
gap, names under one cut and unsigned NODATA cost one lookup each, no
decode and one encode per template; with cookies configured, or with
``answer_cache=False``, every query pays the full codec.  A change that
quietly puts ``Message.from_wire`` or an encode back on the per-query
path fails here.  Also here: what invalidates the templates, and what
bounds them.
"""

import inspect
from collections import Counter

import pytest

from repro.dns import message as message_module
from repro.dns.constants import RRType
from repro.dns.message import Edns, Message
from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.zone import Zone, make_soa
from repro.experiments.harness import root_zone_world
from repro.server import answercache, responder as responder_module
from repro.server.overload import CookieConfig, OverloadConfig, RrlConfig
from repro.server.responder import DnsResponder
from repro.server.views import ViewSelector, catch_all_view

CLIENT = ("192.0.2.77", 4242)
N = 40


def signed_root() -> Zone:
    internet = root_zone_world(tlds=3, slds_per_tld=2, seed=3)
    internet.sign_all(root_only=True)
    return internet.root_zone


def a_cut(zone: Zone) -> Name:
    return next(name for name in sorted(zone.names())
                if name != zone.origin and zone.get_rrset(name, RRType.NS))


def query(qname, msg_id=0, do=True) -> bytes:
    if isinstance(qname, str):
        qname = Name.from_text(qname)
    return Message.make_query(qname, RRType.A, msg_id=msg_id,
                              edns=Edns(payload=4096, do=do)).to_wire()


def junk_in_one_gap(zone: Zone) -> list[bytes]:
    """N distinct non-existent TLDs of several lengths that sort after
    every name in the zone: one pair of covering NSEC owners."""
    return [query(f"zzzz{'y' * (i % 7)}{i}.", i) for i in range(N)]


def names_under_one_cut(zone: Zone) -> list[bytes]:
    cut = a_cut(zone).to_text()
    return [query(f"host{i}.{'sub.' * (i % 3)}{cut}", i) for i in range(N)]


def wildcard_zone() -> Zone:
    """Unsigned, one wildcard A: any name below it exists, and has no
    AAAA."""
    origin = Name.from_text("nodata.test.")
    zone = Zone(origin)
    zone.add(make_soa(origin))
    zone.add(RRset(origin, RRType.NS, 3600, [NS(origin.prepend(b"ns1"))]))
    zone.add(RRset(origin.prepend(b"*"), RRType.A, 300, [A("192.0.2.1")]))
    return zone


@pytest.fixture
def calls(monkeypatch):
    """Calls of the full decoder, the one encoder and the lookup."""
    counted = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return original(*args, **kwargs)
        # getattr bound a classmethod to its class already.
        monkeypatch.setattr(owner, name, staticmethod(wrapper)
                            if inspect.ismethod(original) else wrapper)

    count(Message, "from_wire")
    count(message_module, "encode")     # what Message.to_wire calls
    count(responder_module, "encode")   # the miss path's direct encode
    count(Zone, "lookup")
    return counted


def answer(responder, queries, calls):
    calls.clear()       # building the queries used the encoder
    out = [responder.reply_wire("udp", wire, *CLIENT) for wire in queries]
    assert None not in out
    return dict(calls)


@pytest.mark.parametrize("make", [junk_in_one_gap, names_under_one_cut])
def test_unseen_names_cost_one_lookup_and_no_codec(make, calls):
    zone = signed_root()
    responder = DnsResponder(zones=[zone])
    counted = answer(responder, make(zone), calls)
    # One result, one set of flags, one matched suffix: one template,
    # encoded straight from the lookup result.
    assert counted == {"lookup": N, "encode": 1}
    cache = responder.answer_cache
    assert (cache.template_builds, cache.template_hits) == (1, N - 1)
    assert (cache.hits, cache.misses, len(cache)) == (0, N, 0)
    # A template-made answer is not stored: a second pass splices every
    # response again, one lookup each and still no codec.
    assert answer(responder, make(zone), calls) == {"lookup": N}
    assert (cache.hits, cache.template_hits, len(cache)) == (0, 2 * N - 1, 0)


def test_unsigned_nodata_shares_one_template(calls):
    """N distinct names under one unsigned zone, all NODATA: one shared
    lookup result, so one template build and N - 1 template hits."""
    queries = [Message.make_query(
        Name.from_text(f"host{'x' * (i % 5)}{i}.nodata.test."), RRType.AAAA,
        msg_id=i, rd=True, edns=Edns(payload=1232)).to_wire()
        for i in range(N)]
    responder = DnsResponder(zones=[wildcard_zone()])
    assert answer(responder, queries, calls) == {"lookup": N, "encode": 1}
    cache = responder.answer_cache
    assert (cache.template_builds, cache.template_hits) == (1, N - 1)
    plain = DnsResponder(zones=[wildcard_zone()], answer_cache=False)
    fresh = DnsResponder(zones=[wildcard_zone()])
    assert [fresh.reply_wire("udp", wire, *CLIENT) for wire in queries] \
        == [plain.reply_wire("udp", wire, *CLIENT) for wire in queries]


def test_rrl_alone_rides_the_fast_forms(calls):
    zone = signed_root()
    responder = DnsResponder(zones=[zone], overload=OverloadConfig(
        rrl=RrlConfig(rate=1000.0)))
    assert answer(responder, junk_in_one_gap(zone), calls) == {
        "lookup": N, "encode": 1}


@pytest.mark.parametrize("kwargs", [
    dict(answer_cache=False),
    dict(overload=OverloadConfig(cookies=CookieConfig()))])
def test_plain_engine_and_cookies_pay_the_full_codec(kwargs, calls):
    """``answer_cache=False`` is today's path; the cookie jar needs the
    option, which only the full decoder reads, and the echoed cookie
    makes the body the client's own."""
    zone = signed_root()
    responder = DnsResponder(zones=[zone], **kwargs)
    assert answer(responder, junk_in_one_gap(zone), calls) == {
        "lookup": N, "from_wire": N, "encode": N}


def test_non_plain_queries_take_the_full_decoder(calls):
    zone = signed_root()
    responder = DnsResponder(zones=[zone])
    with_option = [Message.make_query(
        Name.from_text(f"zzzz{i}."), RRType.A, msg_id=i,
        edns=Edns(options=b"\x00\x0a\x00\x08" + bytes(8))).to_wire()
        for i in range(N)]
    assert answer(responder, with_option, calls) == {
        "lookup": N, "from_wire": N, "encode": N}
    assert responder.answer_cache.template_builds == 0


@pytest.mark.parametrize("answer_cache", [True, False])
def test_overlong_qname_gets_no_response(answer_cache):
    """Remote crash before: the decoder let NameError_ out."""
    from tests.dns.test_message_edge_cases import overlong_query
    responder = DnsResponder(zones=[signed_root()],
                             answer_cache=answer_cache)
    for proto in ("udp", "tcp"):
        assert responder.reply_wire(proto, overlong_query(), *CLIENT) is None
    assert responder.queries_handled == 0


# -- invalidation ------------------------------------------------------------

def fresh_bytes(zones_or_views, wire, src=CLIENT[0]):
    kwargs = ({"views": zones_or_views}
              if isinstance(zones_or_views, ViewSelector)
              else {"zones": zones_or_views})
    return DnsResponder(answer_cache=False, **kwargs).reply_wire(
        "udp", wire, src, CLIENT[1])


def mutations(zone: Zone):
    cut = a_cut(zone)
    ns_target = zone.get_rrset(cut, RRType.NS).rdatas[0].target
    yield "an NS added to the cut", RRset(
        cut, RRType.NS, 172800, [NS(cut.prepend(b"extra-ns"))])
    yield "glue added", RRset(cut.prepend(b"extra-ns"), RRType.A, 172800,
                              [A("192.0.2.99")])
    yield "a merge into the glue RRset (TTL differs)", RRset(
        ns_target, RRType.A, 60, [A("192.0.2.98")])
    yield "a TLD that splits the NSEC gap", RRset(
        Name.from_text("zzzz3."), RRType.NS, 172800,
        [NS(Name.from_text("ns.zzzz3."))])


def test_zone_add_mid_stream_invalidates_templates():
    zone = signed_root()
    responder = DnsResponder(zones=[zone])
    probes = junk_in_one_gap(zone)[:8] + names_under_one_cut(zone)[:8]

    def ask(round_):
        # One more letter on the first label each round: new names, so
        # never a full-question hit.
        wires = [wire[:12] + bytes([wire[12] + 1, 97 + round_]) + wire[13:]
                 for wire in probes]
        return wires, [responder.reply_wire("udp", w, *CLIENT)
                       for w in wires]

    ask(0)
    assert responder.answer_cache.template_hits > 0
    for round_, (what, rrset) in enumerate(mutations(zone), start=1):
        zone.add(rrset)
        wires, got = ask(round_)
        assert got == [fresh_bytes([zone], w) for w in wires], what
    assert responder.answer_cache.hits == 0


def test_view_change_answers_like_a_fresh_responder():
    signed, other = signed_root(), root_zone_world(
        tlds=3, slds_per_tld=2, seed=4).root_zone
    views = ViewSelector([catch_all_view([signed])])
    responder = DnsResponder(views=views)
    wires = junk_in_one_gap(signed)
    for wire in wires[:10]:
        responder.reply_wire("udp", wire, *CLIENT)
    views.add_address_view(CLIENT[0], [other])  # now wins for CLIENT
    for wire in wires[10:20]:
        assert responder.reply_wire("udp", wire, *CLIENT) == \
            fresh_bytes(views, wire)
        assert responder.reply_wire("udp", wire, "192.0.2.1", 9) == \
            fresh_bytes(views, wire, "192.0.2.1")


# -- the bound ---------------------------------------------------------------

def test_template_store_is_bounded_under_a_sweep(monkeypatch):
    """Every suffix of an NS target x flags is its own template, at 240
    qname lengths each: the store never passes its constant, evicts
    first-in first-out, and the bytes stay the plain engine's."""
    monkeypatch.setattr(answercache, "TEMPLATE_STORE", 8)
    zone = signed_root()
    cut = a_cut(zone)
    target = zone.get_rrset(cut, RRType.NS).rdatas[0].target
    responder = DnsResponder(zones=[zone])
    plain = DnsResponder(zones=[zone], answer_cache=False)
    cache = responder.answer_cache
    flags = [(rd, edns) for rd in (False, True)
             for edns in (None, Edns(do=True), Edns(do=False))]
    asked = 0
    for suffix in target.ancestors():
        if not suffix.is_subdomain_of(cut):
            break
        for pad in range(min(240, 253 - suffix.wire_length())):
            labels = [b"p" * min(63, pad - at) for at in range(0, pad, 64)]
            rd, edns = flags[pad % len(flags)]
            wire = Message.make_query(
                Name(tuple(labels) + suffix.labels), RRType.A,
                msg_id=asked & 0xFFFF, rd=rd, edns=edns).to_wire()
            assert responder.reply_wire("tcp", wire, *CLIENT) == \
                plain.reply_wire("tcp", wire, *CLIENT)
            asked += 1
            assert len(cache.templates) <= 8
    assert len(cache.templates) == 8 < cache.template_builds
    assert cache.template_hits > asked // 2


def test_shifted_tails_are_bounded_under_a_sweep_of_lengths():
    """One template asked at every qname length: each question end's
    moved tail is kept until the memo holds its constant, first-in
    first-out beyond, and the bytes stay the plain engine's."""
    zone = signed_root()
    cut = a_cut(zone)
    responder = DnsResponder(zones=[zone])
    plain = DnsResponder(zones=[zone], answer_cache=False)
    ends = set()
    for pad in range(1, 250 - cut.wire_length()):
        whole, rest = divmod(pad, 63)
        labels = [b"p" * 63] * whole + ([b"p" * rest] if rest else [])
        qname = Name(tuple(labels) + cut.labels)
        ends.add(12 + qname.wire_length() + 4)
        wire = query(qname, pad)
        assert responder.reply_wire("tcp", wire, *CLIENT) == \
            plain.reply_wire("tcp", wire, *CLIENT)
    cache = responder.answer_cache
    (template,) = cache.templates.values()
    assert (cache.hits, cache.template_hits) == (0, pad - 1)
    assert len(ends) > 200
    assert len(template.shifted) == answercache.SHIFTED_TAILS
    assert template.end not in template.shifted
    assert 12 + qname.wire_length() + 4 in template.shifted
