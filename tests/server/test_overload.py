"""Server-side overload control: RRL, DNS Cookies, admission control.

Property tests pin the arithmetic (buckets never go negative, slip
cadence is exact, decisions are deterministic); responder-level tests
pin the integration (cache hits still charge the limiter, streams are
exempt, defenses-off is byte-identical to no-config)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.constants import EDNS_COOKIE, Flag, Rcode, RRType
from repro.dns.message import (Edns, Message, get_edns_option,
                               set_edns_option)
from repro.dns.name import Name
from repro.server.overload import (AdmissionConfig, CookieConfig,
                                   OverloadConfig, ResponseRateLimiter,
                                   RrlConfig, ServerCookies,
                                   client_cookie, minimal_response,
                                   response_key)
from repro.server.responder import DnsResponder

from .helpers import make_example_zone

N = Name.from_text
KEY = ("ok", "www.example.com.", 1)


# -- config ------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    (RrlConfig, dict(rate=0.0), "rrl: rate"),
    (RrlConfig, dict(burst=0.5), "rrl: burst"),
    (RrlConfig, dict(slip=-1), "rrl: slip"),
    (RrlConfig, dict(prefix_len=0), "rrl: prefix_len"),
    (RrlConfig, dict(prefix_len=33), "rrl: prefix_len"),
    (CookieConfig, dict(nocookie_scale=0.0), "cookies: nocookie_scale"),
    (AdmissionConfig, dict(limit=0), "admission: limit"),
    (AdmissionConfig, dict(limit=4, soft_limit=5), "admission: soft_limit"),
])
def test_config_validation_rejects(bad):
    """A config is checked when it is built."""
    config, knobs, message = bad
    with pytest.raises(ValueError, match=message):
        config(**knobs)


# -- RRL properties ----------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                          st.sampled_from(["10.0.0.1", "10.0.0.99",
                                           "10.0.9.1", "not-an-ip"])),
                min_size=1, max_size=200),
       st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_rrl_tokens_never_negative(events, rate, slip):
    limiter = ResponseRateLimiter(RrlConfig(rate=rate, slip=slip))
    now = 0.0
    for dt, src in events:
        now += dt
        decision = limiter.decide(now, src, KEY)
        assert decision in ("send", "slip", "drop")
    for bucket in limiter._buckets.values():
        assert bucket.tokens >= 0.0
        assert bucket.limited >= 0


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5),
                          st.sampled_from(["10.0.0.1", "10.0.9.1"]),
                          st.booleans()),
                min_size=1, max_size=150))
@settings(max_examples=60, deadline=None)
def test_rrl_deterministic(events):
    """Two limiters fed the identical event sequence agree decision by
    decision — the property the seeded-replay goldens rest on."""
    a = ResponseRateLimiter(RrlConfig(rate=2.0, slip=2,
                                      exempt_verified=False))
    b = ResponseRateLimiter(RrlConfig(rate=2.0, slip=2,
                                      exempt_verified=False))
    now = 0.0
    for dt, src, verified in events:
        now += dt
        assert a.decide(now, src, KEY, verified) \
            == b.decide(now, src, KEY, verified)


@given(st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
def test_rrl_slip_cadence_exact(slip, limited_calls):
    """With the clock frozen, once the burst is spent every decision is
    limited, and exactly every slip-th limited response slips."""
    limiter = ResponseRateLimiter(RrlConfig(rate=1.0, burst=1.0,
                                            slip=slip))
    assert limiter.decide(0.0, "10.0.0.1", KEY) == "send"
    decisions = [limiter.decide(0.0, "10.0.0.1", KEY)
                 for _ in range(limited_calls)]
    assert all(d in ("slip", "drop") for d in decisions)
    expected = ["slip" if i % slip == 0 else "drop"
                for i in range(1, limited_calls + 1)]
    assert decisions == expected


def test_rrl_slip_zero_drops_everything():
    limiter = ResponseRateLimiter(RrlConfig(rate=1.0, burst=1.0, slip=0))
    limiter.decide(0.0, "10.0.0.1", KEY)
    assert all(limiter.decide(0.0, "10.0.0.1", KEY) == "drop"
               for _ in range(10))


def test_rrl_prefix_aggregation_and_refill():
    limiter = ResponseRateLimiter(RrlConfig(rate=10.0, burst=1.0,
                                            prefix_len=24))
    assert limiter.decide(0.0, "10.0.0.1", KEY) == "send"
    # Same /24 shares the bucket; a different /24 gets its own.
    assert limiter.decide(0.0, "10.0.0.200", KEY) != "send"
    assert limiter.decide(0.0, "10.0.1.1", KEY) == "send"
    # A second of refill at rate 10 restores the (burst-capped) credit.
    assert limiter.decide(1.0, "10.0.0.1", KEY) == "send"


def test_rrl_table_fifo_bounded(monkeypatch):
    monkeypatch.setattr("repro.server.overload.RRL_TABLE_SIZE", 3)
    limiter = ResponseRateLimiter(RrlConfig(rate=1.0, prefix_len=32))
    for i in range(10):
        limiter.decide(0.0, f"10.0.{i}.1", KEY)
    assert len(limiter) == 3


def test_response_key_aggregates_nxdomain_per_zone():
    zone = make_example_zone()
    nx1 = response_key(Rcode.NXDOMAIN, N("a.example.com."), 1, zone)
    nx2 = response_key(Rcode.NXDOMAIN, N("b.example.com."), 1, zone)
    ok1 = response_key(Rcode.NOERROR, N("a.example.com."), 1, zone)
    ok2 = response_key(Rcode.NOERROR, N("b.example.com."), 1, zone)
    assert nx1 == nx2
    assert ok1 != ok2
    assert response_key(Rcode.REFUSED, N("a."), 1, None) \
        == response_key(Rcode.REFUSED, N("b."), 1, None)


# -- DNS Cookies -------------------------------------------------------------

def _cookie_query(options: bytes) -> Message:
    query = Message.make_query(N("www.example.com."), RRType.A,
                               edns=Edns())
    query.edns.options = options
    return query


def test_cookie_round_trip():
    jar = ServerCookies()
    src = "192.0.2.77"
    cc = client_cookie(src)
    query = _cookie_query(set_edns_option(b"", EDNS_COOKIE, cc))
    response = query.make_response()
    # First contact: client cookie only — well-formed but unverified,
    # and the response carries the full client+server echo.
    assert jar.process(query, response, src) is False
    echoed = get_edns_option(response.edns.options, EDNS_COOKIE)
    assert echoed[:8] == cc
    server = echoed[8:]
    assert len(server) == 8
    # Echoing the learned server cookie verifies.
    query2 = _cookie_query(set_edns_option(b"", EDNS_COOKIE, cc + server))
    assert jar.process(query2, query2.make_response(), src) is True


@given(st.binary(min_size=0, max_size=48))
@settings(max_examples=80, deadline=None)
def test_cookie_never_verifies_without_valid_server_cookie(data):
    jar = ServerCookies()
    src = "192.0.2.77"
    query = _cookie_query(set_edns_option(b"", EDNS_COOKIE, data))
    verified = jar.process(query, query.make_response(), src)
    expected = (8 < len(data) <= 40
                and data[8:] == jar.server_cookie(data[:8], src))
    assert verified == expected


def test_cookie_bound_to_source_and_secret(monkeypatch):
    jar = ServerCookies()
    cc = client_cookie("192.0.2.1")
    sc = jar.server_cookie(cc, "192.0.2.1")
    # A cookie minted for one source fails from another.
    query = _cookie_query(set_edns_option(b"", EDNS_COOKIE, cc + sc))
    assert jar.process(query, query.make_response(), "192.0.2.2") is False
    # ... and under a different secret.
    monkeypatch.setattr("repro.server.overload.COOKIE_SECRET", 999)
    other = ServerCookies()
    assert other.server_cookie(cc, "192.0.2.1") != sc


def test_cookieless_query_is_unverified():
    jar = ServerCookies()
    query = Message.make_query(N("www.example.com."), RRType.A)
    assert jar.process(query, None, "192.0.2.1") is False


# -- minimal responses -------------------------------------------------------

def test_minimal_response_echoes_header_and_question():
    query = Message.make_query(N("www.example.com."), RRType.A,
                               msg_id=0xBEEF, rd=True)
    wire = query.to_wire()
    out = minimal_response(wire, Rcode.REFUSED)
    parsed = Message.from_wire(out)
    assert parsed.msg_id == 0xBEEF
    assert parsed.is_response
    assert parsed.rcode == Rcode.REFUSED
    assert parsed.flags & 0x0100          # RD echoed
    assert not parsed.flags & Flag.TC
    assert parsed.question.qname == N("www.example.com.")
    assert not parsed.answer and not parsed.authority

    slipped = Message.from_wire(minimal_response(wire, Rcode.NOERROR,
                                                 tc=True))
    assert slipped.flags & Flag.TC


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=100, deadline=None)
def test_minimal_response_never_crashes(wire):
    out = minimal_response(wire, Rcode.REFUSED)
    if out is not None:
        assert out[0:2] == wire[0:2]
        assert int.from_bytes(out[2:4], "big") & int(Flag.QR)


def test_minimal_response_rejects_garbage():
    assert minimal_response(b"\x00" * 4, Rcode.REFUSED) is None
    response = Message.make_query(N("a."), 1).make_response()
    assert minimal_response(response.to_wire(), Rcode.REFUSED) is None


# -- responder integration ---------------------------------------------------

def _responder(overload, **kwargs):
    clock = {"now": 0.0}
    responder = DnsResponder(zones=[make_example_zone()],
                             clock=lambda: clock["now"],
                             overload=overload, **kwargs)
    return responder, clock


def _query_wire(qname="www.example.com.", msg_id=1) -> bytes:
    return Message.make_query(N(qname), RRType.A,
                              msg_id=msg_id).to_wire()


def test_responder_rrl_drop_and_slip():
    overload = OverloadConfig(rrl=RrlConfig(rate=1.0, burst=1.0, slip=2))
    responder, _clock = _responder(overload)
    assert responder.reply_wire("udp", _query_wire(msg_id=1),
                                "10.0.0.1", 1000) is not None
    outs = [responder.reply_wire("udp", _query_wire(msg_id=2 + i),
                                 "10.0.0.1", 1000) for i in range(4)]
    drops = [o for o in outs if o is None]
    slips = [o for o in outs if o is not None]
    assert len(drops) == 2 and len(slips) == 2
    for slipped in slips:
        assert Message.from_wire(slipped).flags & Flag.TC
    assert responder.responses_sent + responder.rrl_dropped \
        == responder.queries_handled
    # Dropped responses log with response_size 0.
    responder2, _ = _responder(overload, log_queries=True)
    for i in range(4):
        responder2.reply_wire("udp", _query_wire(msg_id=i), "10.0.0.1", 1)
    assert 0 in [e.response_size for e in responder2.query_log]


def test_responder_cache_hit_still_charges_rrl():
    overload = OverloadConfig(rrl=RrlConfig(rate=1.0, burst=2.0, slip=0))
    responder, _clock = _responder(overload)
    wire = _query_wire()
    outs = [responder.reply_wire("udp", wire, "10.0.0.1", 1000)
            for _ in range(5)]
    assert responder.answer_cache.hits == 4
    # Burst of 2 lets two through; cache hits 3..5 are rate-limited.
    assert sum(1 for o in outs if o is not None) == 2
    assert responder.rrl_dropped == 3


def test_responder_stream_transports_exempt_from_rrl():
    overload = OverloadConfig(rrl=RrlConfig(rate=1.0, burst=1.0))
    responder, _clock = _responder(overload)
    outs = [responder.reply_wire("tcp", _query_wire(msg_id=i),
                                 "10.0.0.1", 1000) for i in range(10)]
    assert all(o is not None for o in outs)
    assert responder.rrl_dropped == 0


def test_responder_cookie_validation_and_echo():
    overload = OverloadConfig(rrl=RrlConfig(rate=1.0, burst=1.0),
                              cookies=CookieConfig())
    responder, _clock = _responder(overload)
    src = "10.0.0.1"
    cc = client_cookie(src)

    def cookie_wire(options, msg_id):
        query = Message.make_query(N("www.example.com."), RRType.A,
                                   msg_id=msg_id, edns=Edns())
        query.edns.options = set_edns_option(b"", EDNS_COOKIE, options)
        return query.to_wire()

    first = responder.reply_wire("udp", cookie_wire(cc, 1), src, 1000)
    assert responder.cookies_validated == 0
    echoed = get_edns_option(Message.from_wire(first).edns.options,
                             EDNS_COOKIE)
    full = cookie_wire(echoed, 2)
    # Verified clients bypass RRL entirely (exempt_verified default).
    for _ in range(5):
        assert responder.reply_wire("udp", full, src, 1000) is not None
    assert responder.cookies_validated == 5
    assert responder.rrl_dropped == 0


def test_responder_defenses_off_byte_identical():
    """overload=None and an empty OverloadConfig() serve the same
    bytes as each other for every wire-corpus case."""
    from repro.check.scenarios import conformance_wire_cases
    for overload in (None, OverloadConfig()):
        baseline = DnsResponder(zones=[make_example_zone()])
        treated = DnsResponder(zones=[make_example_zone()],
                               overload=overload)
        for case in conformance_wire_cases():
            args = (case["proto"], case["query"], "192.0.2.9", 5353)
            assert baseline.reply_wire(*args) == treated.reply_wire(*args)
        assert treated.admission_queue is None


# -- admission control -------------------------------------------------------

def test_admission_drop_oldest_and_conservation():
    overload = OverloadConfig(admission=AdmissionConfig(limit=3))
    responder, _clock = _responder(overload)
    for i in range(5):
        status, refusal = responder.admission_offer(
            _query_wire(msg_id=i), i)
        assert status == "queued" and refusal is None
    # Items 0 and 1 were shed to admit 3 and 4.
    assert list(responder.admission_queue) == [2, 3, 4]
    assert responder.admission_shed == 2
    drained = [responder.admission_pop()
               for _ in range(len(responder.admission_queue))]
    assert drained == [2, 3, 4]
    assert responder.admission_received == (
        responder.admission_processed + responder.admission_shed
        + responder.admission_refused + len(responder.admission_queue))


def test_admission_soft_limit_refuses():
    overload = OverloadConfig(
        admission=AdmissionConfig(limit=4, soft_limit=2))
    responder, _clock = _responder(overload)
    statuses = []
    for i in range(5):
        status, refusal = responder.admission_offer(
            _query_wire(msg_id=i), i)
        statuses.append(status)
        if status == "refused":
            parsed = Message.from_wire(refusal)
            assert parsed.rcode == Rcode.REFUSED
            assert parsed.is_response
    assert statuses == ["queued", "queued", "refused", "refused",
                        "refused"]
    assert responder.admission_refused == 3
    # Unanswerable garbage still counts as refused, with no response.
    status, refusal = responder.admission_offer(b"\x01", None)
    assert status == "refused" and refusal is None


# -- the conservation invariant ----------------------------------------------

def test_verify_responder_passes_and_fails():
    from repro.check.invariants import (InvariantViolation,
                                        verify_responder)
    overload = OverloadConfig(rrl=RrlConfig(rate=1.0, burst=1.0))
    responder, _clock = _responder(overload)
    for i in range(6):
        responder.reply_wire("udp", _query_wire(msg_id=i), "10.0.0.1", 1)
    verify_responder(responder)
    responder.rrl_dropped += 1      # lose a response
    with pytest.raises(InvariantViolation, match="queries_handled"):
        verify_responder(responder)
    responder.rrl_dropped -= 1
    responder.admission_received += 2
    with pytest.raises(InvariantViolation, match="admission_received"):
        verify_responder(responder)
