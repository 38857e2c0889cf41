"""``QueryRecord.query_wire`` assembles a query's bytes itself on a memo
miss, from the text's labels without a ``Name``; the full encoder
(``to_message().to_wire()``) and ``plain_query`` of the parsed name are
the references it must equal, and ``Name.from_text`` decides which
names are errors, and with which exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import plain_query
from repro.dns.name import Name, NameError_
from repro.trace import record as record_module
from repro.trace.record import QueryRecord

# Every byte value, weighted toward the ones to_text() escapes and the
# case pairs compression folds.
_label_bytes = st.sampled_from(list(b'.\\"();@$ aAzZ09-_\x00\xff')) \
    | st.integers(0, 255)
_labels = st.lists(_label_bytes, min_size=1, max_size=63).map(bytes) \
    | st.sampled_from((b"x" * 63, b"\\" * 63, b"."))


@st.composite
def _bounded_names(draw) -> Name:
    """Valid names up to the 255-byte limit, the root included."""
    labels = draw(st.lists(_labels, max_size=8))
    while sum(1 + len(label) for label in labels) + 1 > 255:
        labels.pop()
    return Name(labels)


# 250 label bytes + 4 length bytes + the root byte = 255, the maximum.
LONGEST = Name([b"a" * 63, b"b" * 63, b"c" * 63, b"d" * 61])
names = _bounded_names() | st.sampled_from((Name(()), LONGEST))


@settings(deadline=None)
@given(names, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
       st.sampled_from((1, 3, 254, 255)), st.booleans(), st.booleans(),
       st.sampled_from((0, 512, 1232, 4096, 0xFFFF)), st.booleans())
def test_query_wire_equals_the_full_encoder(name, msg_id, qtype, qclass,
                                            rd, do, payload, trailing_dot):
    text = name.to_text()
    if not trailing_dot and text != ".":
        text = text[:-1]
    record = QueryRecord(0.0, "10.0.0.1", text, qtype=qtype, qclass=qclass,
                         rd=rd, do=do, edns_payload=payload)
    wire = record.query_wire(msg_id)
    assert wire == record.with_(msg_id=msg_id).to_message().to_wire()
    assert record.query_wire(msg_id) == wire        # and again from the memo


# Text that is mostly *not* a valid name: empty and oversized labels,
# names past 255 bytes, stray and trailing backslashes, bad \DDD
# escapes, characters beyond latin-1.
_chunks = st.sampled_from((".", "..", "\\", "\\.", "\\046", "\\999", "\\25",
                           "a", "b" * 63, "c" * 64, "\xe9", "ł",
                           "\U0001f600", "d" * 200, " ")) \
    | st.text(max_size=4)
texts = st.lists(_chunks, max_size=8).map("".join)


def outcome(function, *args):
    try:
        return function(*args)
    except ValueError:              # NameError_ and UnicodeEncodeError
        return ValueError


@settings(deadline=None)
@given(texts)
def test_bad_names_fail_like_name_from_text(text):
    record = QueryRecord(0.0, "10.0.0.1", text)
    parsed = outcome(Name.from_text, text)
    sent = outcome(record.query_wire, 7)
    if isinstance(parsed, Name):
        assert sent == record.with_(msg_id=7).to_message().to_wire()
    else:
        assert sent is ValueError
        with pytest.raises(ValueError):
            record.to_message()


def escaped(text: str) -> str:
    """*text* with every character as a ``\\DDD`` escape, dots kept: the
    same labels through from_text's escape loop."""
    return ".".join("".join(f"\\{ord(ch):03d}" for ch in label)
                    for label in text.split("."))


@settings(deadline=None)
@given(texts.filter(lambda text: "\\" not in text))
def test_escape_free_branch_agrees_with_the_escape_loop(text):
    fast = outcome(Name.from_text, text)
    if any(ord(ch) > 255 for ch in text):
        assert fast is ValueError           # not a byte: never a label
        return
    slow = outcome(Name.from_text, escaped(text))
    if isinstance(slow, Name):
        assert isinstance(fast, Name) and fast.labels == slow.labels
    else:
        assert fast is ValueError


# -- the direct path: escape-free text straight to labels ---------------------

def raised(function, *args):
    """*function*'s value, or the type of what it raised."""
    try:
        return function(*args)
    except Exception as exc:        # the type is what is compared
        return type(exc)


# Labels at and around the limits, joined with and without the trailing
# dot, sometimes with an escape or a character past latin-1 in them.
_limit_labels = st.sampled_from(("", "a", "Z" * 62, "y" * 63, "x" * 64,
                                 "\\.", "\\065", "ł", "\xe9"))
limit_texts = st.builds(
    lambda labels, dot: ".".join(labels) + dot,
    st.lists(_limit_labels, max_size=6), st.sampled_from(("", ".")))

# 250 label bytes + 4 length bytes + the root byte: 255 bytes, and one
# more byte past it, each as text with and without the trailing dot.
AT_LIMIT = ".".join(("a" * 63, "b" * 63, "c" * 63, "d" * 61))
PAST_LIMIT = AT_LIMIT + "d"
EDGES = [AT_LIMIT, AT_LIMIT + ".", PAST_LIMIT, PAST_LIMIT + ".",
         "e" * 63 + ".", "e" * 64 + ".", "e" * 64, "", ".", "..", "a..b.",
         ".a.", "a..", "ł.test.", "\U0001f600.", "\\.a.", "a\\.b.",
         "\\097b.", "\\999.", "a\\", "é.test."]


def direct(text, qtype=1, qclass=1, rd=False, edns=None):
    """The memo's miss path, without the memo."""
    do, payload = edns or (False, 0)
    return raised(record_module._query_tail.__wrapped__, text, qtype, qclass,
                  rd, do, payload)


def via_name(text, qtype=1, qclass=1, rd=False, edns=None):
    """The same bytes from a parsed Name: the reference."""
    do, payload = edns or (False, 0)
    name = raised(Name.from_text, text)
    if not isinstance(name, Name):
        return name
    query_edns = (payload or 4096, do) if payload or do else None
    return plain_query(name.labels, qtype, qclass, rd, query_edns)


@pytest.mark.parametrize("text", EDGES)
def test_direct_path_at_the_limits(text):
    assert direct(text) == via_name(text)


def test_limits_are_the_name_parser_s():
    assert isinstance(direct(AT_LIMIT), bytes)
    assert len(direct(AT_LIMIT)) == 10 + 255 + 4
    assert direct(PAST_LIMIT) is NameError_
    assert direct("e" * 64 + ".") is NameError_
    assert direct("a..b.") is NameError_
    assert direct("ł.test.") is UnicodeEncodeError
    assert direct("") == direct(".") == via_name(".")


@settings(deadline=None)
@given(texts | limit_texts, st.integers(0, 0xFFFF), st.booleans(),
       st.none() | st.tuples(st.booleans(),
                             st.sampled_from((0, 512, 4096))))
def test_direct_path_equals_plain_query_of_the_parsed_name(text, qtype, rd,
                                                          edns):
    assert direct(text, qtype, 1, rd, edns) == via_name(text, qtype, 1, rd,
                                                        edns)


def test_the_direct_path_builds_no_name(monkeypatch):
    built = []
    for constructor in ("from_text", "_trusted"):
        real = getattr(Name, constructor)
        monkeypatch.setattr(Name, constructor, staticmethod(
            lambda *args, real=real: built.append(args) or real(*args)))
    monkeypatch.setattr(Name, "__init__",
                        lambda self, *args: built.append(args))
    for text in ("www.example.com.", "www.example.com", "", ".", AT_LIMIT,
                 "a\\.b.", "\\097b.", PAST_LIMIT, "a..b."):
        direct(text)
    assert built == []
