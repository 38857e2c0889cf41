"""Tests for repro.dns.name."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import Name, NameError_


def test_root_round_trip():
    root = Name.from_text(".")
    assert root.is_root()
    assert root.to_text() == "."
    assert root == Name(())


def test_simple_parse_and_format():
    name = Name.from_text("www.Example.COM.")
    assert name.to_text() == "www.Example.COM."
    assert [bytes(label) for label in name.labels] \
        == [b"www", b"Example", b"COM"]


def test_trailing_dot_optional():
    assert Name.from_text("a.b.c") == Name.from_text("a.b.c.")


def test_case_insensitive_equality_and_hash():
    a = Name.from_text("WWW.EXAMPLE.COM.")
    b = Name.from_text("www.example.com.")
    assert a == b
    assert hash(a) == hash(b)


def test_escaped_dot_in_label():
    name = Name.from_text(r"a\.b.example.")
    assert name.labels == (b"a.b", b"example")
    assert Name.from_text(name.to_text()) == name


def test_decimal_escape():
    name = Name.from_text(r"a\032b.example.")
    assert name.labels[0] == b"a b"


def test_empty_label_rejected():
    with pytest.raises(NameError_):
        Name.from_text("a..b.")


def test_label_too_long_rejected():
    with pytest.raises(NameError_):
        Name((b"x" * 64,))


def test_name_too_long_rejected():
    labels = tuple(b"a" * 63 for _ in range(5))
    with pytest.raises(NameError_):
        Name(labels)


def test_parent_and_subdomain():
    name = Name.from_text("www.example.com.")
    com = Name.from_text("com.")
    assert name.parent() == Name.from_text("example.com.")
    assert name.is_subdomain_of(com)
    assert name.is_subdomain_of(Name.root())
    assert not com.is_subdomain_of(name)
    assert name.is_subdomain_of(name)


def test_subdomain_needs_label_boundary():
    assert not Name.from_text("notcom.").is_subdomain_of(
        Name.from_text("com."))
    assert not Name.from_text("xcom.").is_subdomain_of(
        Name.from_text("com."))


def test_root_has_no_parent():
    with pytest.raises(NameError_):
        Name.root().parent()


def test_relativize():
    name = Name.from_text("www.example.com.")
    origin = Name.from_text("example.com.")
    assert name.relativize(origin) == (b"www",)
    with pytest.raises(NameError_):
        name.relativize(Name.from_text("org."))


def test_concatenate_and_prepend():
    rel = Name((b"www",))
    origin = Name.from_text("example.com.")
    assert rel.concatenate(origin) == Name.from_text("www.example.com.")
    assert origin.prepend("ns1") == Name.from_text("ns1.example.com.")


def test_split_and_ancestors():
    name = Name.from_text("a.b.c.")
    assert name.split(2) == Name.from_text("b.c.")
    chain = list(name.ancestors())
    assert chain[0] == name
    assert chain[-1] == Name.root()
    assert len(chain) == 4


def test_wildcard_detection():
    assert Name.from_text("*.example.com.").is_wild()
    assert not Name.from_text("a.example.com.").is_wild()


def test_canonical_ordering():
    # Canonical DNSSEC order sorts by reversed labels, case-folded.
    names = [Name.from_text(t) for t in
             ("z.example.", "a.example.", "example.", "yljkjljk.a.example.")]
    ordered = sorted(names)
    assert ordered[0] == Name.from_text("example.")
    assert ordered[1] == Name.from_text("a.example.")


def test_wire_length():
    assert Name.root().wire_length() == 1
    assert Name.from_text("com.").wire_length() == 5
    assert Name.from_text("www.example.com.").wire_length() == 17


def test_immutability():
    name = Name.from_text("example.com.")
    with pytest.raises(AttributeError):
        name.labels = ()


_LABEL = st.text(
    alphabet=st.characters(min_codepoint=0x30, max_codepoint=0x7A),
    min_size=1, max_size=20)


@given(st.lists(_LABEL, min_size=0, max_size=6))
def test_property_text_round_trip(labels):
    name = Name([label.encode() for label in labels])
    assert Name.from_text(name.to_text()) == name


@given(st.lists(st.binary(min_size=1, max_size=30), min_size=0, max_size=5))
def test_property_binary_labels_round_trip(labels):
    name = Name(labels)
    assert Name.from_text(name.to_text()) == name
    assert name.wire_length() <= 255


# -- a lower-case name is its own folded key --------------------------------

_CASED_LABEL = st.lists(st.sampled_from(b"aAbBzZ09-\xe9"), min_size=1,
                        max_size=8).map(bytes)
_LABELS = st.lists(_CASED_LABEL, max_size=5).map(tuple)


def _lower(labels):
    return tuple(label.lower() for label in labels)


def _every_form(labels):
    """The name of *labels* from each constructor that folds: the class,
    the text parser, the question reader and the wire reader, the last
    also behind a compression pointer."""
    from repro.dns.constants import RRType
    from repro.dns.message import Message, read_question
    from repro.dns.wire import WireReader, WireWriter
    name = Name(labels)
    writer = WireWriter()
    writer.name(name)
    writer.name(name.prepend(b"x"))
    reader = WireReader(writer.getvalue())
    read, behind = reader.name(), reader.name()
    return [name, Name.from_text(name.to_text()),
            read_question(Message.make_query(name, RRType.A).to_wire())[1],
            read, behind.parent()]


@given(_LABELS)
def test_property_lower_case_name_is_its_own_key(labels):
    lower = labels == _lower(labels)
    for name in _every_form(labels):
        assert name.labels == labels and name.folded == _lower(labels)
        assert (name.folded is name.labels) == lower
        for suffix in name.ancestors():
            assert suffix.folded == _lower(suffix.labels)
            assert suffix.folded is suffix.labels or not lower


@given(_LABELS, _LABELS)
def test_property_folding_keeps_equality_hash_and_order(a, b):
    mixed = Name(tuple(label.swapcase() for label in a))
    lower = Name(_lower(a))
    assert lower.folded is lower.labels
    assert mixed == lower == Name(a) and hash(mixed) == hash(lower)
    other = Name(b)
    expected = tuple(reversed(_lower(a))) < tuple(reversed(_lower(b)))
    assert (mixed < other) == (lower < other) == expected
    assert (mixed == other) == (lower == other) == (_lower(a) == _lower(b))
