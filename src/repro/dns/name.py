"""Domain names: parsing, formatting, ordering, and relations.

A :class:`Name` is an immutable sequence of labels stored root-last, e.g.
``www.example.com.`` has labels ``(b"www", b"example", b"com")``.  All
names in this library are absolute (fully qualified); zone-file parsing
resolves relative names against ``$ORIGIN`` before constructing a Name.

Comparison and hashing are case-insensitive per RFC 1035 §2.3.3, but the
original label spelling is preserved for display.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from repro.dns.constants import MAX_LABEL, MAX_NAME_WIRE


class NameError_(ValueError):
    """Raised for malformed domain names (bad label/name lengths, syntax)."""


_ESCAPED = {ord("."), ord("\\"), ord('"'), ord("("), ord(")"), ord(";"),
            ord("@"), ord("$")}


def _validate_labels(labels: tuple[bytes, ...]) -> None:
    wire_len = 1  # trailing root byte
    for label in labels:
        if not label:
            raise NameError_("empty interior label")
        if len(label) > MAX_LABEL:
            raise NameError_(f"label too long ({len(label)} > {MAX_LABEL})")
        wire_len += 1 + len(label)
    if wire_len > MAX_NAME_WIRE:
        raise NameError_(f"name too long ({wire_len} > {MAX_NAME_WIRE})")


def fold(labels: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """The lower-cased *labels*: *labels* itself when they are lower-case
    already (nearly every name), so a name keeps one tuple, not two."""
    folded = tuple(map(bytes.lower, labels))
    return labels if folded == labels else folded


def text_labels(text: str) -> tuple[bytes, ...]:
    """The validated labels of presentation-format *text*: what
    :meth:`Name.from_text` builds its name from, for callers that want
    only the labels (a query's question bytes).

    Handles ``\\.`` escapes and ``\\DDD`` decimal escapes.  A bare
    ``"."`` or ``""`` is the root.  Trailing dot is optional; either way
    the name is absolute.
    """
    if text in (".", ""):
        return ()
    if "\\" not in text:
        # No escapes (nearly every name): the labels are the text
        # between the dots.
        labels = text.encode("latin-1").split(b".")
        if not labels[-1]:
            labels.pop()            # the trailing dot
    else:
        labels = _unescaped_labels(text)
    labels = tuple(labels)
    _validate_labels(labels)
    return labels


def _unescaped_labels(text: str) -> list[bytes]:
    labels: list[bytes] = []
    current = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 3 < n + 1 and text[i + 1: i + 4].isdigit():
                code = int(text[i + 1: i + 4])
                if code > 255:
                    raise NameError_(f"bad escape in {text!r}")
                current.append(code)
                i += 4
                continue
            if i + 1 >= n:
                raise NameError_(f"trailing backslash in {text!r}")
            current.append(ord(text[i + 1]))
            i += 2
            continue
        if ch == ".":
            if not current:
                raise NameError_(f"empty label in {text!r}")
            labels.append(bytes(current))
            current.clear()
            i += 1
            continue
        current.append(ord(ch))
        i += 1
    if current:
        labels.append(bytes(current))
    return labels


@functools.total_ordering
class Name:
    """An absolute domain name."""

    __slots__ = ("labels", "folded", "_hash")

    labels: tuple[bytes, ...]
    # Lower-cased labels: what equality, hashing and compression match on;
    # the labels tuple itself when they are lower-case (see fold()).
    folded: tuple[bytes, ...]

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(bytes(label) for label in labels)
        _validate_labels(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "folded", fold(labels))
        object.__setattr__(self, "_hash", hash(self.folded))

    @classmethod
    def _trusted(cls, labels: tuple[bytes, ...],
                 key: tuple[bytes, ...]) -> "Name":
        """A name from labels known valid (a slice of a name, or read
        off the wire within the limits) and their lower-cased *key*."""
        name = object.__new__(cls)
        object.__setattr__(name, "labels", labels)
        object.__setattr__(name, "folded", key)
        object.__setattr__(name, "_hash", hash(key))
        return name

    def _suffix(self, cut: int) -> "Name":
        """The name of the labels from *cut* on, sharing one tuple for
        labels and key when this name does."""
        labels = self.labels[cut:]
        return Name._trusted(labels, labels if self.folded is self.labels
                             else self.folded[cut:])

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("Name is immutable")

    def __reduce__(self):
        # Supports copy/deepcopy/pickle despite the immutability guard.
        return (Name, (self.labels,))

    # -- construction ------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format, e.g. ``"www.example.com."``, by
        :func:`text_labels`'s rules."""
        labels = text_labels(text)
        return cls._trusted(labels, fold(labels))

    @classmethod
    def root(cls) -> "Name":
        return _ROOT

    # -- presentation ------------------------------------------------

    def to_text(self) -> str:
        """Render in presentation format with a trailing dot."""
        if not self.labels:
            return "."
        parts = []
        for label in self.labels:
            chunk = []
            for byte in label:
                if byte in _ESCAPED:
                    chunk.append("\\" + chr(byte))
                elif 0x21 <= byte <= 0x7E:
                    chunk.append(chr(byte))
                else:
                    chunk.append(f"\\{byte:03d}")
            parts.append("".join(chunk))
        return ".".join(parts) + "."

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    # -- relations ---------------------------------------------------

    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed; root's parent errors."""
        if not self.labels:
            raise NameError_("root has no parent")
        return self._suffix(1)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if *self* equals or is below *other*."""
        olen = len(other.folded)
        if olen == 0:
            return True
        return self.folded[-olen:] == other.folded if len(self.folded) >= olen else False

    def relativize(self, origin: "Name") -> tuple[bytes, ...]:
        """Labels of *self* with the *origin* suffix stripped."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        cut = len(self.labels) - len(origin.labels)
        return self.labels[:cut]

    def concatenate(self, suffix: "Name") -> "Name":
        """``Name(a) + Name(b)``: self's labels followed by suffix's."""
        return Name(self.labels + suffix.labels)

    def prepend(self, label: bytes | str) -> "Name":
        """A new name with one extra leading label."""
        if isinstance(label, str):
            label = label.encode()
        return Name((label,) + self.labels)

    def split(self, depth: int) -> "Name":
        """The suffix of *self* keeping the last *depth* labels."""
        if depth > len(self.labels):
            raise NameError_(f"depth {depth} exceeds {len(self.labels)} labels")
        return self._suffix(len(self.labels) - depth)

    def ancestors(self) -> Iterator["Name"]:
        """Yield self, then each parent up to and including the root."""
        for cut in range(len(self.labels) + 1):
            yield self._suffix(cut)

    def is_wild(self) -> bool:
        return bool(self.labels) and self.labels[0] == b"*"

    # -- ordering / hashing -------------------------------------------

    def canonical_key(self) -> tuple[bytes, ...]:
        """Reversed lowercase labels: sorts in DNSSEC canonical order."""
        return tuple(reversed(self.folded))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Name) and self.folded == other.folded

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.canonical_key() < other.canonical_key()

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.labels)

    def wire_length(self) -> int:
        """Uncompressed wire-format length in bytes."""
        labels = self.labels
        return 1 + len(labels) + sum(map(len, labels))


_ROOT = Name(())
