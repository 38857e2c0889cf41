"""The row store: packed rows, object slots, views, and the one
sequence interface both logs read through."""

import pickle
from struct import Struct

import pytest

from repro.util.rows import Rows


class Pair:
    __slots__ = ("rows", "row")


class Pairs(Rows):
    ROW = Struct("<dHi")
    FIELDS = ("time", "code", "size")
    OBJECTS = 1
    VIEW = Pair

    __slots__ = ()

    def add(self, time, code, size, tag):
        self.data += self.ROW.pack(time, code, size)
        self.objects += (tag,)


Pair.time = Pairs.field("time")
Pair.size = Pairs.field("size", none=-1)


def filled(n=5) -> Pairs:
    pairs = Pairs()
    for i in range(n):
        pairs.add(i / 2, i, -i, f"t{i}")
    return pairs


def test_a_row_is_one_pack_and_reads_back_in_place():
    pairs = filled()
    assert len(pairs.data) == 5 * 14 and len(pairs) == 5
    view = pairs[3]
    assert (view.rows, view.row, view.time, view.size) == (pairs, 3, 1.5, -3)
    view.size = 40
    assert pairs[-2].size == 40 and pairs[1].size is None
    view.size = None
    assert list(pairs.column("size")) == [0, -1, -2, -1, -4]
    span, offset = Pairs.span("code", "size")
    assert (span.format, offset) == ("<Hi", 8)
    assert span.unpack_from(pairs.data, 3 * 14 + offset) == (3, -1)
    with pytest.raises(IndexError):
        pairs[5]
    with pytest.raises(IndexError):
        pairs[-6]


def test_slices_join_compare_and_pickle_as_lists_do():
    pairs = filled()
    listed = [(p.time, p.size) for p in pairs]
    for part in (slice(1, 4), slice(None, None, -2), slice(4, 1),
                 slice(-2, None)):
        cut = pairs[part]
        assert type(cut) is Pairs
        assert [(p.time, p.size) for p in cut] == listed[part]
        assert cut.objects == pairs.objects[part]
    joined = pairs[:2]
    joined += pairs[2:]
    assert (joined.data, joined.objects) == (pairs.data, pairs.objects)
    again = pickle.loads(pickle.dumps(pairs))
    assert (again.data, again.objects) == (pairs.data, pairs.objects)
    assert pairs != pairs[:4] and Pairs() == []
