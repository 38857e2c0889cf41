"""An append-only store of fixed rows, one ``struct`` pack per row.

A store declares a ``struct.Struct`` row (one format code per field,
after ``<`` or ``=``: no padding), its field names, and the object slots
each row keeps in a list beside the bytes.  A row is appended with one
``ROW.pack`` onto :attr:`Rows.data` and read and written in place through
a view holding the store and a row number; a column reads lazily through
``iter_unpack`` (the store cannot grow while such an iterator lives).
``len``, indexing, slicing, iteration, ``+=``, ``==`` and pickling are
written here, once.
"""

from __future__ import annotations

from copy import copy
from operator import itemgetter
from struct import Struct, calcsize


class Rows:
    """A subclass declares :attr:`ROW`, :attr:`FIELDS`, :attr:`OBJECTS`
    and how a row reads: as a :attr:`VIEW`, a class with ``rows`` and
    ``row`` slots, or by its own :meth:`_read`."""

    ROW: Struct
    FIELDS: tuple[str, ...] = ()
    OBJECTS = 0
    VIEW: type

    __slots__ = ("data", "objects")

    def __init__(self) -> None:
        self.data = bytearray()
        self.objects: list = []

    @classmethod
    def span(cls, first: str, last: str | None = None) -> tuple[Struct, int]:
        """Fields *first* to *last* as one ``Struct``, and their offset."""
        start = cls.FIELDS.index(first)
        stop = cls.FIELDS.index(last or first) + 1
        order, codes = cls.ROW.format[0], cls.ROW.format[1:]
        return (Struct(order + codes[start:stop]),
                calcsize(order + codes[:start]))

    @classmethod
    def field(cls, name: str, doc: str | None = None,
              none=None) -> property:
        """Field *name* of a view's row, read and written in place: the
        value *none* (and NaN, which equals nothing) reads as None, and
        None writes *none*."""
        (one, offset), size = cls.span(name), cls.ROW.size

        def get(view):
            value = one.unpack_from(view.rows.data,
                                    view.row * size + offset)[0]
            return None if value == none or value != value else value

        def put(view, value) -> None:
            one.pack_into(view.rows.data, view.row * size + offset,
                          none if value is None else value)
        return property(get, put, doc=doc)

    def column(self, name: str):
        """Field *name* of every row, in row order, read lazily."""
        return map(itemgetter(self.FIELDS.index(name)),
                   self.ROW.iter_unpack(self.data))

    def _read(self, row: int):
        view = object.__new__(self.VIEW)
        view.rows, view.row = self, row
        return view

    def __len__(self) -> int:
        return len(self.data) // self.ROW.size

    def __getitem__(self, index):
        rows = range(len(self))[index]     # a row number, or a range
        return self._part(rows) if type(rows) is range else self._read(rows)

    def _part(self, rows: range) -> "Rows":
        size, slots = self.ROW.size, self.OBJECTS
        part = copy(self)
        if rows.step == 1:
            part.data = self.data[rows.start * size:rows.stop * size]
            part.objects = self.objects[rows.start * slots:rows.stop * slots]
        else:
            part.data = bytearray().join(
                self.data[row * size:(row + 1) * size] for row in rows)
            part.objects = [value for row in rows for value in
                            self.objects[row * slots:(row + 1) * slots]]
        return part

    def __iter__(self):
        return map(self._read, range(len(self)))

    def __iadd__(self, other: "Rows") -> "Rows":
        if type(other) is not type(self):
            return NotImplemented
        self.data += other.data
        self.objects += other.objects
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rows, list)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None
