"""Wire-format primitives: a writer with name compression and a reader.

The writer maintains the RFC 1035 §4.1.4 compression table mapping name
suffixes to buffer offsets; the reader follows compression pointers with
loop protection.
"""

from __future__ import annotations

import struct

from repro.dns.constants import MAX_NAME_WIRE
from repro.dns.name import Name, fold

_HEADER = struct.Struct("!6H")      # id, flags word, four section counts
_RR_FIXED = struct.Struct("!HHIH")  # type, class, ttl, rdlength
_U16 = struct.Struct("!H")
_ROOT = Name.root()


class WireError(ValueError):
    """Raised on malformed wire-format data."""


# RFC 1035 §4.1.4 name-compression encoding, exported so tooling that
# constructs or fuzzes pointers (repro.check.fuzzing) shares the exact
# constants the writer emits and the reader validates.
POINTER_MASK = 0xC0          # top two bits of a label-length byte
POINTER_FLAG = 0xC000        # 16-bit pointer: flag bits | offset
MAX_POINTER_OFFSET = 0x3FFF  # offsets beyond this are uncompressible


def compression_pointer(offset: int) -> bytes:
    """The two-byte wire encoding of a compression pointer to
    *offset* (which must fit in 14 bits)."""
    if not 0 <= offset <= MAX_POINTER_OFFSET:
        raise ValueError(f"pointer offset {offset} outside "
                         f"0..{MAX_POINTER_OFFSET}")
    return struct.pack("!H", POINTER_FLAG | offset)


class WireWriter:
    """Accumulates a DNS message, compressing names as they are written."""

    def __init__(self, notes: list | None = None) -> None:
        self._buf = bytearray()
        self._offsets: dict[tuple[bytes, ...], int] = {}
        # A list receives, per name written, (start offset, lower-cased
        # labels, offset of the pointer it ended in or -1): what
        # server/answercache.py needs to move a body behind another qname.
        self._notes = notes

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    # -- scalars -------------------------------------------------------

    def u8(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def u16(self, value: int) -> None:
        self._buf += struct.pack("!H", value & 0xFFFF)

    def u32(self, value: int) -> None:
        self._buf += struct.pack("!I", value & 0xFFFFFFFF)

    def raw(self, data: bytes) -> None:
        self._buf += data

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite two bytes at *offset* (used for RDLENGTH back-patch)."""
        _U16.pack_into(self._buf, offset, value & 0xFFFF)

    def header(self, msg_id: int, flags_word: int, qd: int, an: int,
               ns: int, ar: int) -> None:
        """The 12-byte header in one pack."""
        self._buf += _HEADER.pack(msg_id & 0xFFFF, flags_word & 0xFFFF,
                                  qd, an & 0xFFFF, ns & 0xFFFF, ar & 0xFFFF)

    def rr_fixed(self, rtype: int, rclass: int, ttl: int) -> int:
        """The ten fixed bytes after an owner name in one pack, RDLENGTH
        zero; returns where the RDATA starts (RDLENGTH is the two bytes
        before, for :meth:`patch_u16`)."""
        self._buf += _RR_FIXED.pack(rtype & 0xFFFF, rclass & 0xFFFF,
                                    ttl & 0xFFFFFFFF, 0)
        return len(self._buf)

    # -- names ---------------------------------------------------------

    def name(self, name: Name, compress: bool = True) -> None:
        """Write *name*, emitting a compression pointer when a suffix of
        it has already been written at a pointer-reachable offset."""
        buf, offsets = self._buf, self._offsets
        key = name.folded
        start = len(buf)
        pointer_at = -1
        for i, label in enumerate(name.labels):
            suffix = key[i:]
            offset = offsets.get(suffix) if compress else None
            if offset is not None:
                pointer_at = len(buf)
                buf += _U16.pack(POINTER_FLAG | offset)
                break
            here = len(buf)
            if here <= MAX_POINTER_OFFSET:
                offsets.setdefault(suffix, here)
            buf.append(len(label))
            buf += label
        else:
            buf.append(0)
        if self._notes is not None:
            self._notes.append((start, key, pointer_at))


class WireReader:
    """Cursor over a received DNS message."""

    def __init__(self, data: bytes) -> None:
        # Labels are slices of *data* and end up hashed inside a Name.
        self.data = data if type(data) is bytes else bytes(data)
        self.pos = 0
        # offset -> (name, its wire length): every name read so far, by
        # where it starts and by each pointer target on the way, so a
        # pointer to one (an owner equal to the qname, a glue owner) is
        # a lookup and the Name is shared.
        self._names: dict[int, tuple[Name, int]] = {}

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise WireError(
                f"truncated message: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")

    def u8(self) -> int:
        self._need(1)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def u16(self) -> int:
        self._need(2)
        (value,) = _U16.unpack_from(self.data, self.pos)
        self.pos += 2
        return value

    def u32(self) -> int:
        self._need(4)
        (value,) = struct.unpack_from("!I", self.data, self.pos)
        self.pos += 4
        return value

    def raw(self, n: int) -> bytes:
        self._need(n)
        value = self.data[self.pos:self.pos + n]
        self.pos += n
        return value

    def header(self) -> tuple[int, int, int, int, int, int]:
        """``(id, flags word, QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT)``."""
        self._need(_HEADER.size)
        fields = _HEADER.unpack_from(self.data, self.pos)
        self.pos += _HEADER.size
        return fields

    def rr_fixed(self) -> tuple[int, int, int, int]:
        """``(type, class, ttl, rdlength)`` after an owner name."""
        self._need(_RR_FIXED.size)
        fields = _RR_FIXED.unpack_from(self.data, self.pos)
        self.pos += _RR_FIXED.size
        return fields

    def skip_name(self, name: Name) -> None:
        """Step over *name*, which the caller has proved is written
        uncompressed at the cursor, leaving the reader as :meth:`name`
        would: the cursor behind it and *name* in the pointer table."""
        size = name.wire_length()
        self._names[self.pos] = (name, size)
        self.pos += size

    def name(self) -> Name:
        """Read a possibly-compressed name starting at the cursor."""
        data = self.data
        end = len(data)
        names = self._names
        pos = self.pos
        labels: list[bytes] = []
        size = 1                # the root byte
        # (offset, labels read before it): where this name, and each
        # suffix of it a pointer led to, starts.
        marks = [(pos, 0)]
        jumped = False
        while True:
            if pos >= end:
                raise WireError("name runs past end of message")
            length = data[pos]
            if length & POINTER_MASK == POINTER_MASK:
                if pos + 1 >= end:
                    raise WireError("truncated compression pointer")
                target = (length & 0x3F) << 8 | data[pos + 1]
                if not jumped:
                    self.pos = pos + 2
                    jumped = True
                if target >= pos:
                    raise WireError("forward compression pointer")
                known = names.get(target)
                if known is not None:
                    tail, tail_size = known
                    size += tail_size - 1
                    break
                # Each jump lands strictly below its pointer, so a loop
                # has to come back up through labels to a mark.
                for mark, _ in marks:
                    if mark == target:
                        raise WireError("compression pointer loop")
                marks.append((target, len(labels)))
                pos = target
                continue
            if length & POINTER_MASK:
                raise WireError(f"bad label length byte 0x{length:02x}")
            if length == 0:
                if not jumped:
                    self.pos = pos + 1
                tail = _ROOT
                break
            pos += 1 + length
            if pos > end:
                raise WireError("label runs past end of message")
            size += 1 + length
            if size > MAX_NAME_WIRE:
                break
            labels.append(data[pos - length:pos])
        if size > MAX_NAME_WIRE:        # a memoised tail counts too
            raise WireError(f"name longer than {MAX_NAME_WIRE} bytes")
        if not labels:
            name = tail
        else:
            # The limits _validate_labels checks are enforced above.
            labels = tuple(labels)
            full, folded = labels + tail.labels, fold(labels)
            name = Name._trusted(full, full if folded is labels
                                 and tail.folded is tail.labels
                                 else folded + tail.folded)
        for mark, before in marks:
            if before == 0:
                names[mark] = (name, size)
            else:
                names[mark] = (
                    name._suffix(before),
                    size - before - sum(map(len, labels[:before])))
        return name
