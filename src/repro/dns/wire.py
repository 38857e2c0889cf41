"""Wire-format primitives: a writer with name compression and a reader.

The writer maintains the RFC 1035 §4.1.4 compression table mapping name
suffixes to buffer offsets; the reader follows compression pointers with
loop protection.
"""

from __future__ import annotations

import struct

from repro.dns.constants import MAX_NAME_WIRE
from repro.dns.name import Name


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
        self._buf[offset:offset + 2] = struct.pack("!H", value & 0xFFFF)

    # -- names ---------------------------------------------------------

    def name(self, name: Name, compress: bool = True) -> None:
        """Write *name*, emitting a compression pointer when a suffix of
        it has already been written at a pointer-reachable offset."""
        labels = name.labels
        key = name.folded
        start = len(self._buf)
        pointer_at = -1
        for i in range(len(labels)):
            suffix = key[i:]
            offset = self._offsets.get(suffix) if compress else None
            if offset is not None:
                pointer_at = len(self._buf)
                self.u16(POINTER_FLAG | offset)
                break
            here = len(self._buf)
            if here <= MAX_POINTER_OFFSET:
                self._offsets.setdefault(suffix, here)
            label = labels[i]
            self._buf.append(len(label))
            self._buf += label
        else:
            self._buf.append(0)
        if self._notes is not None:
            self._notes.append((start, key, pointer_at))


class WireReader:
    """Cursor over a received DNS message."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

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
        (value,) = struct.unpack_from("!H", self.data, self.pos)
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

    def name(self) -> Name:
        """Read a possibly-compressed name starting at the cursor."""
        labels: list[bytes] = []
        size = 1                # the root byte
        pos = self.pos
        jumped = False
        seen: set[int] = set()
        while True:
            if pos in seen:
                raise WireError("compression pointer loop")
            seen.add(pos)
            if pos >= len(self.data):
                raise WireError("name runs past end of message")
            length = self.data[pos]
            if length & POINTER_MASK == POINTER_MASK:
                if pos + 1 >= len(self.data):
                    raise WireError("truncated compression pointer")
                target = ((length & ~POINTER_MASK & 0xFF) << 8) \
                    | self.data[pos + 1]
                if not jumped:
                    self.pos = pos + 2
                    jumped = True
                if target >= pos:
                    raise WireError("forward compression pointer")
                pos = target
                continue
            if length & POINTER_MASK:
                raise WireError(f"bad label length byte 0x{length:02x}")
            if length == 0:
                if not jumped:
                    self.pos = pos + 1
                break
            if pos + 1 + length > len(self.data):
                raise WireError("label runs past end of message")
            size += 1 + length
            if size > MAX_NAME_WIRE:    # Name() would raise NameError_
                raise WireError(f"name longer than {MAX_NAME_WIRE} bytes")
            labels.append(self.data[pos + 1:pos + 1 + length])
            pos += 1 + length
        return Name(labels)
