"""Stream framing helpers.

DNS over TCP/TLS prefixes each message with a 2-byte length (RFC 1035
§4.2.2, RFC 7858); :class:`LengthPrefixFramer` reassembles messages from
the byte stream regardless of how TCP segmented them.
"""

from __future__ import annotations

import struct
from typing import Callable


def frame_message(payload: bytes) -> bytes:
    """Prefix *payload* with its 2-byte big-endian length."""
    if len(payload) > 0xFFFF:
        raise ValueError(f"message too large to frame ({len(payload)}B)")
    return struct.pack("!H", len(payload)) + payload


class LengthPrefixFramer:
    """Incremental parser for 2-byte-length-prefixed message streams."""

    def __init__(self, on_message: Callable[[bytes], None]):
        self._buf = bytearray()
        self._on_message = on_message

    def feed(self, data: bytes) -> None:
        """Deliver every whole message in the stream so far; keep only
        the incomplete tail.  A segment may carry many messages, so the
        walk moves an offset instead of re-shifting the buffer."""
        buf = self._buf
        if buf:
            buf += data
            data = bytes(buf)
            buf.clear()
        elif type(data) is not bytes:
            data = bytes(data)
        end = len(data)
        start = 0
        while end - start >= 2:
            stop = start + 2 + ((data[start] << 8) | data[start + 1])
            if stop > end:
                break
            self._on_message(data[start + 2:stop])
            start = stop
        if start < end:
            buf += data[start:]

    def pending_bytes(self) -> int:
        return len(self._buf)
