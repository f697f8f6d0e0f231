"""Bounds-checked reads from the bytes of a binary file.

The .lsfd, .lsfl and .lsfw readers unpack their headers and names through
these two functions, so a file that is cut short or carries a corrupted
length or name ends in a DataError naming the path (exit code 2), never in
a struct.error or UnicodeDecodeError.
"""

from __future__ import annotations

import struct

from .errors import DataError, TruncatedPayloadError


def unpack(fmt: str, data: bytes, offset: int, path: str,
           what: str) -> tuple[tuple, int]:
    """Unpack `fmt` at `offset`; return the values and the offset after them."""
    end = offset + struct.calcsize(fmt)
    if end > len(data):
        raise TruncatedPayloadError(f"{path}: truncated {what} (needs bytes "
                                    f"{offset}..{end}, file has {len(data)})")
    return struct.unpack_from(fmt, data, offset), end


def read_name(data: bytes, offset: int, path: str, what: str) -> tuple[str, int]:
    """Read a u16-length-prefixed UTF-8 name; return it and the offset after it."""
    (length,), offset = unpack("<H", data, offset, path, what)
    (raw,), offset = unpack(f"<{length}s", data, offset, path, what)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError:
        raise DataError(f"{path}: {what} is not valid UTF-8") from None
