"""Bounds-checked reads from the bytes of a binary file.

The .lsfd, .lsfl and .lsfw readers load their files through read_file
and unpack headers and names through unpack and read_name, so a missing,
mislabelled, cut or corrupted file ends in a DataError naming the path
(exit code 2), never in a struct.error or UnicodeDecodeError.
"""

from __future__ import annotations

import os
import struct

from .errors import (BadMagicError, DataError, TruncatedPayloadError,
                     VersionError)


def read_file(path: str, magic: bytes, version: int, what: str,
              remedy: str) -> tuple[bytes, int]:
    """Read a `what` file that starts with `magic` and a u32 `version`;
    return its bytes and the offset after the version. `remedy` tells the
    reader of a VersionError how to get a file of this version."""
    if not os.path.exists(path):
        raise DataError(f"no such {what}: {path}")
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, got {data[:4]!r}")
    (found,), offset = unpack("<I", data, 4, path, "header")
    if found != version:
        raise VersionError(f"{path}: unsupported {what} version {found}; "
                           f"{remedy} to write version {version}")
    return data, offset


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
