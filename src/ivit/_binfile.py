"""Little-endian reading and name packing shared by the bank and checkpoint formats.

A name is stored as a u16 byte length followed by that many UTF-8 bytes.
`Reader` walks a file's bytes front to back: running out of bytes is a
`TruncatedFileError`, a name that is not UTF-8 or bytes left over after the
last field a `FormatError`.
"""

from __future__ import annotations

import struct

from .errors import FormatError, TruncatedFileError


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"name too long to serialize: {name[:32]!r}...")
    return struct.pack("<H", len(raw)) + raw


class Reader:
    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.off = 0
        self.label = label  # names the file in every message

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise TruncatedFileError(
                f"{self.label}: truncated {what}: needed {n} bytes at offset {self.off}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def name(self, what: str) -> str:
        (n,) = self.unpack("<H", what)
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not UTF-8 in {self.label}: {e}") from e

    def end(self, what: str) -> None:
        """Reject bytes after ``what``, the last field the format has."""
        if self.off != len(self.blob):
            raise FormatError(f"{self.label}: {len(self.blob) - self.off} trailing bytes after {what}")
