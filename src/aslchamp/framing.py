"""The binary frame shared by checkpoint and dataset files.

Layout (all integers little-endian):

    magic          the file kind's magic bytes
    u32            format version
    u32            header length in bytes
    header         UTF-8 JSON object
    payload        the kind's arrays, back to back, in the order its header implies
    u64 tail       first 8 bytes of SHA-256 over the payload

The header is outside the checksum, so a reader checks what it implies (the
payload length first of all) against the file before trusting it.  Both the
writer and the reader stream the payload one array at a time; neither holds
the whole payload as one buffer.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import BinaryIO, Iterable

import numpy as np

_PREFIX = struct.Struct("<II")  # version, header length
TAIL_BYTES = 8


def _checksum(h) -> bytes:
    return h.digest()[:TAIL_BYTES]


def write_frame(fh: BinaryIO, magic: bytes, version: int, header: dict,
                arrays: Iterable[np.ndarray]) -> None:
    """Write one framed file; ``arrays`` are C-contiguous and already in their
    on-disk dtype, and are written (and hashed) one at a time."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fh.write(magic)
    fh.write(_PREFIX.pack(version, len(header_bytes)))
    fh.write(header_bytes)
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr)
        fh.write(arr)
    fh.write(_checksum(h))


class FrameReader:
    """Reads one framed file from an open binary file: the header on
    construction, then the payload array by array, then the tail.

    ``wrong_kind`` is raised when the magic or version is not the expected
    one, ``corrupt`` for anything truncated, malformed or failing the checksum.
    """

    def __init__(self, fh: BinaryIO, magic: bytes, version: int, *,
                 wrong_kind: type[Exception], corrupt: type[Exception]):
        self._fh = fh
        self._corrupt = corrupt
        self._hash = hashlib.sha256()
        got = self._read(len(magic), "magic")
        if got != magic:
            raise wrong_kind(f"bad magic {got!r}: expected {magic!r}")
        got_version, header_len = _PREFIX.unpack(self._read(_PREFIX.size, "version"))
        if got_version != version:
            raise wrong_kind(f"unsupported format version {got_version} (expected {version})")
        try:
            self.header = json.loads(self._read(header_len, "header").decode("utf-8"))
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise corrupt(f"corrupt header: {e}") from e
        if not isinstance(self.header, dict):
            raise corrupt("corrupt header: not a JSON object")
        self._payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell() - TAIL_BYTES

    def _read(self, size: int, what: str) -> bytes:
        data = self._fh.read(size)
        if len(data) != size:
            raise self._corrupt(f"truncated file: missing {what}")
        return data

    def expect_payload(self, nbytes: int) -> None:
        """Check the payload length the header implies against the file's,
        before anything is allocated for it."""
        if nbytes != self._payload_bytes:
            raise self._corrupt(f"header implies a {nbytes}-byte payload, "
                                f"file holds {self._payload_bytes}")

    def read_array(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The next payload array, read straight into a new array."""
        arr = np.empty(shape, dtype=dtype)
        flat = arr.reshape(-1).view(np.uint8)
        if self._fh.readinto(flat) != flat.nbytes:
            raise self._corrupt("truncated file: payload")
        self._hash.update(flat)
        return arr

    def verify(self) -> None:
        """Check the tail against the payload read, and that the file ends there."""
        if self._read(TAIL_BYTES, "checksum") != _checksum(self._hash):
            raise self._corrupt("payload checksum mismatch")
        if self._fh.read(1):
            raise self._corrupt("trailing bytes after checksum")
