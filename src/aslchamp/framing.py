"""The binary frame shared by checkpoint and dataset files.

Layout (all integers little-endian):

    magic          the file kind's magic bytes
    u32            format version
    u32            header length in bytes
    header         UTF-8 JSON object
    payload        the kind's arrays, back to back, in the order its header implies
    u64 tail       first 8 bytes of SHA-256 over every byte before it

The checksum covers the whole file, so ``read_frame`` checks it before it
parses the header: a caller interprets only verified bytes.  The payload is
read into one buffer, sized from the file, so the arrays a caller takes from
it are views with no copy; it starts aligned, and an array that starts at a
multiple of its item size within it is aligned too.
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


def write_frame(fh: BinaryIO, magic: bytes, version: int, header: dict,
                arrays: Iterable[np.ndarray]) -> None:
    """Write one framed file; ``arrays`` are C-contiguous and already in their
    on-disk dtype, and are written (and hashed) one at a time."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head = magic + _PREFIX.pack(version, len(header_bytes)) + header_bytes
    h = hashlib.sha256(head)
    fh.write(head)
    for arr in arrays:
        h.update(arr)
        fh.write(arr)
    fh.write(h.digest()[:TAIL_BYTES])


def read_frame(fh: BinaryIO, magic: bytes, version: int, *,
               wrong_kind: type[Exception],
               corrupt: type[Exception]) -> tuple[dict, np.ndarray]:
    """Read one framed file from an open binary file: (header, payload bytes).

    ``wrong_kind`` is raised when the magic or version is not the expected
    one, ``corrupt`` for a file that is truncated, fails the checksum or whose
    header is not a JSON object.
    """
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    prefix = fh.read(len(magic) + _PREFIX.size)
    if len(prefix) != len(magic) + _PREFIX.size:
        raise corrupt(f"truncated file: {size} bytes")
    if prefix[:len(magic)] != magic:
        raise wrong_kind(f"bad magic {prefix[:len(magic)]!r}: expected {magic!r}")
    got_version, header_len = _PREFIX.unpack_from(prefix, len(magic))
    if got_version != version:
        raise wrong_kind(f"unsupported format version {got_version} (expected {version})")
    payload_len = size - len(prefix) - header_len - TAIL_BYTES
    if payload_len < 0:
        raise corrupt(f"truncated file: {size} bytes, with a {header_len}-byte header")
    h = hashlib.sha256(prefix)
    header_bytes = fh.read(header_len)
    h.update(header_bytes)
    payload = np.empty(payload_len, dtype=np.uint8)
    fh.readinto(payload)
    h.update(payload)
    if fh.read(TAIL_BYTES) != h.digest()[:TAIL_BYTES]:
        raise corrupt(f"checksum mismatch over the {size}-byte file")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise corrupt(f"corrupt header: {e}") from e
    if not isinstance(header, dict):
        raise corrupt("corrupt header: not a JSON object")
    return header, payload
