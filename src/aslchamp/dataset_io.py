"""Binary columnar dataset files.

A dataset file is one ``framing`` frame (all integers little-endian):

    bytes  0..10   magic "ASLCHAMP-DS"
    u32            format version (3)
    u32            header length in bytes
    header         UTF-8 JSON: {"schema_version": 1, "provenance": "...",
                   "samples": [{"label": "COFFEE", "signer_id": "s00",
                   "handedness": "right", "duration_s": 3.0, "T": 217}, ...]}
    payload        five columns, each holding every sample's array in
                   header order: timestamps (T,) f8, then locations
                   (T, 2, 25, 3) f8, rotations (T, 2, 25, 3) f8,
                   hand_rotation (T, 2, 3) f8, and present (T, 2) u8 (0 or 1)
                   last -- 2458 bytes per frame
    u64 tail       first 8 bytes of SHA-256 over every byte before it

The checksum is verified before the header is read.  Every f8 column starts
at a multiple of 8 bytes, so a read-back sample's arrays are aligned views of
the one payload buffer.  Floats are little-endian IEEE doubles, so a
read-back dataset is bit-identical to what was written; ``schema_version`` is
the dataset's own field, carried through unchanged.  The file suffix does not
matter.  Version 1 files (JSON lines) are refused with a message to
regenerate them with ``gen-data``; version 2 files (sample-major payload,
header outside the checksum) are refused with no converter.
"""

from __future__ import annotations

import os

import numpy as np

from .framing import read_frame, write_frame
from .gesture import (
    NUM_JOINTS,
    GestureDataset,
    GestureSample,
    sign_class,
    validate_dataset,
    validate_sample,
)

MAGIC = b"ASLCHAMP-DS"
FORMAT_VERSION = 3

# The payload columns, in order: name, on-disk dtype, shape of one frame.
_COLUMNS: tuple[tuple[str, np.dtype, tuple[int, ...]], ...] = (
    ("timestamps", np.dtype("<f8"), ()),
    ("locations", np.dtype("<f8"), (2, NUM_JOINTS, 3)),
    ("rotations", np.dtype("<f8"), (2, NUM_JOINTS, 3)),
    ("hand_rotation", np.dtype("<f8"), (2, 3)),
    ("present", np.dtype("u1"), (2,)),
)
FRAME_BYTES = sum(dtype.itemsize * int(np.prod(shape)) for _, dtype, shape in _COLUMNS)


class FormatError(Exception):
    """File is not a dataset file or is structurally broken."""


class SchemaError(Exception):
    """File parsed, but a record violates the sample schema."""


def write_dataset(ds: GestureDataset, path: str | os.PathLike) -> None:
    """Write a validated dataset; round-trips bit-exactly through read_dataset."""
    report = validate_dataset(ds)
    if not report.ok:
        f = report.findings[0]
        raise SchemaError(f"dataset fails validation: {f.rule} on {f.field}")
    header = {
        "schema_version": ds.schema_version,
        "provenance": ds.provenance,
        "samples": [{"label": s.label.name, "signer_id": s.signer_id,
                     "handedness": s.handedness, "duration_s": s.duration_s,
                     "T": s.timestamps.size} for s in ds.samples],
    }
    arrays = (np.ascontiguousarray(getattr(s, name), dtype=dtype)
              for name, dtype, _ in _COLUMNS for s in ds.samples)
    with open(path, "wb") as fh:
        write_frame(fh, MAGIC, FORMAT_VERSION, header, arrays)


def _frame_counts(header: dict) -> list[int]:
    """Each sample's T, after checking the dataset-level header fields; a
    malformed field raises FormatError."""
    if type(header.get("schema_version")) is not int:
        raise FormatError("header: schema_version must be an integer")
    if not isinstance(header.get("provenance"), str):
        raise FormatError("header: provenance must be a string")
    entries = header.get("samples")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise FormatError("header: samples must be a list of objects")
    counts = [e.get("T") for e in entries]
    for i, t in enumerate(counts):
        if type(t) is not int or t < 0:
            raise FormatError(f"sample {i}: T must be a non-negative integer, got {t!r}")
    return counts


def _sample(entry: dict, columns: dict[str, np.ndarray], i: int) -> GestureSample:
    """Build and validate one sample from its header entry and arrays."""
    try:
        label = sign_class(entry["label"])
        signer_id, handedness, duration_s = (entry["signer_id"], entry["handedness"],
                                             entry["duration_s"])
    except (KeyError, TypeError) as e:
        raise SchemaError(f"sample {i}: bad sample record: {e}") from e
    if not isinstance(signer_id, str) or not isinstance(handedness, str):
        raise SchemaError(f"sample {i}: signer_id and handedness must be strings")
    if isinstance(duration_s, bool) or not isinstance(duration_s, (int, float)):
        raise SchemaError(f"sample {i}: duration_s must be a JSON number, "
                          f"got {duration_s!r}")
    try:
        duration_s = float(duration_s)
    except OverflowError as e:  # an integer beyond the float range
        raise SchemaError(f"sample {i}: duration_s out of range") from e
    sample = GestureSample(label=label, signer_id=signer_id, handedness=handedness,
                           duration_s=duration_s, **columns)
    report = validate_sample(sample)
    if not report.ok:
        raise SchemaError(f"sample {i}: sample fails validation: "
                          f"{report.findings[0].rule} at frame {report.findings[0].frame}")
    return sample


def read_dataset(path: str | os.PathLike) -> GestureDataset:
    """Read a dataset file.

    Raises FormatError when the file is not a version 3 dataset file or its
    frame is broken (truncated, failing the checksum, malformed header or a
    payload of another length than the header implies), and SchemaError
    when a sample is not a valid sample.
    """
    with open(path, "rb") as fh:
        if fh.peek(1)[:1] == b"{":
            raise FormatError("a version 1 (JSON lines) dataset file is no longer "
                              "read; regenerate it with gen-data")
        header, payload = read_frame(fh, MAGIC, FORMAT_VERSION, wrong_kind=FormatError,
                                     corrupt=FormatError)
    counts = _frame_counts(header)
    frames = sum(counts)
    if payload.size != frames * FRAME_BYTES:
        raise FormatError(f"header implies a {frames * FRAME_BYTES}-byte payload, "
                          f"file holds {payload.size}")
    columns, pos = {}, 0
    for name, dtype, shape in _COLUMNS:
        size = frames * dtype.itemsize * int(np.prod(shape))
        columns[name] = payload[pos:pos + size].view(dtype).reshape((frames,) + shape)
        pos += size
    if (columns["present"] > 1).any():
        raise SchemaError("'present' bytes must be 0 or 1")
    splits = np.cumsum(counts)[:-1]
    parts = {name: np.split(column, splits) for name, column in columns.items()}
    samples = tuple(_sample(entry, {name: arrays[i] for name, arrays in parts.items()}, i)
                    for i, entry in enumerate(header["samples"]))
    return GestureDataset(samples=samples, schema_version=header["schema_version"],
                          provenance=header["provenance"])
