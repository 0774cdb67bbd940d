"""Line-delimited dataset files.

One UTF-8 line per sample, each a self-describing JSON record; the first line
is a header carrying the magic string and schema version:

    {"magic": "ASLCHAMP-DS", "schema_version": 1, "provenance": "..."}
    {"label": "COFFEE", "signer_id": "s00", "handedness": "right",
     "duration_s": 3.0, "frames": [{"t": 0.0, "left": {...}, "right": {...}}]}

Hand records hold "present" (a JSON boolean), "loc" (25x3), "rot" (25x3) and
"hand_rot" (3).  Floats are written with Python's shortest round-trip
representation, so a read-back dataset is numerically identical to what was
written.  Each of a sample's five arrays is converted whole: one ``tolist()``
when writing and one ``np.array`` when reading.
"""

from __future__ import annotations

import json
import os
from itertools import repeat

import numpy as np

from .gesture import (
    GestureDataset,
    GestureSample,
    sign_class,
    validate_dataset,
    validate_sample,
)

MAGIC = "ASLCHAMP-DS"
SCHEMA_VERSION = 1


class FormatError(Exception):
    """File is not a dataset file or is structurally broken."""


class SchemaError(Exception):
    """File parsed, but a record violates the sample schema."""


_FRAME_KEYS = ("t", "left", "right")
_HAND_KEYS = ("present", "loc", "rot", "hand_rot")


def _records(keys: tuple[str, ...], *columns: list) -> list[dict]:
    """One dict per row of the equal-length ``columns``, keyed by ``keys`` in order."""
    return list(map(dict, map(zip, repeat(keys), zip(*columns))))


def _sample_to_line(sample: GestureSample) -> str:
    # Hand axis first, so each column's tolist() splits into left and right.
    by_side = zip(sample.present.T.tolist(),
                  *(np.swapaxes(getattr(sample, name), 0, 1).tolist()
                    for name in ("locations", "rotations", "hand_rotation")))
    left, right = (_records(_HAND_KEYS, *columns) for columns in by_side)
    obj = {
        "label": sample.label.name,
        "signer_id": sample.signer_id,
        "handedness": sample.handedness,
        "duration_s": sample.duration_s,
        "frames": _records(_FRAME_KEYS, sample.timestamps.tolist(), left, right),
    }
    return json.dumps(obj, separators=(",", ":"))


def _sample_from_obj(obj, line_no: int) -> GestureSample:
    if not isinstance(obj, dict):
        raise SchemaError(f"line {line_no}: record is not a JSON object")
    try:
        label = sign_class(obj["label"])
    except (KeyError, TypeError) as e:
        raise SchemaError(f"line {line_no}: {e}") from e
    try:
        frames = obj["frames"]
        hands = [(f["left"], f["right"]) for f in frames]

        def column(key, dtype=np.float64):
            return np.array([[h[key] for h in pair] for pair in hands], dtype=dtype)

        present = column("present", dtype=None)
        if present.size and present.dtype != np.bool_:
            raise SchemaError(f"line {line_no}: bad sample record: "
                              f"'present' must be a JSON boolean")
        sample = GestureSample(
            label=label,
            timestamps=np.array([f["t"] for f in frames], dtype=np.float64),
            locations=column("loc"),
            rotations=column("rot"),
            hand_rotation=column("hand_rot"),
            present=present,
            signer_id=str(obj["signer_id"]),
            handedness=str(obj["handedness"]),
            duration_s=float(obj["duration_s"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"line {line_no}: bad sample record: {e}") from e
    report = validate_sample(sample)
    if not report.ok:
        raise SchemaError(f"line {line_no}: sample fails validation: "
                          f"{report.findings[0].rule} at frame {report.findings[0].frame}")
    return sample


def write_dataset(ds: GestureDataset, path: str | os.PathLike) -> None:
    """Write a validated dataset; round-trips bit-exactly through read_dataset."""
    report = validate_dataset(ds)
    if not report.ok:
        f = report.findings[0]
        raise SchemaError(f"dataset fails validation: {f.rule} on {f.field}")
    header = {"magic": MAGIC, "schema_version": ds.schema_version, "provenance": ds.provenance}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for sample in ds.samples:
            fh.write(_sample_to_line(sample) + "\n")


def parse_json_line(line: bytes, what: str):
    """Parse one UTF-8 JSON line; a broken one raises FormatError naming ``what``."""
    try:
        return json.loads(line.decode("utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{what}: {e}") from e


def read_dataset(path: str | os.PathLike) -> GestureDataset:
    """Read a dataset file.

    Raises FormatError when the file is not a dataset file or a line is not
    JSON, and SchemaError when a record is not a valid sample.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line:
            raise FormatError("empty file")
        header = parse_json_line(header_line, "bad header")
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise FormatError(f"bad magic: expected {MAGIC!r}")
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise FormatError(f"unsupported schema_version {version!r}")

        samples = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            obj = parse_json_line(line, f"line {line_no}: bad record")
            samples.append(_sample_from_obj(obj, line_no))
    return GestureDataset(
        samples=tuple(samples),
        schema_version=version,
        provenance=str(header.get("provenance", "")),
    )
