import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aslchamp import gesture
from aslchamp.dataset_io import (
    FormatError,
    MAGIC,
    SchemaError,
    read_dataset,
    write_dataset,
)
from aslchamp.gesture import GestureDataset

from conftest import (DATASET_COLUMNS, DATASET_MAGIC, frame_parts, make_sample, random_sample,
                      rewrite_dataset, sign_frame)


def test_empty_dataset_round_trip(tmp_path):
    ds = GestureDataset(samples=(), schema_version=1, provenance="empty")
    path = tmp_path / "empty.ds"
    write_dataset(ds, path)
    data = path.read_bytes()
    assert data.startswith(MAGIC)
    assert data == sign_frame(data[:-8])  # the tail covers magic, version and header
    back = read_dataset(path)
    assert back == ds


def test_round_trip_is_exact_for_awkward_floats(tmp_path):
    sample = make_sample(n_frames=3)
    vals = np.array([0.1, 1.0 / 3.0, 1e-300, -1e16, 7.25])
    loc = sample.locations.copy()
    loc[:, 1] = vals[:3, None, None]  # right hand: frame k holds vals[k]
    loc[:, 1, 0, 0] = -0.0
    sample = dataclasses.replace(sample, locations=loc)
    ds = GestureDataset(samples=(sample,), provenance="floats")
    path = tmp_path / "floats.jsonl"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back == ds
    got = back.samples[0].locations[1, 1]
    want = ds.samples[0].locations[1, 1]
    assert got.tobytes() == want.tobytes()  # bit-exact decimal round-trip


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_round_trip_identity_randomized(seed, n_samples):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        one_handed = bool(rng.integers(0, 2))
        label = gesture.CANONICAL_SIGNS[int(rng.integers(0, 9))]
        samples.append(random_sample(rng, n_frames=int(rng.integers(1, 6)),
                                     one_handed=one_handed, label=label,
                                     signer_id=f"s{i}"))
    ds = GestureDataset(samples=tuple(samples), provenance=f"seed {seed}")
    import io, tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ds.jsonl")
        write_dataset(ds, path)
        back = read_dataset(path)
    assert back == ds


def test_corrupted_magic_raises_format_error(tmp_path):
    ds = GestureDataset(samples=(make_sample(),))
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    path.write_bytes(path.read_bytes().replace(MAGIC, b"ASLWRONG-XX"))
    with pytest.raises(FormatError, match="magic"):
        read_dataset(path)


def test_bad_json_line_raises_format_error(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(GestureDataset(samples=(make_sample(),)), path)
    data = path.read_bytes()
    path.write_bytes(data + b"{not json\n")  # bytes after the checksum
    with pytest.raises(FormatError, match="checksum"):
        read_dataset(path)
    broken = bytearray(data)
    broken[len(MAGIC) + 8] = ord("x")  # the header's opening brace
    path.write_bytes(bytes(broken))
    with pytest.raises(FormatError, match="checksum"):
        read_dataset(path)
    path.write_bytes(sign_frame(bytes(broken[:-8])))  # signed, so the JSON parser sees it
    with pytest.raises(FormatError, match="header"):
        read_dataset(path)


def test_unsupported_schema_version(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(GestureDataset(samples=(make_sample(),)), path)
    data = bytearray(path.read_bytes())
    for version in (2, 99):  # version 2 was sample-major, its header unchecked
        data[len(MAGIC)] = version  # the u32 format version follows the magic
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"version {version}"):
            read_dataset(path)


def test_version_1_file_asks_to_regenerate(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps({"magic": "ASLCHAMP-DS", "schema_version": 1}) + "\n")
    with pytest.raises(FormatError, match="gen-data"):
        read_dataset(path)


def _edit_entry(**fields):
    return lambda header, samples: header["samples"][0].update(fields)


@pytest.mark.parametrize("edit, error, match", [
    (_edit_entry(duration_s="0.0556"), SchemaError, "duration_s"),
    (_edit_entry(duration_s=True), SchemaError, "duration_s"),
    (_edit_entry(duration_s=10 ** 400), SchemaError, "duration_s"),
    (_edit_entry(signer_id=7), SchemaError, "signer_id"),
    (_edit_entry(T=-1), FormatError, "T must be"),
    (_edit_entry(T=5.0), FormatError, "T must be"),
    (_edit_entry(T="5"), FormatError, "T must be"),
    (_edit_entry(T=True), FormatError, "T must be"),
    (_edit_entry(T=4), FormatError, "payload"),
    (lambda header, samples: header.update(schema_version="1"), FormatError,
     "schema_version"),
    (lambda header, samples: header.update(samples=[1]), FormatError, "samples"),
], ids=["duration-string", "duration-bool", "duration-huge", "signer-number",
        "T-negative", "T-float", "T-string", "T-bool", "T-disagrees-with-payload",
        "schema-version-string", "entry-not-object"])
def test_mistyped_header_field_raises_documented_error(tmp_path, edit, error, match):
    path = tmp_path / "ds.jsonl"
    write_dataset(GestureDataset(samples=(make_sample(n_frames=5),)), path)
    rewrite_dataset(path, edit)
    with pytest.raises(error, match=match):
        read_dataset(path)


def test_empty_file_raises_format_error(tmp_path):
    path = tmp_path / "empty"
    path.write_text("")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_invalid_sample_on_read_raises_schema_error(tmp_path):
    path = tmp_path / "ds.jsonl"

    def nan_in_present_hand(header, samples):
        samples[0]["locations"][0, 1, 3, 0] = np.nan

    def decreasing_time(header, samples):
        samples[0]["timestamps"][1] = -1.0

    for edit, rule in ((nan_in_present_hand, "non-finite"), (decreasing_time, "monotonic")):
        write_dataset(GestureDataset(samples=(make_sample(n_frames=2),)), path)
        rewrite_dataset(path, edit)
        with pytest.raises(SchemaError, match=rule):
            read_dataset(path)


@pytest.mark.parametrize("value", [2, 3, 127, 128, 254, 255])
def test_presence_byte_must_be_0_or_1(tmp_path, value):
    path = tmp_path / "ds.jsonl"
    write_dataset(GestureDataset(samples=(make_sample(n_frames=2),)), path)

    def edit(header, samples):
        samples[0]["present"][1, 0] = value

    rewrite_dataset(path, edit)
    with pytest.raises(SchemaError, match="present"):
        read_dataset(path)


def test_empty_frames_on_read_raises_schema_error(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(GestureDataset(samples=(make_sample(n_frames=2),)), path)

    def edit(header, samples):
        header["samples"][0]["T"] = 0
        samples[0] = {name: arr[:0] for name, arr in samples[0].items()}

    rewrite_dataset(path, edit)
    with pytest.raises(SchemaError, match="empty-frames"):
        read_dataset(path)


def test_truncated_or_bit_flipped_file_raises_only_documented_errors(tmp_path):
    """Every truncation and a one-bit flip at every byte (header included)
    raises FormatError or SchemaError; nothing else escapes and nothing loads."""
    rng = np.random.default_rng(0)
    samples = (random_sample(rng, n_frames=1, one_handed=True, signer_id="s0"),
               make_sample(n_frames=2, label=gesture.MILK))
    path = tmp_path / "ds.jsonl"
    write_dataset(GestureDataset(samples=samples, provenance="fuzz"), path)
    data = path.read_bytes()
    broken = tmp_path / "broken.jsonl"

    def refused(blob):
        broken.write_bytes(blob)
        with pytest.raises((FormatError, SchemaError)):
            read_dataset(broken)

    for cut in range(len(data)):
        refused(data[:cut])
    for offset, bit in enumerate(rng.integers(0, 8, size=len(data))):
        flipped = bytearray(data)
        flipped[offset] ^= 1 << int(bit)
        refused(bytes(flipped))


def test_payload_is_column_major_and_read_as_aligned_views(tmp_path):
    samples = (make_sample(n_frames=3, value=1.0), make_sample(n_frames=2, value=2.0))
    path = tmp_path / "ds.ds"
    write_dataset(GestureDataset(samples=samples), path)
    _, _, payload = frame_parts(path.read_bytes(), DATASET_MAGIC)
    assert payload == b"".join(np.ascontiguousarray(getattr(s, name), dtype).tobytes()
                               for name, dtype, _ in DATASET_COLUMNS for s in samples)
    for sample in read_dataset(path).samples:
        for name, _, _ in DATASET_COLUMNS[:-1]:  # the f8 columns
            arr = getattr(sample, name)
            assert not arr.flags.owndata and arr.ctypes.data % 8 == 0


def test_unknown_label_raises_schema_error(tmp_path):
    ds = GestureDataset(samples=(make_sample(),))
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    rewrite_dataset(path, _edit_entry(label="NO_SUCH_SIGN"))
    with pytest.raises(SchemaError, match="NO_SUCH_SIGN"):
        read_dataset(path)


def test_write_rejects_invalid_dataset(tmp_path):
    import dataclasses
    bad = dataclasses.replace(make_sample(), duration_s=1e9)
    ds = GestureDataset(samples=(bad,))
    with pytest.raises(SchemaError):
        write_dataset(ds, tmp_path / "bad.jsonl")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_dataset(tmp_path / "nope.jsonl")
