import os

# Pin BLAS to one thread before numpy is first imported (as `aslchamp
# --threads 1` does), so that in-process training figures do not depend on
# the number of cores of the machine the tests run on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib
import json
import struct

import numpy as np
import pytest

from aslchamp import gesture


def make_sample(n_frames: int = 5, label=gesture.COFFEE, rate: float = 72.0,
                value: float = 0.0, handedness: str = "right",
                signer_id: str = "s00") -> gesture.GestureSample:
    """Both hands present, every joint value ``value``, at ``rate`` Hz."""
    timestamps = np.arange(n_frames) / rate
    return gesture.GestureSample(
        label=label, timestamps=timestamps,
        locations=np.full((n_frames, 2, gesture.NUM_JOINTS, 3), value),
        rotations=np.full((n_frames, 2, gesture.NUM_JOINTS, 3), value),
        hand_rotation=np.full((n_frames, 2, 3), value),
        present=np.ones((n_frames, 2), dtype=bool),
        signer_id=signer_id, handedness=handedness, duration_s=float(timestamps[-1]),
    )


# The tests that take most of the suite's time: the desk-scale training runs
# and the CLI and script runs that train.  `pytest -m "not slow"` leaves them
# out for a quick loop; plain `pytest` runs everything.
SLOW_TESTS = frozenset({
    "test_desk_scale_accuracy", "test_direction_sensitivity", "test_cli_determinism",
    "test_lesson_sim_perfect_and_hopeless", "test_end_to_end_script_writes_its_artifacts",
    "test_bit_identity_script_finds_a_checkout_identical_to_itself",
})


def pytest_collection_modifyitems(items):
    for item in items:
        if getattr(item, "originalname", item.name) in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


HAND_VALUES = gesture.NUM_JOINTS * 6 + 3  # per hand: locations, rotations, hand_rotation


def random_sample(rng, n_frames: int = 6, one_handed: bool = False,
                  label=gesture.TEA, signer_id: str = "s01") -> gesture.GestureSample:
    """Uniform joints at 60 Hz: locations in [-0.5, 0.5) m, rotations in
    [-179, 179) degrees.  ``one_handed`` leaves the left hand absent and zero.

    The draws come frame by frame, left hand then right, each hand's
    locations then rotations then hand_rotation.
    """
    hands = 1 if one_handed else 2
    u = rng.random((n_frames, hands, HAND_VALUES))
    n_loc = gesture.NUM_JOINTS * 3
    values = np.zeros((n_frames, 2, HAND_VALUES))
    # low + (high - low) * u, as Generator.uniform(low, high) computes it
    values[:, 2 - hands:, :n_loc] = -0.5 + 1.0 * u[..., :n_loc]
    values[:, 2 - hands:, n_loc:] = -179.0 + 358.0 * u[..., n_loc:]
    joints = (n_frames, 2, gesture.NUM_JOINTS, 3)
    timestamps = np.arange(n_frames) / 60.0
    return gesture.GestureSample(
        label=label, timestamps=timestamps,
        locations=values[..., :n_loc].reshape(joints),
        rotations=values[..., n_loc:2 * n_loc].reshape(joints),
        hand_rotation=values[..., 2 * n_loc:],
        present=np.column_stack([np.full(n_frames, not one_handed),
                                 np.ones(n_frames, dtype=bool)]),
        signer_id=signer_id, handedness="right", duration_s=float(timestamps[-1]),
    )


# The payload layout of a dataset file (version 3), spelled out here rather
# than imported, so that the tests check the documented layout: one column
# per array name, each holding every sample's array in header order.
DATASET_COLUMNS = (("timestamps", "<f8", ()),
                   ("locations", "<f8", (2, gesture.NUM_JOINTS, 3)),
                   ("rotations", "<f8", (2, gesture.NUM_JOINTS, 3)),
                   ("hand_rotation", "<f8", (2, 3)),
                   ("present", "u1", (2,)))
DATASET_MAGIC = b"ASLCHAMP-DS"


def sign_frame(body: bytes) -> bytes:
    """A framed file's bytes up to its tail, followed by the tail: the first
    8 bytes of SHA-256 over them."""
    return body + hashlib.sha256(body).digest()[:8]


def frame_parts(raw: bytes, magic: bytes):
    """(version, header, payload) of the framed file ``raw``."""
    version, header_len = struct.unpack_from("<II", raw, len(magic))
    start = len(magic) + 8
    return version, json.loads(raw[start:start + header_len]), raw[start + header_len:-8]


def frame(magic: bytes, version: int, header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header).encode()
    return sign_frame(magic + struct.pack("<II", version, len(header_bytes))
                      + header_bytes + payload)


def rewrite_dataset(path, edit):
    """Decode the dataset file at ``path``, call ``edit(header, samples)`` to
    change it in place, and frame it again with a correct checksum.

    ``header`` is the parsed JSON header; ``samples`` has one dict of writable
    arrays per sample, keyed by array name.  The header's T values are left
    as the edit leaves them, so an edit can also make them disagree with the
    arrays.  Because the checksum is recomputed, the reader's checks behind
    it are the ones that see the edit.
    """
    version, header, payload = frame_parts(path.read_bytes(), DATASET_MAGIC)
    counts = [entry["T"] for entry in header["samples"]]
    samples = [{} for _ in counts]
    pos = 0
    for name, dtype, shape in DATASET_COLUMNS:
        for sample, t in zip(samples, counts):
            full = (t,) + shape
            count = int(np.prod(full))
            sample[name] = np.frombuffer(payload, dtype, count, pos).reshape(full).copy()
            pos += sample[name].nbytes
    assert pos == len(payload)
    edit(header, samples)
    payload = b"".join(np.ascontiguousarray(s[name], dtype=dtype).tobytes()
                       for name, dtype, _ in DATASET_COLUMNS for s in samples)
    path.write_bytes(frame(DATASET_MAGIC, version, header, payload))
