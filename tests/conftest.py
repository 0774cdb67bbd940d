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


def make_hand(value: float = 0.0, present: bool = True) -> gesture.HandFrame:
    return gesture.HandFrame(
        locations=np.full((gesture.NUM_JOINTS, 3), value),
        rotations=np.full((gesture.NUM_JOINTS, 3), value),
        hand_rotation=np.full(3, value),
        present=present,
    )


def make_sample(n_frames: int = 5, label=gesture.COFFEE, rate: float = 72.0,
                value: float = 0.0, handedness: str = "right",
                signer_id: str = "s00") -> gesture.GestureSample:
    frames = tuple(
        gesture.JointFrame(timestamp_s=i / rate, left=make_hand(value),
                           right=make_hand(value))
        for i in range(n_frames)
    )
    return gesture.GestureSample.from_frames(
        label=label, frames=frames, signer_id=signer_id,
        handedness=handedness, duration_s=frames[-1].timestamp_s,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_sample(rng, n_frames: int = 6, one_handed: bool = False,
                  label=gesture.TEA, signer_id: str = "s01") -> gesture.GestureSample:
    frames = []
    for i in range(n_frames):
        def hand():
            return gesture.HandFrame(
                locations=rng.uniform(-0.5, 0.5, size=(gesture.NUM_JOINTS, 3)),
                rotations=rng.uniform(-179.0, 179.0, size=(gesture.NUM_JOINTS, 3)),
                hand_rotation=rng.uniform(-179.0, 179.0, size=3),
            )
        left = gesture.HandFrame.absent() if one_handed else hand()
        frames.append(gesture.JointFrame(timestamp_s=i / 60.0, left=left, right=hand()))
    return gesture.GestureSample.from_frames(
        label=label, frames=frames, signer_id=signer_id,
        handedness="right", duration_s=frames[-1].timestamp_s,
    )


# The payload layout of a dataset file (version 2), spelled out here rather
# than imported, so that the tests check the documented layout.
DATASET_COLUMNS = (("timestamps", "<f8", ()),
                   ("locations", "<f8", (2, gesture.NUM_JOINTS, 3)),
                   ("rotations", "<f8", (2, gesture.NUM_JOINTS, 3)),
                   ("hand_rotation", "<f8", (2, 3)),
                   ("present", "u1", (2,)))
DATASET_MAGIC = b"ASLCHAMP-DS"


def rewrite_dataset(path, edit):
    """Decode the dataset file at ``path``, call ``edit(header, samples)`` to
    change it in place, and frame it again with a correct checksum.

    ``header`` is the parsed JSON header; ``samples`` has one dict of writable
    arrays per sample, keyed by array name.  The header's T values are left
    as the edit leaves them, so an edit can also make them disagree with the
    arrays.  Because the checksum is recomputed, the reader's checks behind
    it are the ones that see the edit.
    """
    raw = path.read_bytes()
    start = len(DATASET_MAGIC) + 8
    version, header_len = struct.unpack_from("<II", raw, len(DATASET_MAGIC))
    header = json.loads(raw[start:start + header_len])
    payload = raw[start + header_len:-8]
    samples, pos = [], 0
    for entry in header["samples"]:
        sample = {}
        for name, dtype, shape in DATASET_COLUMNS:
            full = (entry["T"],) + shape
            count = int(np.prod(full))
            sample[name] = np.frombuffer(payload, dtype, count, pos).reshape(full).copy()
            pos += sample[name].nbytes
        samples.append(sample)
    assert pos == len(payload)
    edit(header, samples)
    header_bytes = json.dumps(header).encode()
    payload = b"".join(np.ascontiguousarray(s[name], dtype=dtype).tobytes()
                       for s in samples for name, dtype, _ in DATASET_COLUMNS)
    path.write_bytes(DATASET_MAGIC + struct.pack("<II", version, len(header_bytes))
                     + header_bytes + payload + hashlib.sha256(payload).digest()[:8])
