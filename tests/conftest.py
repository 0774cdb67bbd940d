import os

# Pin BLAS to one thread before numpy is first imported (as `aslchamp
# --threads 1` does), so that in-process training figures do not depend on
# the number of cores of the machine the tests run on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
