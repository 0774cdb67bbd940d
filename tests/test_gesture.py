import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aslchamp import gesture
from aslchamp.synth import default_templates
from aslchamp.gesture import (
    EncodingConfig,
    FeatureMatrix,
    GestureSample,
    HandFrame,
    InvalidSample,
    JointFrame,
    LOCATION_SCALE_M,
    NUM_JOINTS,
    ROTATION_SCALE_DEG,
    encode_features,
    mirror_handedness,
    pad_or_truncate,
    validate_sample,
)

from conftest import make_hand, make_sample, random_sample


def with_frames(sample: GestureSample, frames, **changes) -> GestureSample:
    """``sample`` rebuilt from ``frames``, other fields as given or kept."""
    kw = dict(label=sample.label, signer_id=sample.signer_id,
              handedness=sample.handedness, duration_s=sample.duration_s)
    return GestureSample.from_frames(frames=frames, **{**kw, **changes})


# ---------------------------------------------------------------------------
# Sign vocabulary
# ---------------------------------------------------------------------------


def test_canonical_vocabulary():
    names = [s.name for s in gesture.CANONICAL_SIGNS]
    assert names == ["COFFEE", "TEA", "MILK", "WHIPPED_CREAM", "MUFFIN",
                     "COOKIE", "CUP", "STRAW", "MONEY"]
    assert [s.code for s in gesture.CANONICAL_SIGNS] == list(range(9))
    assert gesture.VOCABULARY == gesture.CANONICAL_SIGNS + (gesture.COFFEE_REVERSED,)
    assert [s.code for s in gesture.VOCABULARY] == list(range(10))
    for s in gesture.VOCABULARY:
        assert gesture.sign_class(s.name) is s
    # Every sign has a built-in template, so nothing downstream can miss one.
    assert set(default_templates()) == {s.name for s in gesture.VOCABULARY}


def test_unknown_sign_lookup():
    with pytest.raises(KeyError):
        gesture.sign_class("NOT_A_SIGN")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_well_formed_217_frame_sample_has_empty_report():
    sample = make_sample(n_frames=217, rate=72.0)
    report = validate_sample(sample)
    assert report.ok
    assert report.findings == ()


def test_joint_count_finding_names_frame_and_rule():
    sample = make_sample(n_frames=5)
    frames = list(sample.frames)
    bad = HandFrame(locations=np.zeros((24, 3)), rotations=np.zeros((24, 3)),
                    hand_rotation=np.zeros(3))
    frames[3] = JointFrame(timestamp_s=frames[3].timestamp_s,
                           left=frames[3].left, right=bad)
    with pytest.raises(InvalidSample, match=r"joint-count: frame 3 right\.locations"):
        with_frames(sample, frames)


def test_wrong_array_shape_is_refused_at_construction():
    sample = make_sample(n_frames=4)
    with pytest.raises(InvalidSample, match=r"joint-count: locations"):
        dataclasses.replace(sample, locations=sample.locations[:, :, :24])
    with pytest.raises(InvalidSample, match=r"joint-count: present"):
        dataclasses.replace(sample, present=sample.present[:3])
    with pytest.raises(InvalidSample, match=r"joint-count: timestamps"):
        dataclasses.replace(sample, timestamps=sample.timestamps[:, None])


def test_monotonic_time_finding():
    frames = list(make_sample(n_frames=12).frames)
    frames[10] = dataclasses.replace(frames[10], timestamp_s=frames[9].timestamp_s)
    sample = with_frames(make_sample(n_frames=12), frames,
                         duration_s=frames[-1].timestamp_s)
    report = validate_sample(sample)
    assert any(f.rule == "monotonic-time" and f.frame == 10 for f in report.findings)


def test_non_finite_rotation_finding():
    hand = HandFrame(locations=np.zeros((NUM_JOINTS, 3)),
                     rotations=np.full((NUM_JOINTS, 3), np.nan),
                     hand_rotation=np.zeros(3))
    frames = (JointFrame(timestamp_s=0.0, left=make_hand(), right=hand),)
    sample = GestureSample.from_frames(label=gesture.MILK, frames=frames, signer_id="x",
                                       handedness="right", duration_s=0.0)
    report = validate_sample(sample)
    assert any(f.rule == "non-finite" for f in report.findings)


def test_duration_mismatch_and_empty_frames():
    sample = dataclasses.replace(make_sample(n_frames=4), duration_s=99.0)
    assert any(f.rule == "duration-mismatch" for f in validate_sample(sample).findings)
    empty = with_frames(make_sample(n_frames=1), ())
    assert any(f.rule == "empty-frames" for f in validate_sample(empty).findings)


def test_validation_never_raises_on_garbage_shapes():
    # Garbage shapes cannot be stored: construction refuses them with
    # InvalidSample, and nothing else escapes.
    weird = HandFrame(locations=np.zeros((2, 7)), rotations=np.zeros(4),
                      hand_rotation=np.zeros((5, 5)))
    frames = (JointFrame(timestamp_s=0.0, left=weird, right=weird),)
    with pytest.raises(InvalidSample, match=r"joint-count: frame 0 left\.locations"):
        GestureSample.from_frames(label=gesture.CUP, frames=frames, signer_id="x",
                                  handedness="right", duration_s=0.0)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_shape_217_by_306():
    sample = make_sample(n_frames=217, rate=72.0)
    m = encode_features(sample)
    assert (m.rows, m.cols) == (217, 306)
    assert m.mask_len == 217


def test_encode_zero_sample_gives_zero_row():
    sample = make_sample(n_frames=1, value=0.0)
    m = encode_features(sample)
    assert m.values.shape == (1, 306)
    assert np.all(m.values == 0.0)


def test_encode_rotation_scaling_is_exact():
    hand = HandFrame(locations=np.zeros((NUM_JOINTS, 3)),
                     rotations=np.zeros((NUM_JOINTS, 3)),
                     hand_rotation=np.array([90.0, 0.0, 0.0]))
    frames = (JointFrame(timestamp_s=0.0, left=make_hand(), right=hand),)
    sample = GestureSample.from_frames(label=gesture.TEA, frames=frames, signer_id="x",
                                       handedness="right", duration_s=0.0)
    m = encode_features(sample)
    # right hand block starts at 153; hand_rotation is its last 3 columns
    assert m.values[0, 153 + 150] == 0.5


def test_encode_presence_flags_dimension_and_values(rng):
    sample = random_sample(rng, one_handed=True)
    cfg = EncodingConfig(presence_flags=True)
    m = encode_features(sample, cfg)
    assert m.cols == 308
    assert np.all(m.values[:, 306] == 0.0)  # left hand absent
    assert np.all(m.values[:, 307] == 1.0)
    # absent hand encodes as zeros
    assert np.all(m.values[:, :153] == 0.0)


def test_encode_invalid_sample_raises():
    sample = dataclasses.replace(make_sample(), duration_s=123.0)
    with pytest.raises(InvalidSample):
        encode_features(sample)


def test_encode_deterministic(rng):
    sample = random_sample(rng)
    a = encode_features(sample)
    b = encode_features(sample)
    assert a == b


def test_encode_centers_first_frame_wrist_midpoint(rng):
    sample = random_sample(rng)
    m = encode_features(sample)
    left_wrist = m.values[0, 0:3]
    right_wrist = m.values[0, 153:156]
    # midpoint of the two encoded wrists in frame 0 is exactly the origin
    np.testing.assert_allclose(left_wrist + right_wrist, 0.0, atol=1e-15)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_encoded_rotations_lie_in_unit_interval(n_frames, seed):
    sample = random_sample(np.random.default_rng(seed), n_frames=n_frames)
    m = encode_features(sample)
    for hand_start in (0, 153):
        block = m.values[:, hand_start:hand_start + 150].reshape(m.rows, NUM_JOINTS, 6)
        rot = block[:, :, 3:]
        assert np.all(rot >= -1.0) and np.all(rot <= 1.0)
        hand_rot = m.values[:, hand_start + 150:hand_start + 153]
        assert np.all(np.abs(hand_rot) <= 1.0)


def reference_encode(sample: GestureSample, presence_flags: bool) -> np.ndarray:
    """Per-frame encoder written from the module docstring's column layout."""
    first = sample.frames[0]
    wrists = [h.locations[0] for h in (first.left, first.right) if h.present]
    center = np.mean(wrists, axis=0) if wrists else np.zeros(3)
    rows = []
    for frame in sample.frames:
        row = []
        for hand in (frame.left, frame.right):
            if not hand.present:
                row.extend([0.0] * (NUM_JOINTS * 6 + 3))
                continue
            for j in range(NUM_JOINTS):
                row.extend((hand.locations[j] - center) / LOCATION_SCALE_M)
                row.extend(hand.rotations[j] / ROTATION_SCALE_DEG)
            row.extend(hand.hand_rotation / ROTATION_SCALE_DEG)
        if presence_flags:
            row.extend([float(frame.left.present), float(frame.right.present)])
        rows.append(row)
    return np.array(rows)


def drawn_sample(n_frames: int, seed: int, one_handed: bool, mirrored: bool) -> GestureSample:
    sample = random_sample(np.random.default_rng(seed), n_frames=n_frames,
                           one_handed=one_handed)
    return mirror_handedness(sample) if mirrored else sample


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31),
       st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_encode_matches_per_frame_reference(n_frames, seed, one_handed, mirrored,
                                            presence_flags):
    sample = drawn_sample(n_frames, seed, one_handed, mirrored)
    m = encode_features(sample, EncodingConfig(presence_flags=presence_flags))
    assert np.array_equal(m.values, reference_encode(sample, presence_flags))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31),
       st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_from_frames_round_trips_the_frames_view(n_frames, seed, one_handed, mirrored):
    s = drawn_sample(n_frames, seed, one_handed, mirrored)
    frames = s.frames
    assert len(frames) == n_frames
    assert not frames[0].right.locations.flags.writeable
    assert GestureSample.from_frames(s.label, frames, s.signer_id, s.handedness,
                                     s.duration_s) == s


# ---------------------------------------------------------------------------
# Padding / truncation
# ---------------------------------------------------------------------------


def test_pad_to_651_zero_fills_and_keeps_mask(rng):
    sample = random_sample(rng, n_frames=8)
    m = encode_features(sample)
    padded = pad_or_truncate(m, 651)
    assert padded.values.shape == (651, 306)
    assert padded.mask_len == 8
    np.testing.assert_array_equal(padded.values[:8], m.values)
    assert np.all(padded.values[8:] == 0.0)


def test_pad_identity_when_already_t_max():
    m = FeatureMatrix(values=np.ones((10, 4)), mask_len=10)
    out = pad_or_truncate(m, 10)
    assert out == m


def test_truncate_keeps_first_rows():
    values = np.arange(700 * 3, dtype=float).reshape(700, 3)
    m = FeatureMatrix(values=values, mask_len=700)
    out = pad_or_truncate(m, 651)
    assert out.values.shape == (651, 3)
    assert out.mask_len == 651
    np.testing.assert_array_equal(out.values, values[:651])


def test_pad_requires_positive_t_max():
    m = FeatureMatrix(values=np.zeros((3, 2)), mask_len=3)
    with pytest.raises(ValueError):
        pad_or_truncate(m, 0)


def test_feature_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        FeatureMatrix(values=np.array([[np.inf, 0.0]]), mask_len=1)


# ---------------------------------------------------------------------------
# Mirroring
# ---------------------------------------------------------------------------


def test_mirror_is_involution(rng):
    for seed in range(8):
        sample = random_sample(np.random.default_rng(seed))
        assert mirror_handedness(mirror_handedness(sample)) == sample


def test_mirror_flips_handedness_and_negates_x(rng):
    sample = random_sample(rng)
    mirrored = mirror_handedness(sample)
    assert mirrored.handedness == "left"
    assert mirrored.label == sample.label
    f0, m0 = sample.frames[0], mirrored.frames[0]
    np.testing.assert_array_equal(m0.left.locations[:, 0], -f0.right.locations[:, 0])
    np.testing.assert_array_equal(m0.left.locations[:, 1:], f0.right.locations[:, 1:])
    np.testing.assert_array_equal(m0.right.rotations[:, 1], -f0.left.rotations[:, 1])
    np.testing.assert_array_equal(m0.right.rotations[:, 2], -f0.left.rotations[:, 2])
    np.testing.assert_array_equal(m0.right.rotations[:, 0], f0.left.rotations[:, 0])


def test_mirror_single_present_hand(rng):
    sample = random_sample(rng, one_handed=True)  # only right hand present
    mirrored = mirror_handedness(sample)
    assert all(f.left.present and not f.right.present for f in mirrored.frames)


def test_mirror_reverses_circle_direction():
    # counter-clockwise circle in the x-z plane traced by the right wrist
    n = 32
    frames = []
    for i in range(n):
        th = 2 * np.pi * i / (n - 1)
        hand = make_hand()
        loc = np.array(hand.locations, copy=True)
        loc[0] = [0.1 * np.cos(th), -0.3, 0.35 + 0.1 * np.sin(th)]
        right = HandFrame(locations=loc, rotations=hand.rotations,
                          hand_rotation=hand.hand_rotation)
        frames.append(JointFrame(timestamp_s=i / 60.0, left=make_hand(), right=right))
    sample = GestureSample.from_frames(label=gesture.COFFEE, frames=frames, signer_id="x",
                                       handedness="right", duration_s=frames[-1].timestamp_s)

    def signed_area_xz(pts):
        x, z = pts[:, 0], pts[:, 2]
        return 0.5 * float(np.sum(x * np.roll(z, -1) - np.roll(x, -1) * z))

    wrist = np.array([f.right.locations[0] for f in sample.frames])
    mirrored = mirror_handedness(sample)
    wrist_m = np.array([f.left.locations[0] for f in mirrored.frames])
    a, am = signed_area_xz(wrist), signed_area_xz(wrist_m)
    assert a > 0
    assert am < 0
    assert am == pytest.approx(-a)
