import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aslchamp import gesture
from aslchamp.synth import default_templates
from aslchamp.gesture import (
    GestureSample,
    InvalidSample,
    LOCATION_SCALE_M,
    NUM_JOINTS,
    ROTATION_SCALE_DEG,
    encode_features,
    mirror_handedness,
    pad_or_truncate,
    validate_sample,
)

from conftest import make_sample, random_sample

SAMPLE_ARRAYS = ("timestamps", "locations", "rotations", "hand_rotation", "present")


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
    # The arrays hold every frame at once, so the error names the rule, the
    # field and both shapes; the frame count is the leading axis.
    sample = make_sample(n_frames=5)
    with pytest.raises(InvalidSample, match=r"joint-count: rotations expected "
                                            r"\(5, 2, 25, 3\), got \(5, 2, 24, 3\)"):
        dataclasses.replace(sample, rotations=np.zeros((5, 2, 24, 3)))


def test_wrong_array_shape_is_refused_at_construction():
    sample = make_sample(n_frames=4)
    with pytest.raises(InvalidSample, match=r"joint-count: locations"):
        dataclasses.replace(sample, locations=sample.locations[:, :, :24])
    with pytest.raises(InvalidSample, match=r"joint-count: present"):
        dataclasses.replace(sample, present=sample.present[:3])
    with pytest.raises(InvalidSample, match=r"joint-count: timestamps"):
        dataclasses.replace(sample, timestamps=sample.timestamps[:, None])


def test_monotonic_time_finding():
    sample = make_sample(n_frames=12)
    ts = sample.timestamps.copy()
    ts[10] = ts[9]
    sample = dataclasses.replace(sample, timestamps=ts)
    report = validate_sample(sample)
    assert any(f.rule == "monotonic-time" and f.frame == 10 for f in report.findings)


def test_non_finite_rotation_finding():
    sample = make_sample(n_frames=1, label=gesture.MILK, signer_id="x")
    rot = sample.rotations.copy()
    rot[0, 1] = np.nan  # frame 0, right hand
    sample = dataclasses.replace(sample, rotations=rot)
    report = validate_sample(sample)
    assert any(f.rule == "non-finite" for f in report.findings)


def test_duration_mismatch_and_empty_frames():
    sample = dataclasses.replace(make_sample(n_frames=4), duration_s=99.0)
    assert any(f.rule == "duration-mismatch" for f in validate_sample(sample).findings)
    empty = dataclasses.replace(make_sample(n_frames=1),
                                **{name: () for name in SAMPLE_ARRAYS})
    assert any(f.rule == "empty-frames" for f in validate_sample(empty).findings)


def test_validation_never_raises_on_garbage_shapes():
    # Garbage shapes cannot be stored: construction refuses them with
    # InvalidSample, and nothing else escapes.
    sample = make_sample(n_frames=1, label=gesture.CUP, signer_id="x")
    for name, garbage in (("timestamps", np.zeros((2, 7))), ("present", np.zeros(4)),
                          ("locations", np.zeros((2, 7))), ("rotations", np.zeros(4)),
                          ("hand_rotation", np.zeros((5, 5)))):
        with pytest.raises(InvalidSample, match=rf"joint-count: {name}"):
            dataclasses.replace(sample, **{name: garbage})


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_shape_217_by_306():
    sample = make_sample(n_frames=217, rate=72.0)
    m = encode_features(sample)
    assert m.shape == (217, 306)
    assert m.dtype == np.float64


def test_encode_returns_a_read_only_array(rng):
    m = encode_features(random_sample(rng))
    assert type(m) is np.ndarray and not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_encode_zero_sample_gives_zero_row():
    sample = make_sample(n_frames=1, value=0.0)
    m = encode_features(sample)
    assert m.shape == (1, 306)
    assert np.all(m == 0.0)


def test_encode_rotation_scaling_is_exact():
    sample = make_sample(n_frames=1, label=gesture.TEA, signer_id="x")
    hrot = sample.hand_rotation.copy()
    hrot[0, 1] = [90.0, 0.0, 0.0]  # frame 0, right hand
    sample = dataclasses.replace(sample, hand_rotation=hrot)
    m = encode_features(sample)
    # right hand block starts at 153; hand_rotation is its last 3 columns
    assert m[0, 153 + 150] == 0.5


def test_encode_invalid_sample_raises():
    sample = dataclasses.replace(make_sample(), duration_s=123.0)
    with pytest.raises(InvalidSample):
        encode_features(sample)


def test_encode_deterministic(rng):
    sample = random_sample(rng)
    a = encode_features(sample)
    b = encode_features(sample)
    assert np.array_equal(a, b)


def test_encode_centers_first_frame_wrist_midpoint(rng):
    sample = random_sample(rng)
    m = encode_features(sample)
    left_wrist = m[0, 0:3]
    right_wrist = m[0, 153:156]
    # midpoint of the two encoded wrists in frame 0 is exactly the origin
    np.testing.assert_allclose(left_wrist + right_wrist, 0.0, atol=1e-15)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_encoded_rotations_lie_in_unit_interval(n_frames, seed):
    sample = random_sample(np.random.default_rng(seed), n_frames=n_frames)
    m = encode_features(sample)
    for hand_start in (0, 153):
        block = m[:, hand_start:hand_start + 150].reshape(len(m), NUM_JOINTS, 6)
        rot = block[:, :, 3:]
        assert np.all(rot >= -1.0) and np.all(rot <= 1.0)
        hand_rot = m[:, hand_start + 150:hand_start + 153]
        assert np.all(np.abs(hand_rot) <= 1.0)


def reference_encode(sample: GestureSample) -> np.ndarray:
    """Per-frame encoder written from the module docstring's column layout."""
    present = sample.present.tolist()
    wrists = [sample.locations[0, s, 0] for s in (0, 1) if present[0][s]]
    center = np.mean(wrists, axis=0) if wrists else np.zeros(3)
    rows = []
    for k in range(sample.timestamps.size):
        row = []
        for s in (0, 1):  # left hand, then right
            if not present[k][s]:
                row.extend([0.0] * (NUM_JOINTS * 6 + 3))
                continue
            for j in range(NUM_JOINTS):
                row.extend((sample.locations[k, s, j] - center) / LOCATION_SCALE_M)
                row.extend(sample.rotations[k, s, j] / ROTATION_SCALE_DEG)
            row.extend(sample.hand_rotation[k, s] / ROTATION_SCALE_DEG)
        rows.append(row)
    return np.array(rows)


def drawn_sample(n_frames: int, seed: int, one_handed: bool, mirrored: bool) -> GestureSample:
    sample = random_sample(np.random.default_rng(seed), n_frames=n_frames,
                           one_handed=one_handed)
    return mirror_handedness(sample) if mirrored else sample


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31),
       st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_encode_matches_per_frame_reference(n_frames, seed, one_handed, mirrored):
    sample = drawn_sample(n_frames, seed, one_handed, mirrored)
    m = encode_features(sample)
    assert m.shape[1] == 306
    assert np.array_equal(m, reference_encode(sample))


# ---------------------------------------------------------------------------
# Padding / truncation
# ---------------------------------------------------------------------------


def test_pad_to_651_zero_fills(rng):
    sample = random_sample(rng, n_frames=8)
    m = encode_features(sample)
    padded = pad_or_truncate(m, 651)
    assert padded.shape == (651, 306)
    np.testing.assert_array_equal(padded[:8], m)
    assert np.all(padded[8:] == 0.0)


def test_pad_identity_when_already_t_max():
    values = np.ones((10, 4))
    out = pad_or_truncate(values, 10)
    np.testing.assert_array_equal(out, values)


def test_truncate_keeps_first_rows():
    values = np.arange(700 * 3, dtype=float).reshape(700, 3)
    out = pad_or_truncate(values, 651)
    assert out.shape == (651, 3)
    np.testing.assert_array_equal(out, values[:651])


def test_pad_requires_positive_t_max():
    with pytest.raises(ValueError):
        pad_or_truncate(np.zeros((3, 2)), 0)


def test_encode_rejects_overflowing_locations(rng):
    # 1e308 m is finite, so validation passes it, but centred and divided by
    # 0.15 m it overflows.  In the absent left hand it is never encoded; in
    # the present right hand encoding refuses the sample.  Neither warns.
    sample = random_sample(rng, n_frames=4, one_handed=True)
    for hand, refused in ((0, False), (1, True)):
        loc = sample.locations.copy()
        loc[2, hand, 7] = 1e308
        bad = dataclasses.replace(sample, locations=loc)
        assert validate_sample(bad).ok
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(InvalidSample, match="non-finite"):
                    encode_features(bad)
            else:
                assert np.array_equal(encode_features(bad), encode_features(sample))


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
    loc, loc_m = sample.locations[0], mirrored.locations[0]  # frame 0, (hand, joint, xyz)
    rot, rot_m = sample.rotations[0], mirrored.rotations[0]
    np.testing.assert_array_equal(loc_m[0, :, 0], -loc[1, :, 0])
    np.testing.assert_array_equal(loc_m[0, :, 1:], loc[1, :, 1:])
    np.testing.assert_array_equal(rot_m[1, :, 1], -rot[0, :, 1])
    np.testing.assert_array_equal(rot_m[1, :, 2], -rot[0, :, 2])
    np.testing.assert_array_equal(rot_m[1, :, 0], rot[0, :, 0])


def test_mirror_single_present_hand(rng):
    sample = random_sample(rng, one_handed=True)  # only right hand present
    mirrored = mirror_handedness(sample)
    assert mirrored.present[:, 0].all()
    assert not mirrored.present[:, 1].any()


def test_mirror_reverses_circle_direction():
    # counter-clockwise circle in the x-z plane traced by the right wrist
    n = 32
    th = 2 * np.pi * np.arange(n) / (n - 1)
    circle = np.column_stack([0.1 * np.cos(th), np.full(n, -0.3), 0.35 + 0.1 * np.sin(th)])
    sample = make_sample(n_frames=n, rate=60.0, label=gesture.COFFEE, signer_id="x")
    loc = sample.locations.copy()
    loc[:, 1, 0] = circle  # right wrist
    sample = dataclasses.replace(sample, locations=loc)

    def signed_area_xz(pts):
        x, z = pts[:, 0], pts[:, 2]
        return 0.5 * float(np.sum(x * np.roll(z, -1) - np.roll(x, -1) * z))

    wrist = sample.locations[:, 1, 0]
    mirrored = mirror_handedness(sample)
    wrist_m = mirrored.locations[:, 0, 0]
    a, am = signed_area_xz(wrist), signed_area_xz(wrist_m)
    assert a > 0
    assert am < 0
    assert am == pytest.approx(-a)
