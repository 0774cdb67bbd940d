import dataclasses

import numpy as np
import pytest

from aslchamp import gesture, synth
from aslchamp.dataset_io import write_dataset
from aslchamp.gesture import encode_features, validate_sample
from aslchamp.synth import (
    DatasetSpec,
    MissingTemplate,
    PathSpec,
    SignerProfile,
    default_templates,
    generate_dataset,
    generate_sample,
)


def signed_area_xz(points: np.ndarray) -> float:
    x, z = points[:, 0], points[:, 2]
    return 0.5 * float(np.sum(x * np.roll(z, -1) - np.roll(x, -1) * z))


def wrist_path(sample, side="right"):
    return sample.locations[:, gesture.SIDES.index(side), gesture.WRIST_JOINT]


ZERO_PROFILE = SignerProfile(signer_id="z", orientation_jitter_deg=0.0, noise_std_m=0.0)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def test_default_library_covers_vocabulary_plus_control():
    templates = default_templates()
    for sc in gesture.CANONICAL_SIGNS:
        assert sc.name in templates
    assert "COFFEE_REVERSED" in templates
    assert templates["MILK"].two_handed is False
    assert templates["COFFEE"].two_handed is True


def test_template_validation_rejects_bad_pose_keys():
    tpl = default_templates()["COFFEE"]
    bad = dataclasses.replace(tpl, dominant_pose_keys=((0.5, "fist"), (1.0, "fist")))
    with pytest.raises(synth.InvalidTemplate):
        bad.validate()


def test_path_kinds_evaluate():
    u = np.linspace(0, 1, 9)
    assert PathSpec("point", origin=(1, 2, 3)).evaluate(u).shape == (9, 3)
    circ = PathSpec("circle", radius=1.0, turns=1.0).evaluate(u)
    np.testing.assert_allclose(np.linalg.norm(circ, axis=1), 1.0, atol=1e-12)
    line = PathSpec("polyline", waypoints=((0, 0, 0), (1, 0, 0))).evaluate(u)
    np.testing.assert_allclose(line[:, 0], u, atol=1e-12)
    taps = PathSpec("taps", radius=1.0, taps=2).evaluate(u)
    assert taps[:, 0].max() == pytest.approx(1.0)
    with pytest.raises(synth.InvalidTemplate):
        PathSpec("wiggle").evaluate(u)


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------


def test_zero_perturbation_wrist_follows_template_circle_exactly():
    tpl = default_templates()["COFFEE"]
    sample = generate_sample(tpl, ZERO_PROFILE, np.random.default_rng(0))
    assert sample.timestamps.size == 217  # 72 Hz * 3 s inclusive grid
    u = np.arange(217) / 216
    expected = tpl.dominant_path.evaluate(u)
    np.testing.assert_array_equal(wrist_path(sample), expected)


def test_generated_samples_validate_for_every_sign():
    templates = default_templates()
    profile = SignerProfile(signer_id="s00", orientation_jitter_deg=5.0,
                            noise_std_m=0.004)
    for name, tpl in sorted(templates.items()):
        sample = generate_sample(tpl, profile, np.random.default_rng(3))
        assert validate_sample(sample).ok, name
        assert sample.label.name == name
        assert sample.duration_s == sample.timestamps[-1]


def test_generation_is_deterministic():
    tpl = default_templates()["TEA"]
    profile = SignerProfile(signer_id="s01", orientation_jitter_deg=4.0,
                            noise_std_m=0.002)
    a = generate_sample(tpl, profile, np.random.default_rng(11))
    b = generate_sample(tpl, profile, np.random.default_rng(11))
    assert a == b


def test_speed_factor_sets_duration():
    tpl = default_templates()["MILK"]
    slow = SignerProfile(signer_id="s", speed_factor=0.5)
    fast = SignerProfile(signer_id="f", speed_factor=2.0)
    s = generate_sample(tpl, slow, np.random.default_rng(0))
    f = generate_sample(tpl, fast, np.random.default_rng(0))
    assert s.duration_s == pytest.approx(6.0, abs=0.02)
    assert f.duration_s == pytest.approx(1.5, abs=0.02)


def test_duration_clamp():
    tpl = default_templates()["CUP"]
    profile = SignerProfile(signer_id="s", speed_factor=0.5)
    s = generate_sample(tpl, profile, np.random.default_rng(0), duration_s=4.0)
    assert s.duration_s <= 6.0 + 1e-9


def test_one_handed_sign_has_absent_left_hand():
    tpl = default_templates()["MILK"]
    sample = generate_sample(tpl, ZERO_PROFILE, np.random.default_rng(0))
    assert not sample.present[:, 0].any()
    assert sample.present[:, 1].all()


def test_left_handed_profile_mirrors():
    tpl = default_templates()["MILK"]
    lefty = SignerProfile(handedness="left", signer_id="L",
                          orientation_jitter_deg=0.0, noise_std_m=0.0)
    sample = generate_sample(tpl, lefty, np.random.default_rng(0))
    assert sample.handedness == "left"
    assert sample.present[:, 0].all()
    assert not sample.present[:, 1].any()


def test_coffee_and_reversed_have_opposite_signed_areas():
    templates = default_templates()
    fwd = generate_sample(templates["COFFEE"], ZERO_PROFILE, np.random.default_rng(5))
    rev = generate_sample(templates["COFFEE_REVERSED"], ZERO_PROFILE,
                          np.random.default_rng(5))
    a_fwd = signed_area_xz(wrist_path(fwd))
    a_rev = signed_area_xz(wrist_path(rev))
    assert a_fwd > 0 > a_rev
    assert a_fwd == pytest.approx(-a_rev)


def test_direction_sign_is_consistent_across_generated_coffees():
    spec = DatasetSpec(classes=("COFFEE", "COFFEE_REVERSED"), signers=6,
                       repetitions_per_class=3, master_seed=9)
    ds = generate_dataset(spec)
    for sample in ds.samples:
        # measure in a right-handed frame: mirror lefties back first
        normalized = (gesture.mirror_handedness(sample)
                      if sample.handedness == "left" else sample)
        area = signed_area_xz(wrist_path(normalized))
        if sample.label.name == "COFFEE":
            assert area > 0
        else:
            assert area < 0


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


def test_dataset_composition_and_balance():
    spec = DatasetSpec(signers=3, repetitions_per_class=2, master_seed=1)
    ds = generate_dataset(spec)
    assert len(ds.samples) == 9 * 3 * 2
    counts = {}
    for s in ds.samples:
        counts[s.label.name] = counts.get(s.label.name, 0) + 1
    assert set(counts.values()) == {6}
    signers = {s.signer_id for s in ds.samples}
    assert signers == {"s00", "s01", "s02"}


def test_default_composition_is_2700():
    # 9 classes x 15 signers x 20 repetitions
    spec = DatasetSpec()
    assert len(spec.classes) * spec.signers * spec.repetitions_per_class == 2700


def test_dataset_determinism_byte_for_byte(tmp_path):
    spec = DatasetSpec(classes=("COFFEE", "MILK"), signers=3,
                       repetitions_per_class=2, master_seed=77)
    a = generate_dataset(spec)
    b = generate_dataset(spec)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(a, pa)
    write_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_missing_template_raises():
    templates = {k: v for k, v in default_templates().items() if k != "CUP"}
    with pytest.raises(MissingTemplate):
        generate_dataset(DatasetSpec(signers=1, repetitions_per_class=1),
                         templates=templates)


def test_minimal_dataset():
    spec = DatasetSpec(classes=("STRAW",), signers=1, repetitions_per_class=1,
                       master_seed=3)
    ds = generate_dataset(spec)
    assert len(ds.samples) == 1
    assert validate_sample(ds.samples[0]).ok


def test_all_generated_samples_validate():
    spec = DatasetSpec(signers=2, repetitions_per_class=1, master_seed=5)
    ds = generate_dataset(spec)
    for s in ds.samples:
        assert validate_sample(s).ok


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(signers=0)
    with pytest.raises(ValueError):
        DatasetSpec(frame_rate_hz=1.0, duration_s=0.5)
    # Samples are seeded from the class code, so a repeat would be a byte copy.
    with pytest.raises(ValueError, match="MILK"):
        DatasetSpec(classes=("MILK", "TEA", "MILK"))
    with pytest.raises(ValueError):
        SignerProfile(speed_factor=3.0)
    with pytest.raises(ValueError):
        SignerProfile(noise_std_m=-1.0)


def test_nearest_centroid_baseline_exceeds_60_percent():
    # guards against degenerate templates: time-averaged features alone must
    # separate the nine classes reasonably well across unseen signers
    spec = DatasetSpec(signers=6, repetitions_per_class=3, master_seed=13)
    ds = generate_dataset(spec)
    train = [s for s in ds.samples if s.signer_id not in ("s04", "s05")]
    test = [s for s in ds.samples if s.signer_id in ("s04", "s05")]

    def avg(s):
        return encode_features(s).values.mean(axis=0)

    x_train = np.stack([avg(s) for s in train])
    y_train = np.array([s.label.code for s in train])
    x_test = np.stack([avg(s) for s in test])
    y_test = np.array([s.label.code for s in test])
    centroids = np.stack([x_train[y_train == c].mean(axis=0) for c in range(9)])
    dists = ((x_test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = float((dists.argmin(axis=1) == y_test).mean())
    assert accuracy > 0.6

