"""Synthetic sign generator.

Hand-authored parametric templates stand in for the unpublished recordings.
They are not claimed to be citation-form ASL; they preserve the contrasts the
recognizer has to care about: one-handed vs two-handed signs, a stationary
base hand under a moving dominant hand, distinct handshapes, and the rotation
direction of circular movements (COFFEE vs the COFFEE_REVERSED control class).

Coordinates are headset-local: x to the signer's right, y up, z forward.
Templates are authored right-hand-dominant; left-handed productions are made
by mirroring the finished sample across the sagittal plane.  Generation
computes whole (T, 2, ...) sample arrays; no step runs per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gesture
from .gesture import (
    COFFEE_REVERSED,
    GestureDataset,
    GestureSample,
    NUM_JOINTS,
    SignClass,
    mirror_handedness,
)

TEMPLATE_VERSION = 1


class InvalidTemplate(ValueError):
    pass


class MissingTemplate(KeyError):
    pass


# ---------------------------------------------------------------------------
# Parametric paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """Closed-form 3-D curve over normalized time u in [0, 1].

    kinds:
      point     -- stationary at origin
      circle    -- origin + radius*(cos(th)*axis_u + sin(th)*axis_v),
                   th = 2*pi*turns*u + phase; negative turns reverse direction
      polyline  -- piecewise-linear through waypoints, uniform in u
      taps      -- origin + axis_u*radius*|sin(pi*taps*u)|: `taps` bounces
    """

    kind: str
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    axis_u: tuple[float, float, float] = (1.0, 0.0, 0.0)
    axis_v: tuple[float, float, float] = (0.0, 0.0, 1.0)
    radius: float = 0.0
    turns: float = 1.0
    phase_deg: float = 0.0
    waypoints: tuple[tuple[float, float, float], ...] = ()
    taps: int = 1

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        origin = np.asarray(self.origin)
        if self.kind == "point":
            return np.tile(origin, (u.size, 1))
        if self.kind == "circle":
            th = 2.0 * math.pi * self.turns * u + math.radians(self.phase_deg)
            return (origin[None, :]
                    + self.radius * np.cos(th)[:, None] * np.asarray(self.axis_u)[None, :]
                    + self.radius * np.sin(th)[:, None] * np.asarray(self.axis_v)[None, :])
        if self.kind == "polyline":
            pts = np.asarray(self.waypoints, dtype=np.float64)
            if pts.ndim != 2 or pts.shape[0] < 2:
                raise InvalidTemplate("polyline needs at least two waypoints")
            seg = u * (pts.shape[0] - 1)
            idx = np.clip(seg.astype(int), 0, pts.shape[0] - 2)
            frac = (seg - idx)[:, None]
            return pts[idx] * (1.0 - frac) + pts[idx + 1] * frac
        if self.kind == "taps":
            s = np.abs(np.sin(math.pi * self.taps * u))
            return origin[None, :] + self.radius * s[:, None] * np.asarray(self.axis_u)[None, :]
        raise InvalidTemplate(f"unknown path kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Handshapes: 25-joint offsets relative to the wrist (joint 0 stays at zero)
# ---------------------------------------------------------------------------

_FINGER_X = (-0.045, -0.02, 0.0, 0.02, 0.04)  # thumb .. pinky lateral spread
_SEGMENT_LEN = (0.035, 0.03, 0.025, 0.02)


def _hand_geometry(curls: tuple[float, float, float, float, float]):
    """Offsets (25, 3) and finger-curl rotations (25, 3) for given curls.

    Joint 0 is the wrist, joints 1-4 palm/metacarpal markers, joints 5-24 are
    five fingers with four joints each.  Curl 0 extends a finger along +z,
    curl 1 wraps it toward the palm.
    """
    offsets = np.zeros((NUM_JOINTS, 3))
    rotations = np.zeros((NUM_JOINTS, 3))
    offsets[1] = (0.0, 0.005, 0.04)  # palm center
    offsets[2] = (-0.03, 0.0, 0.03)
    offsets[3] = (0.0, 0.0, 0.05)
    offsets[4] = (0.03, 0.0, 0.03)
    for finger in range(5):
        base = np.array([_FINGER_X[finger], 0.0, 0.07])
        angle = 0.0
        pos = base.copy()
        for seg in range(4):
            j = 5 + finger * 4 + seg
            angle += curls[finger] * math.radians(38.0)
            step = _SEGMENT_LEN[seg]
            pos = pos + step * np.array([0.0, -math.sin(angle), math.cos(angle)])
            offsets[j] = pos
            rotations[j] = (math.degrees(angle), 0.0, 0.0)
    return offsets, rotations


HANDSHAPES: dict[str, tuple[np.ndarray, np.ndarray]] = {
    "open": _hand_geometry((0.15, 0.0, 0.0, 0.0, 0.0)),
    "fist": _hand_geometry((0.8, 1.0, 1.0, 1.0, 1.0)),
    "pinch": _hand_geometry((0.55, 0.65, 0.12, 0.12, 0.12)),
    "c_shape": _hand_geometry((0.45, 0.5, 0.5, 0.5, 0.5)),
    "claw": _hand_geometry((0.4, 0.62, 0.62, 0.62, 0.62)),
    "flat_o": _hand_geometry((0.7, 0.6, 0.6, 0.6, 0.6)),
}

PoseKeys = tuple[tuple[float, str], ...]
RotationKeys = tuple[tuple[float, tuple[float, float, float]], ...]


def _interp_keys(keys, u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Linear interpolation over (u_key, value) pairs; values stacked per key."""
    us = np.array([k for k, _ in keys])
    if len(keys) == 1:
        return np.tile(values[0], (u.size,) + (1,) * (values.ndim - 1))
    idx = np.clip(np.searchsorted(us, u, side="right") - 1, 0, len(keys) - 2)
    lo = us[idx]
    hi = us[idx + 1]
    frac = np.where(hi > lo, (u - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    shape = (u.size,) + (1,) * (values.ndim - 1)
    return values[idx] * (1.0 - frac.reshape(shape)) + values[idx + 1] * frac.reshape(shape)


def _pose_arrays(keys: PoseKeys, u: np.ndarray):
    offs = np.stack([HANDSHAPES[name][0] for _, name in keys])
    rots = np.stack([HANDSHAPES[name][1] for _, name in keys])
    return _interp_keys(keys, u, offs), _interp_keys(keys, u, rots)


def _rotation_array(keys: RotationKeys, u: np.ndarray) -> np.ndarray:
    vals = np.array([v for _, v in keys], dtype=np.float64)
    return _interp_keys(keys, u, vals)


def wrap_degrees(a: np.ndarray) -> np.ndarray:
    """Wrap angles into [-180, 180)."""
    return (a + 180.0) % 360.0 - 180.0


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignTemplate:
    sign: SignClass
    dominant_path: PathSpec
    nondominant_path: PathSpec | None
    dominant_pose_keys: PoseKeys
    nondominant_pose_keys: PoseKeys
    dominant_rotation: RotationKeys
    nondominant_rotation: RotationKeys
    two_handed: bool = True

    def validate(self):
        if self.two_handed != (self.nondominant_path is not None):
            raise InvalidTemplate(f"{self.sign.name}: two_handed flag inconsistent")
        for keys in (self.dominant_pose_keys, self.nondominant_pose_keys):
            if not keys:
                raise InvalidTemplate(f"{self.sign.name}: empty pose keys")
            us = [k for k, _ in keys]
            if us != sorted(us) or us[0] != 0.0 or us[-1] != 1.0:
                raise InvalidTemplate(f"{self.sign.name}: pose keys must cover u in [0,1]")
            for _, name in keys:
                if name not in HANDSHAPES:
                    raise InvalidTemplate(f"{self.sign.name}: unknown handshape {name!r}")
        for keys in (self.dominant_rotation, self.nondominant_rotation):
            if not keys:
                raise InvalidTemplate(f"{self.sign.name}: empty rotation keys")


def _still(name: str) -> PoseKeys:
    return ((0.0, name), (1.0, name))


def _rot(pyr: tuple[float, float, float]) -> RotationKeys:
    return ((0.0, pyr), (1.0, pyr))


def default_templates() -> dict[str, SignTemplate]:
    """One template per vocabulary sign: the nine signs plus the reversed control."""
    t: dict[str, SignTemplate] = {}

    def add(sign, **kw):
        tpl = SignTemplate(sign=sign, **kw)
        tpl.validate()
        t[sign.name] = tpl

    # Dominant fist grinds in a horizontal circle over a stationary base fist.
    add(gesture.COFFEE,
        dominant_path=PathSpec("circle", origin=(0.03, -0.38, 0.35),
                               axis_u=(1, 0, 0), axis_v=(0, 0, 1), radius=0.045, turns=2.0),
        nondominant_path=PathSpec("point", origin=(-0.03, -0.45, 0.35)),
        dominant_pose_keys=_still("fist"),
        nondominant_pose_keys=_still("fist"),
        dominant_rotation=_rot((-20.0, 0.0, 85.0)),
        nondominant_rotation=_rot((-15.0, 0.0, -85.0)))

    # Control class: the same movement with the rotation direction flipped.
    t[COFFEE_REVERSED.name] = replace(
        t["COFFEE"], sign=COFFEE_REVERSED,
        dominant_path=replace(t["COFFEE"].dominant_path, turns=-2.0))

    # Small stirring circle with a pinch over a C-shaped base.
    add(gesture.TEA,
        dominant_path=PathSpec("circle", origin=(0.0, -0.31, 0.35),
                               axis_u=(1, 0, 0), axis_v=(0, 0, 1), radius=0.02, turns=3.0),
        nondominant_path=PathSpec("point", origin=(-0.04, -0.42, 0.35)),
        dominant_pose_keys=_still("pinch"),
        nondominant_pose_keys=_still("c_shape"),
        dominant_rotation=_rot((-40.0, 10.0, 20.0)),
        nondominant_rotation=_rot((0.0, 30.0, -90.0)))

    # One-handed: fist squeezes open and shut while bobbing.
    add(gesture.MILK,
        dominant_path=PathSpec("taps", origin=(0.10, -0.35, 0.32),
                               axis_u=(0, -1, 0), radius=0.03, taps=3),
        nondominant_path=None, two_handed=False,
        dominant_pose_keys=((0.0, "open"), (0.2, "fist"), (0.4, "open"),
                            (0.6, "fist"), (0.8, "open"), (1.0, "fist")),
        nondominant_pose_keys=_still("open"),
        dominant_rotation=_rot((0.0, -20.0, 10.0)),
        nondominant_rotation=_rot((0.0, 0.0, 0.0)))

    # Wide sweeping circle with a C-hand over an open palm, wobbling roll.
    add(gesture.WHIPPED_CREAM,
        dominant_path=PathSpec("circle", origin=(0.0, -0.36, 0.38),
                               axis_u=(1, 0, 0), axis_v=(0, 0, 1), radius=0.055, turns=2.0),
        nondominant_path=PathSpec("point", origin=(-0.05, -0.45, 0.38)),
        dominant_pose_keys=((0.0, "c_shape"), (0.5, "flat_o"), (1.0, "c_shape")),
        nondominant_pose_keys=_still("open"),
        dominant_rotation=((0.0, (-30.0, 0.0, -25.0)), (0.5, (-30.0, 0.0, 25.0)),
                           (1.0, (-30.0, 0.0, -25.0))),
        nondominant_rotation=_rot((0.0, 0.0, 150.0)))

    # Clawed hand twisting in place on an open palm.
    add(gesture.COOKIE,
        dominant_path=PathSpec("taps", origin=(-0.02, -0.385, 0.37),
                               axis_u=(0, -1, 0), radius=0.02, taps=2),
        nondominant_path=PathSpec("point", origin=(-0.05, -0.44, 0.37)),
        dominant_pose_keys=_still("claw"),
        nondominant_pose_keys=_still("open"),
        dominant_rotation=((0.0, (-70.0, -45.0, 0.0)), (0.25, (-70.0, 45.0, 0.0)),
                           (0.5, (-70.0, -45.0, 0.0)), (0.75, (-70.0, 45.0, 0.0)),
                           (1.0, (-70.0, -45.0, 0.0))),
        nondominant_rotation=_rot((0.0, 0.0, 150.0)))

    # Flat-O hand rises twice from the base palm.
    add(gesture.MUFFIN,
        dominant_path=PathSpec("polyline", waypoints=((0.0, -0.43, 0.36), (0.0, -0.29, 0.36),
                                                      (0.0, -0.43, 0.36), (0.0, -0.29, 0.36))),
        nondominant_path=PathSpec("point", origin=(-0.05, -0.455, 0.36)),
        dominant_pose_keys=((0.0, "flat_o"), (0.5, "open"), (1.0, "flat_o")),
        nondominant_pose_keys=_still("open"),
        dominant_rotation=_rot((20.0, 0.0, 0.0)),
        nondominant_rotation=_rot((0.0, 0.0, 150.0)))

    # C-hand drops onto the palm twice.
    add(gesture.CUP,
        dominant_path=PathSpec("taps", origin=(0.02, -0.36, 0.36),
                               axis_u=(0, -1, 0), radius=0.06, taps=2),
        nondominant_path=PathSpec("point", origin=(-0.05, -0.46, 0.36)),
        dominant_pose_keys=_still("c_shape"),
        nondominant_pose_keys=_still("open"),
        dominant_rotation=_rot((0.0, 0.0, -90.0)),
        nondominant_rotation=_rot((0.0, 0.0, 150.0)))

    # Pinch circling tightly near the mouth over a base fist (COFFEE's cousin).
    add(gesture.STRAW,
        dominant_path=PathSpec("circle", origin=(0.02, -0.18, 0.30),
                               axis_u=(0, 1, 0), axis_v=(0, 0, 1), radius=0.018, turns=2.0),
        nondominant_path=PathSpec("point", origin=(-0.03, -0.44, 0.35)),
        dominant_pose_keys=_still("pinch"),
        nondominant_pose_keys=_still("fist"),
        dominant_rotation=_rot((-60.0, 0.0, 60.0)),
        nondominant_rotation=_rot((-15.0, 0.0, -85.0)))

    # Flat-O taps onto the upturned palm.
    add(gesture.MONEY,
        dominant_path=PathSpec("taps", origin=(0.0, -0.40, 0.36),
                               axis_u=(0, -1, 0), radius=0.05, taps=3),
        nondominant_path=PathSpec("point", origin=(-0.05, -0.46, 0.36)),
        dominant_pose_keys=_still("flat_o"),
        nondominant_pose_keys=_still("open"),
        dominant_rotation=_rot((55.0, 0.0, 35.0)),
        nondominant_rotation=_rot((0.0, 0.0, 150.0)))

    return t


# ---------------------------------------------------------------------------
# Profiles and dataset specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignerProfile:
    handedness: str = "right"
    speed_factor: float = 1.0
    spatial_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation_jitter_deg: float = 0.0
    noise_std_m: float = 0.0
    seed: int = 0
    signer_id: str = ""

    def __post_init__(self):
        if self.handedness not in gesture.HANDEDNESS_VALUES:
            raise ValueError(f"bad handedness {self.handedness!r}")
        if not 0.5 <= self.speed_factor <= 2.0:
            raise ValueError(f"speed_factor {self.speed_factor} outside [0.5, 2.0]")
        if self.orientation_jitter_deg < 0 or self.noise_std_m < 0:
            raise ValueError("jitter and noise must be non-negative")


@dataclass(frozen=True)
class DatasetSpec:
    """Composition and variability of a generated dataset.

    The variability fields are the generator's knobs for inter-signer
    differences; the defaults are the 'default variability' used throughout
    the test suite.
    """

    classes: tuple[str, ...] = gesture.CANONICAL_NAMES
    signers: int = 15
    repetitions_per_class: int = 20
    frame_rate_hz: float = gesture.DEFAULT_FRAME_RATE_HZ
    duration_s: float = 3.0
    master_seed: int = 0
    left_handed_fraction: float = 0.2
    speed_range: tuple[float, float] = (0.8, 1.25)
    offset_std_m: float = 0.03
    orientation_jitter_deg: float = 5.0
    noise_std_m: float = 0.004

    def __post_init__(self):
        if self.signers < 1 or self.repetitions_per_class < 1 or not self.classes:
            raise ValueError("counts must be >= 1 and classes non-empty")
        repeated = sorted({c for c in self.classes if self.classes.count(c) > 1})
        if repeated:
            raise ValueError(f"class named more than once: {', '.join(repeated)}")
        if not (self.frame_rate_hz > 0 and self.duration_s > 0):
            raise ValueError("frame rate and duration must be > 0")
        if self.frame_rate_hz * self.duration_s < 2:
            raise ValueError("frame_rate * duration must cover at least 2 frames")
        if not 0.0 <= self.left_handed_fraction <= 1.0:
            raise ValueError("left_handed_fraction must be in [0, 1]")
        lo, hi = self.speed_range
        if not 0.5 <= lo <= hi <= 2.0:
            raise ValueError(f"speed_range {lo},{hi} must satisfy 0.5 <= lo <= hi <= 2.0")
        if not all(v >= 0 for v in (self.offset_std_m, self.orientation_jitter_deg,
                                    self.noise_std_m)):
            raise ValueError("offset, jitter and noise must be >= 0")


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------

DURATION_CLAMP_S = (1.0, 6.0)


def generate_sample(template: SignTemplate, profile: SignerProfile,
                    rng: np.random.Generator,
                    frame_rate_hz: float = gesture.DEFAULT_FRAME_RATE_HZ,
                    duration_s: float = 3.0) -> GestureSample:
    """One labeled production of ``template`` under ``profile`` variability.

    Deterministic given (template, profile, rng state).  Joint 0 of the
    dominant hand follows the template path exactly when offset and noise
    are zero.
    """
    template.validate()
    duration = float(np.clip(duration_s / profile.speed_factor, *DURATION_CLAMP_S))
    n = int(round(frame_rate_hz * duration)) + 1
    timestamps = np.arange(n) / frame_rate_hz
    duration = float(timestamps[-1])
    u = np.arange(n) / (n - 1)

    offset = np.asarray(profile.spatial_offset)
    jitter = profile.orientation_jitter_deg

    def build_hand(path, pose_keys, rot_keys):
        pts = path.evaluate(u) + offset
        rot_offset = rng.normal(0.0, jitter, size=3) if jitter > 0 else np.zeros(3)
        if profile.noise_std_m > 0:
            pts = pts + rng.normal(0.0, profile.noise_std_m, size=(n, 3))
        rot_noise = (rng.normal(0.0, 0.15 * jitter, size=(n, 3))
                     if jitter > 0 else np.zeros((n, 3)))
        pose_offsets, pose_rots = _pose_arrays(pose_keys, u)
        hand_rots = _rotation_array(rot_keys, u) + rot_offset + rot_noise
        joint_rots = hand_rots[:, None, :] + pose_rots
        return (pts[:, None, :] + pose_offsets, wrap_degrees(joint_rots),
                wrap_degrees(hand_rots))

    right = build_hand(template.dominant_path, template.dominant_pose_keys,
                       template.dominant_rotation)
    if template.two_handed:
        left = build_hand(template.nondominant_path, template.nondominant_pose_keys,
                          template.nondominant_rotation)
    else:
        left = (np.zeros((n, NUM_JOINTS, 3)), np.zeros((n, NUM_JOINTS, 3)), np.zeros((n, 3)))
    locations, rotations, hand_rotation = (np.stack(pair, axis=1) for pair in zip(left, right))
    sample = GestureSample(
        label=template.sign,
        timestamps=timestamps,
        locations=locations,
        rotations=rotations,
        hand_rotation=hand_rotation,
        present=np.column_stack([np.full(n, template.two_handed), np.ones(n, dtype=bool)]),
        signer_id=profile.signer_id,
        handedness="right",
        duration_s=duration,
    )
    if profile.handedness == "left":
        sample = mirror_handedness(sample)
    return sample


# Seed-derivation streams (SeedSequence entropy prefixes)
_PROFILE_STREAM = 1
_SAMPLE_STREAM = 2


def signer_profiles(spec: DatasetSpec) -> list[SignerProfile]:
    """Deterministic per-signer variability drawn from the master seed."""
    profiles = []
    for i in range(spec.signers):
        rng = np.random.default_rng(np.random.SeedSequence((spec.master_seed,
                                                            _PROFILE_STREAM, i)))
        speed = float(rng.uniform(*spec.speed_range))
        offset = tuple(rng.normal(0.0, spec.offset_std_m, size=3)) \
            if spec.offset_std_m > 0 else (0.0, 0.0, 0.0)
        handed = "left" if rng.random() < spec.left_handed_fraction else "right"
        profiles.append(SignerProfile(
            handedness=handed,
            speed_factor=speed,
            spatial_offset=offset,
            orientation_jitter_deg=spec.orientation_jitter_deg,
            noise_std_m=spec.noise_std_m,
            seed=i,
            signer_id=f"s{i:02d}",
        ))
    return profiles


def generate_dataset(spec: DatasetSpec,
                     templates: dict[str, SignTemplate] | None = None) -> GestureDataset:
    """classes x signers x repetitions samples with exact class balance."""
    if templates is None:
        templates = default_templates()
    classes = []
    for name in spec.classes:
        if name not in templates:
            raise MissingTemplate(name)
        classes.append(templates[name].sign)
    classes.sort()

    profiles = signer_profiles(spec)
    samples = []
    for sc in classes:
        tpl = templates[sc.name]
        for s_idx, profile in enumerate(profiles):
            for rep in range(spec.repetitions_per_class):
                rng = np.random.default_rng(np.random.SeedSequence(
                    (spec.master_seed, _SAMPLE_STREAM, sc.code, s_idx, rep)))
                samples.append(generate_sample(
                    tpl, profile, rng,
                    frame_rate_hz=spec.frame_rate_hz, duration_s=spec.duration_s))
    return GestureDataset(
        samples=tuple(samples),
        schema_version=1,
        provenance=f"synthetic templates v{TEMPLATE_VERSION}, master_seed={spec.master_seed}",
    )

