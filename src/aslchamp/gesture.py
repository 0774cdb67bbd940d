"""Dual-hand joint-trajectory data model.

A sign production is a timed sequence of frames; each frame carries, per hand,
25 tracked joints (location in meters, rotation in degrees) plus an overall
hand rotation and a presence flag.  This module validates samples, encodes
them into dense feature matrices for the recognizer, and mirrors productions
across the sagittal plane to convert between left- and right-handed signing.

Feature layout (one row per frame, fixed concatenation order):

    [left joint 0 loc xyz, left joint 0 rot pyr, ..., left joint 24 loc/rot,
     left hand_rotation pyr,
     right joint 0 ..., right hand_rotation pyr]            -> 306 columns
    [+ left presence, right presence]  when presence flags are enabled -> 308

Rotations are scaled by 1/180 so encoded values lie in [-1, 1]; locations are
centered on the first frame's midpoint of the two wrists (joint 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NUM_JOINTS = 25
DEFAULT_FRAME_RATE_HZ = 72.0
HAND_FEATURE_DIM = NUM_JOINTS * 6 + 3  # per-hand block: 25*(loc3+rot3) + hand_rotation
FEATURE_DIM = 2 * HAND_FEATURE_DIM  # 306
ROTATION_SCALE_DEG = 180.0  # encoded rotation = degrees / this, in [-1, 1]
LOCATION_SCALE_M = 0.15  # encoded location unit: roughly the extent of the signing space
WRIST_JOINT = 0

HANDEDNESS_VALUES = ("left", "right")


class InvalidSample(ValueError):
    """A gesture sample failed validation where a valid one is required."""


# ---------------------------------------------------------------------------
# Sign vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class SignClass:
    """One vocabulary item, with a stable integer code used for one-hot output."""

    code: int
    name: str


_REGISTRY: dict[str, SignClass] = {}


def _register(name: str, code: int) -> SignClass:
    sc = SignClass(code=code, name=name)
    _REGISTRY[name] = sc
    return sc


COFFEE = _register("COFFEE", 0)
TEA = _register("TEA", 1)
MILK = _register("MILK", 2)
WHIPPED_CREAM = _register("WHIPPED_CREAM", 3)
MUFFIN = _register("MUFFIN", 4)
COOKIE = _register("COOKIE", 5)
CUP = _register("CUP", 6)
STRAW = _register("STRAW", 7)
MONEY = _register("MONEY", 8)

CANONICAL_SIGNS: tuple[SignClass, ...] = (
    COFFEE, TEA, MILK, WHIPPED_CREAM, MUFFIN, COOKIE, CUP, STRAW, MONEY,
)
CANONICAL_NAMES: tuple[str, ...] = tuple(s.name for s in CANONICAL_SIGNS)

# The synthetic control class (COFFEE with the circle run backwards) lives
# here with the vocabulary, not in synth, so that every reader of datasets
# and checkpoints knows it whether or not the generator was imported.
COFFEE_REVERSED = _register("COFFEE_REVERSED", 9)


def sign_class(name: str) -> SignClass:
    """Look up a registered sign by name (canonical or control class)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown sign class {name!r}") from None


def register_control_class(name: str) -> SignClass:
    """Register a synthetic control class (codes 9, 10, ...); idempotent."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    return _register(name, max(s.code for s in _REGISTRY.values()) + 1)


# ---------------------------------------------------------------------------
# Frames and samples
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class HandFrame:
    """One hand at one time step.

    ``locations``/``rotations`` are nominally (25, 3); validation reports a
    finding instead of raising when the shape is off, so the constructor
    accepts whatever it is given.
    """

    locations: np.ndarray  # (J, 3) meters, headset-local
    rotations: np.ndarray  # (J, 3) degrees: pitch, yaw, roll
    hand_rotation: np.ndarray  # (3,) degrees
    present: bool = True

    def __post_init__(self):
        object.__setattr__(self, "locations", _freeze(self.locations))
        object.__setattr__(self, "rotations", _freeze(self.rotations))
        object.__setattr__(self, "hand_rotation", _freeze(self.hand_rotation))

    @staticmethod
    def absent() -> "HandFrame":
        return HandFrame(
            locations=np.zeros((NUM_JOINTS, 3)),
            rotations=np.zeros((NUM_JOINTS, 3)),
            hand_rotation=np.zeros(3),
            present=False,
        )

    def __eq__(self, other):
        if not isinstance(other, HandFrame):
            return NotImplemented
        return (
            self.present == other.present
            and np.array_equal(self.locations, other.locations)
            and np.array_equal(self.rotations, other.rotations)
            and np.array_equal(self.hand_rotation, other.hand_rotation)
        )


@dataclass(frozen=True, eq=False)
class JointFrame:
    timestamp_s: float
    left: HandFrame
    right: HandFrame

    def __eq__(self, other):
        if not isinstance(other, JointFrame):
            return NotImplemented
        return (
            self.timestamp_s == other.timestamp_s
            and self.left == other.left
            and self.right == other.right
        )


@dataclass(frozen=True, eq=False)
class GestureSample:
    """One labeled sign production."""

    label: SignClass
    frames: tuple[JointFrame, ...]
    signer_id: str
    handedness: str  # "left" | "right"
    duration_s: float

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))

    def __eq__(self, other):
        if not isinstance(other, GestureSample):
            return NotImplemented
        return (
            self.label == other.label
            and self.signer_id == other.signer_id
            and self.handedness == other.handedness
            and self.duration_s == other.duration_s
            and len(self.frames) == len(other.frames)
            and all(a == b for a, b in zip(self.frames, other.frames))
        )


@dataclass(frozen=True, eq=False)
class GestureDataset:
    samples: tuple[GestureSample, ...]
    schema_version: int = 1
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, GestureDataset):
            return NotImplemented
        return (
            self.schema_version == other.schema_version
            and self.provenance == other.provenance
            and len(self.samples) == len(other.samples)
            and all(a == b for a, b in zip(self.samples, other.samples))
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    rule: str
    field: str
    frame: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __bool__(self) -> bool:
        return self.ok


def _check_hand(hand: HandFrame, side: str, idx: int, findings: list[Finding]):
    if not hand.present:
        return
    for name, arr, shape in (
        ("locations", hand.locations, (NUM_JOINTS, 3)),
        ("rotations", hand.rotations, (NUM_JOINTS, 3)),
    ):
        if arr.shape != shape:
            findings.append(Finding("joint-count", f"{side}.{name}", idx,
                                    f"expected {shape}, got {arr.shape}"))
        elif not np.isfinite(arr).all():
            findings.append(Finding("non-finite", f"{side}.{name}", idx))
    if hand.hand_rotation.shape != (3,):
        findings.append(Finding("joint-count", f"{side}.hand_rotation", idx,
                                f"expected (3,), got {hand.hand_rotation.shape}"))
    elif not np.isfinite(hand.hand_rotation).all():
        findings.append(Finding("non-finite", f"{side}.hand_rotation", idx))


def validate_sample(sample: GestureSample) -> ValidationReport:
    """Check every type invariant; reports findings, never raises."""
    findings: list[Finding] = []
    if not isinstance(sample.label, SignClass):
        findings.append(Finding("bad-label", "label", None, repr(sample.label)))
    if sample.handedness not in HANDEDNESS_VALUES:
        findings.append(Finding("bad-handedness", "handedness", None,
                                repr(sample.handedness)))
    if not sample.frames:
        findings.append(Finding("empty-frames", "frames"))
        return ValidationReport(tuple(findings))

    prev_t = -np.inf
    for i, frame in enumerate(sample.frames):
        if not np.isfinite(frame.timestamp_s):
            findings.append(Finding("non-finite", "timestamp_s", i))
        elif frame.timestamp_s <= prev_t:
            findings.append(Finding("monotonic-time", "timestamp_s", i,
                                    f"{frame.timestamp_s} after {prev_t}"))
        prev_t = frame.timestamp_s
        _check_hand(frame.left, "left", i, findings)
        _check_hand(frame.right, "right", i, findings)

    last_t = sample.frames[-1].timestamp_s
    if sample.duration_s != last_t:
        findings.append(Finding("duration-mismatch", "duration_s", len(sample.frames) - 1,
                                f"duration {sample.duration_s} != last timestamp {last_t}"))
    return ValidationReport(tuple(findings))


def require_valid(sample: GestureSample) -> None:
    report = validate_sample(sample)
    if not report.ok:
        head = ", ".join(f"{f.rule}@{f.frame}" for f in report.findings[:4])
        raise InvalidSample(f"{len(report.findings)} finding(s): {head}")


def validate_dataset(ds: GestureDataset) -> ValidationReport:
    findings: list[Finding] = []
    for i, s in enumerate(ds.samples):
        for f in validate_sample(s).findings:
            findings.append(Finding(f.rule, f"samples[{i}].{f.field}", f.frame, f.detail))
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodingConfig:
    """Feature scaling so downstream tanh layers see O(1) inputs.

    Rotations divide by ROTATION_SCALE_DEG (degrees to [-1, 1]); locations
    are centered on the first frame's wrist midpoint and expressed in units
    of LOCATION_SCALE_M.  ``presence_flags`` appends one 0/1 column per hand.
    """

    presence_flags: bool = False

    @property
    def feature_dim(self) -> int:
        return FEATURE_DIM + (2 if self.presence_flags else 0)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Dense T x D encoding of one sample; ``mask_len`` is the pre-padding length."""

    values: np.ndarray  # (T, D)
    mask_len: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("feature matrix contains non-finite values")
        if not 0 <= self.mask_len <= arr.shape[0]:
            raise ValueError(f"mask_len {self.mask_len} out of range for T={arr.shape[0]}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return self.mask_len == other.mask_len and np.array_equal(self.values, other.values)


def _wrist_center(frame: JointFrame) -> np.ndarray:
    wrists = [h.locations[WRIST_JOINT]
              for h in (frame.left, frame.right)
              if h.present and h.locations.shape == (NUM_JOINTS, 3)]
    if not wrists:
        return np.zeros(3)
    return np.mean(wrists, axis=0)


def _encode_hand(hand: HandFrame, center: np.ndarray) -> np.ndarray:
    if not hand.present:
        return np.zeros(HAND_FEATURE_DIM)
    loc = (hand.locations - center) / LOCATION_SCALE_M
    rot = hand.rotations / ROTATION_SCALE_DEG
    block = np.hstack([loc, rot]).reshape(-1)  # per joint: loc xyz then rot pyr
    return np.concatenate([block, hand.hand_rotation / ROTATION_SCALE_DEG])


def encode_features(sample: GestureSample, cfg: EncodingConfig = EncodingConfig()) -> FeatureMatrix:
    """Encode a validated sample into its T x D feature matrix (deterministic)."""
    require_valid(sample)
    center = _wrist_center(sample.frames[0])
    rows = []
    for frame in sample.frames:
        row = np.concatenate([
            _encode_hand(frame.left, center),
            _encode_hand(frame.right, center),
        ])
        if cfg.presence_flags:
            row = np.concatenate([row, [float(frame.left.present), float(frame.right.present)]])
        rows.append(row)
    values = np.vstack(rows)
    return FeatureMatrix(values=values, mask_len=values.shape[0])


def pad_or_truncate(m: FeatureMatrix, t_max: int) -> FeatureMatrix:
    """Return a matrix with exactly ``t_max`` rows: zero-padded or truncated."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    t = m.rows
    if t == t_max:
        return m
    if t > t_max:
        return FeatureMatrix(values=m.values[:t_max], mask_len=t_max)
    out = np.zeros((t_max, m.cols))
    out[:t] = m.values
    return FeatureMatrix(values=out, mask_len=m.mask_len)


# ---------------------------------------------------------------------------
# Handedness mirroring
# ---------------------------------------------------------------------------


def _mirror_hand(hand: HandFrame) -> HandFrame:
    loc = hand.locations.copy()
    rot = hand.rotations.copy()
    hrot = hand.hand_rotation.copy()
    if loc.ndim == 2 and loc.shape[1] == 3:
        loc[:, 0] = -loc[:, 0]  # reflect across the sagittal plane
    if rot.ndim == 2 and rot.shape[1] == 3:
        rot[:, 1] = -rot[:, 1]  # yaw
        rot[:, 2] = -rot[:, 2]  # roll
    if hrot.shape == (3,):
        hrot[1] = -hrot[1]
        hrot[2] = -hrot[2]
    return HandFrame(locations=loc, rotations=rot, hand_rotation=hrot, present=hand.present)


def mirror_handedness(sample: GestureSample) -> GestureSample:
    """Swap hands and reflect across the sagittal plane; an exact involution."""
    require_valid(sample)
    frames = tuple(
        JointFrame(
            timestamp_s=f.timestamp_s,
            left=_mirror_hand(f.right),
            right=_mirror_hand(f.left),
        )
        for f in sample.frames
    )
    flipped = "left" if sample.handedness == "right" else "right"
    return GestureSample(
        label=sample.label,
        frames=frames,
        signer_id=sample.signer_id,
        handedness=flipped,
        duration_s=sample.duration_s,
    )
