"""Dual-hand joint-trajectory data model.

A sign production is a timed sequence of frames; each frame carries, per hand,
25 tracked joints (location in meters, rotation in degrees) plus an overall
hand rotation and a presence flag.  A ``GestureSample`` stores these as five
arrays over its T frames, hand axis 0 = left and 1 = right:

    timestamps (T,), locations (T, 2, 25, 3), rotations (T, 2, 25, 3),
    hand_rotation (T, 2, 3), present (T, 2) bool

This module validates samples, encodes them into dense feature matrices for
the recognizer, and mirrors productions across the sagittal plane to convert
between left- and right-handed signing; each works on whole arrays.

Feature layout (one row per frame, fixed concatenation order):

    [left joint 0 loc xyz, left joint 0 rot pyr, ..., left joint 24 loc/rot,
     left hand_rotation pyr,
     right joint 0 ..., right hand_rotation pyr]            -> 306 columns

Rotations are scaled by 1/180 so encoded values lie in [-1, 1]; locations are
centered on the first frame's midpoint of the two wrists (joint 0) and
expressed in units of LOCATION_SCALE_M.  An absent hand's columns are zero.
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


COFFEE = SignClass(0, "COFFEE")
TEA = SignClass(1, "TEA")
MILK = SignClass(2, "MILK")
WHIPPED_CREAM = SignClass(3, "WHIPPED_CREAM")
MUFFIN = SignClass(4, "MUFFIN")
COOKIE = SignClass(5, "COOKIE")
CUP = SignClass(6, "CUP")
STRAW = SignClass(7, "STRAW")
MONEY = SignClass(8, "MONEY")

CANONICAL_SIGNS: tuple[SignClass, ...] = (
    COFFEE, TEA, MILK, WHIPPED_CREAM, MUFFIN, COOKIE, CUP, STRAW, MONEY,
)
CANONICAL_NAMES: tuple[str, ...] = tuple(s.name for s in CANONICAL_SIGNS)

# The synthetic control class (COFFEE with the circle run backwards) lives
# here with the vocabulary, not in synth, so that every reader of datasets
# and checkpoints knows it whether or not the generator was imported.
COFFEE_REVERSED = SignClass(9, "COFFEE_REVERSED")

# Every class the recognizer knows, in code order; fixed at import.
VOCABULARY: tuple[SignClass, ...] = CANONICAL_SIGNS + (COFFEE_REVERSED,)
_BY_NAME: dict[str, SignClass] = {s.name: s for s in VOCABULARY}


def sign_class(name: str) -> SignClass:
    """Look up a vocabulary sign by name (canonical or the control class)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown sign class {name!r}") from None


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

SIDES = ("left", "right")  # hand axis 0 and 1 of every per-hand sample array
# Per-hand array fields and their shape at one time step.
_HAND_FIELDS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("locations", (NUM_JOINTS, 3)),
    ("rotations", (NUM_JOINTS, 3)),
    ("hand_rotation", (3,)),
)
_SAMPLE_ARRAYS = ("timestamps", "locations", "rotations", "hand_rotation", "present")


def _column(value, dtype, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.size == 0 and shape[0] == 0:
        arr = arr.reshape(shape)  # a sample without frames: any empty input will do
    if arr.shape != shape:
        raise InvalidSample(f"joint-count: {name} expected {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GestureSample:
    """One labeled sign production, stored as columns over its T frames.

    Hand axis 0 is the left hand and 1 the right.  An absent hand keeps
    whatever values it was given (zeros from the generator); only ``present``
    says it is absent.  The arrays are float64 (``present`` bool) and
    read-only; a wrong shape raises ``InvalidSample`` (rule ``joint-count``).
    """

    label: SignClass
    timestamps: np.ndarray  # (T,) seconds
    locations: np.ndarray  # (T, 2, 25, 3) meters, headset-local
    rotations: np.ndarray  # (T, 2, 25, 3) degrees: pitch, yaw, roll
    hand_rotation: np.ndarray  # (T, 2, 3) degrees
    present: np.ndarray  # (T, 2) bool
    signer_id: str
    handedness: str  # "left" | "right"
    duration_s: float

    def __post_init__(self):
        shape = np.shape(self.timestamps)
        if len(shape) != 1:
            raise InvalidSample(f"joint-count: timestamps expected (T,), got {shape}")
        t = shape[0]
        columns = [("timestamps", np.float64, (t,)), ("present", np.bool_, (t, 2))]
        columns += [(name, np.float64, (t, 2) + hand) for name, hand in _HAND_FIELDS]
        for name, dtype, full in columns:
            object.__setattr__(self, name, _column(getattr(self, name), dtype, full, name))

    def __eq__(self, other):
        if not isinstance(other, GestureSample):
            return NotImplemented
        return (
            self.label == other.label
            and self.signer_id == other.signer_id
            and self.handedness == other.handedness
            and self.duration_s == other.duration_s
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in _SAMPLE_ARRAYS)
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


def validate_sample(sample: GestureSample) -> ValidationReport:
    """Check every invariant the array shapes do not; reports findings, never raises.

    Findings come frame by frame, each frame's in the order: timestamp, then
    locations, rotations and hand_rotation of the left and the right hand.
    Absent hands are not checked.
    """
    findings: list[Finding] = []
    if not isinstance(sample.label, SignClass):
        findings.append(Finding("bad-label", "label", None, repr(sample.label)))
    if sample.handedness not in HANDEDNESS_VALUES:
        findings.append(Finding("bad-handedness", "handedness", None,
                                repr(sample.handedness)))
    ts = sample.timestamps
    if not ts.size:
        findings.append(Finding("empty-frames", "frames"))
        return ValidationReport(tuple(findings))

    prev = np.concatenate(([-np.inf], ts[:-1]))
    finite = np.isfinite(ts)
    checks = [(~finite, "non-finite", "timestamp_s"),
              (finite & (ts <= prev), "monotonic-time", "timestamp_s")]
    for s, side in enumerate(SIDES):
        for name, _ in _HAND_FIELDS:
            values = getattr(sample, name)[:, s].reshape(ts.size, -1)
            bad = sample.present[:, s] & ~np.isfinite(values).all(axis=1)
            checks.append((bad, "non-finite", f"{side}.{name}"))
    frame_idx, check_idx = np.nonzero(np.column_stack([c[0] for c in checks]))
    for i, c in zip(frame_idx.tolist(), check_idx.tolist()):
        _, rule, field = checks[c]
        detail = f"{float(ts[i])} after {float(prev[i])}" if rule == "monotonic-time" else ""
        findings.append(Finding(rule, field, i, detail))

    last_t = float(ts[-1])
    if sample.duration_s != last_t:
        findings.append(Finding("duration-mismatch", "duration_s", ts.size - 1,
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


def _wrist_center(sample: GestureSample) -> np.ndarray:
    """Midpoint of the present wrists in the first frame; the origin if none."""
    wrists = sample.locations[0, sample.present[0], WRIST_JOINT]
    return wrists.mean(axis=0) if len(wrists) else np.zeros(3)


def encode_features(sample: GestureSample) -> FeatureMatrix:
    """Encode a validated sample into its T x FEATURE_DIM feature matrix, in
    the module docstring's layout (deterministic); an absent hand's columns
    are zero."""
    require_valid(sample)
    t = sample.timestamps.size
    loc = (sample.locations - _wrist_center(sample)) / LOCATION_SCALE_M
    rot = sample.rotations / ROTATION_SCALE_DEG
    hands = np.concatenate([
        np.concatenate([loc, rot], axis=3).reshape(t, 2, -1),  # per joint: loc xyz then rot pyr
        sample.hand_rotation / ROTATION_SCALE_DEG,
    ], axis=2)
    values = np.where(sample.present[:, :, None], hands, 0.0).reshape(t, FEATURE_DIM)
    return FeatureMatrix(values=values, mask_len=t)


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


def mirror_handedness(sample: GestureSample) -> GestureSample:
    """Swap hands and reflect across the sagittal plane; an exact involution.

    Absent hands are swapped and reflected like present ones.
    """
    require_valid(sample)
    loc = sample.locations[:, ::-1].copy()
    rot = sample.rotations[:, ::-1].copy()
    hrot = sample.hand_rotation[:, ::-1].copy()
    loc[..., 0] = -loc[..., 0]  # reflect across the sagittal plane
    rot[..., 1:] = -rot[..., 1:]  # yaw and roll
    hrot[..., 1:] = -hrot[..., 1:]
    flipped = "left" if sample.handedness == "right" else "right"
    return GestureSample(
        label=sample.label,
        timestamps=sample.timestamps,
        locations=loc,
        rotations=rot,
        hand_rotation=hrot,
        present=sample.present[:, ::-1],
        signer_id=sample.signer_id,
        handedness=flipped,
        duration_s=sample.duration_s,
    )
