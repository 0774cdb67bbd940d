"""Dataset splitting, accuracy metrics, and the confusion matrix.

Confusion orientation: rows are the produced (true) signs, columns the
recognized (predicted) signs; each row sums to that class's sample count and
accuracy is trace over total.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

from .gesture import GestureDataset
from .net import (
    ChampNet,
    ClassMismatch,
    EmptyDataset,
    encode_gesture_dataset,
    infer,
)


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    unit: str = "sample"  # "sample" | "signer"
    seed: int = 0

    def __post_init__(self):
        if len(self.fractions) != 3 or any(f <= 0 for f in self.fractions):
            raise ValueError("need three positive fractions")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(self.fractions)}")
        if self.unit not in ("sample", "signer"):
            raise ValueError(f"unit must be 'sample' or 'signer', got {self.unit!r}")


def _largest_remainder(total: int, fractions) -> list[int]:
    """Apportion ``total`` over the fractions; ties go to the earlier split."""
    raw = [total * f for f in fractions]
    counts = [int(r) for r in raw]
    remainders = [r - c for r, c in zip(raw, counts)]
    short = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def split_dataset(ds: GestureDataset, spec: SplitSpec):
    """Exact partition (no overlap, union = ds), deterministic from the seed.

    With the signer unit, every sample of a signer lands in one split.
    """
    n = len(ds.samples)
    if n == 0:
        raise InsufficientData("empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed,)))

    if spec.unit == "sample":
        counts = _largest_remainder(n, spec.fractions)
        order = rng.permutation(n)
        bounds = np.cumsum([0] + counts)
        parts = []
        for i in range(3):
            chosen = set(order[bounds[i]:bounds[i + 1]].tolist())
            parts.append([s for j, s in enumerate(ds.samples) if j in chosen])
    else:
        signers = sorted({s.signer_id for s in ds.samples})
        if len(signers) < 3:
            raise InsufficientData(f"signer split needs >= 3 signers, got {len(signers)}")
        counts = _largest_remainder(len(signers), spec.fractions)
        order = rng.permutation(len(signers))
        bounds = np.cumsum([0] + counts)
        parts = []
        for i in range(3):
            chosen = {signers[j] for j in order[bounds[i]:bounds[i + 1]]}
            parts.append([s for s in ds.samples if s.signer_id in chosen])

    return tuple(
        GestureDataset(samples=tuple(p), schema_version=ds.schema_version,
                       provenance=ds.provenance)
        for p in parts
    )


@dataclass(frozen=True, eq=False)
class EvalMetrics:
    accuracy: float
    per_class_recall: dict[str, float]
    confusion: np.ndarray  # (K, K) int counts, row = produced, col = recognized
    n_samples: int
    class_names: tuple[str, ...]

    def __eq__(self, other):
        if not isinstance(other, EvalMetrics):
            return NotImplemented
        return (self.accuracy == other.accuracy
                and self.per_class_recall == other.per_class_recall
                and np.array_equal(self.confusion, other.confusion)
                and self.n_samples == other.n_samples
                and self.class_names == other.class_names)


def confusion_from_predictions(y_true: np.ndarray, y_pred: np.ndarray,
                               class_names) -> EvalMetrics:
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (np.asarray(y_true), np.asarray(y_pred)), 1)
    n = len(y_true)
    recall = {}
    for i, name in enumerate(class_names):
        row_total = int(confusion[i].sum())
        recall[name] = float(confusion[i, i] / row_total) if row_total else 0.0
    accuracy = float(np.trace(confusion) / n) if n else 0.0
    return EvalMetrics(accuracy=accuracy, per_class_recall=recall, confusion=confusion,
                       n_samples=n, class_names=tuple(class_names))


def evaluate(net: ChampNet, ds: GestureDataset, chunk: int = 256) -> EvalMetrics:
    """Pure: repeated calls on the same net and dataset give identical metrics."""
    if len(ds.samples) == 0:
        raise EmptyDataset("nothing to evaluate")
    cfg = net.config
    data = encode_gesture_dataset(ds, cfg)  # raises ClassMismatch on bad labels
    probs = infer(net, data.chunks(cfg.t_max, cfg.np_dtype, chunk))
    return confusion_from_predictions(data.y, probs.argmax(axis=1), cfg.classes)


def render_metrics(m: EvalMetrics, format: str = "text") -> str:
    """Confusion grid with produced signs down the side, recognized across."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["produced\\recognized", *m.class_names])
        for i, name in enumerate(m.class_names):
            writer.writerow([name, *(int(c) for c in m.confusion[i])])
        return buf.getvalue()
    if format != "text":
        raise ValueError(f"unknown format {format!r}")

    width = max(len(n) for n in m.class_names) + 1
    cell = max(5, max(len(str(int(c))) for c in m.confusion.reshape(-1)) + 1)
    lines = [f"accuracy {m.accuracy:.4f} over {m.n_samples} samples",
             "rows: produced sign, columns: recognized sign"]
    header = " " * width + "".join(f"{name[:cell - 1]:>{cell}}" for name in m.class_names)
    lines.append(header)
    for i, name in enumerate(m.class_names):
        row = f"{name:<{width}}" + "".join(f"{int(c):>{cell}}" for c in m.confusion[i])
        lines.append(row)
    return "\n".join(lines) + "\n"

