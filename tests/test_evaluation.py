import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aslchamp import gesture
from aslchamp.evaluation import (
    EvalMetrics,
    InsufficientData,
    SplitSpec,
    confusion_from_predictions,
    evaluate,
    render_metrics,
    split_dataset,
)
from aslchamp.gesture import GestureDataset
from aslchamp.net import ClassMismatch, EmptyDataset, NetConfig, build_network

from conftest import make_sample


def balanced_dataset(n_signers=5, reps=2):
    samples = []
    for sc in gesture.CANONICAL_SIGNS:
        for s in range(n_signers):
            for r in range(reps):
                samples.append(make_sample(n_frames=4, label=sc,
                                           signer_id=f"s{s:02d}"))
    return GestureDataset(samples=tuple(samples))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def test_sample_split_sizes_are_largest_remainder_exact():
    ds = balanced_dataset(n_signers=5, reps=6)  # 270 samples
    train, val, test = split_dataset(ds, SplitSpec(unit="sample", seed=1))
    assert (len(train.samples), len(val.samples), len(test.samples)) == (216, 27, 27)


def test_sample_split_is_exact_partition():
    ds = balanced_dataset()
    train, val, test = split_dataset(ds, SplitSpec(unit="sample", seed=3))
    assert len(train.samples) + len(val.samples) + len(test.samples) == len(ds.samples)
    seen = [id(s) for part in (train, val, test) for s in part.samples]
    assert len(seen) == len(set(seen))


def test_signer_split_15_signers_gives_12_2_1():
    ds = balanced_dataset(n_signers=15, reps=1)
    train, val, test = split_dataset(ds, SplitSpec(unit="signer", seed=0))

    def signers(part):
        return {s.signer_id for s in part.samples}

    assert len(signers(train)) == 12
    assert len(signers(val)) == 2  # tie in fractional parts goes to the earlier split
    assert len(signers(test)) == 1


def test_signer_split_never_splits_a_signer():
    ds = balanced_dataset(n_signers=7, reps=3)
    for seed in range(10):
        train, val, test = split_dataset(ds, SplitSpec(unit="signer", seed=seed))
        sets = [{s.signer_id for s in part.samples} for part in (train, val, test)]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
        total = len(train.samples) + len(val.samples) + len(test.samples)
        assert total == len(ds.samples)


def test_signer_split_requires_three_signers():
    ds = balanced_dataset(n_signers=2)
    with pytest.raises(InsufficientData):
        split_dataset(ds, SplitSpec(unit="signer", seed=0))


def test_split_determinism():
    ds = balanced_dataset()
    a = split_dataset(ds, SplitSpec(unit="sample", seed=9))
    b = split_dataset(ds, SplitSpec(unit="sample", seed=9))
    for part_a, part_b in zip(a, b):
        assert part_a == part_b


def test_split_indices_are_the_recorded_ones():
    # 20 samples of 10 signers, each signer's two samples ten apart; the
    # indices were recorded before the two units shared one code path
    samples = tuple(make_sample(n_frames=3, signer_id=f"s{(7 * j) % 10:02d}")
                    for j in range(20))
    ds = GestureDataset(samples=samples)
    position = {id(s): j for j, s in enumerate(samples)}
    recorded = {
        "sample": [[1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19], [0, 5], [8, 14]],
        "signer": [[0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19], [5, 15], [4, 14]],
    }
    for unit, want in recorded.items():
        parts = split_dataset(ds, SplitSpec(unit=unit, seed=5))
        assert [[position[id(s)] for s in part.samples] for part in parts] == want


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SplitSpec(fractions=(0.9, 0.1, 0.0))
    with pytest.raises(ValueError):
        SplitSpec(unit="signers")
    with pytest.raises(InsufficientData):
        split_dataset(GestureDataset(samples=()), SplitSpec())


# ---------------------------------------------------------------------------
# Metrics assembly
# ---------------------------------------------------------------------------


def test_perfect_classifier_confusion_is_diagonal():
    y = np.repeat(np.arange(9), 20)
    m = confusion_from_predictions(y, y, gesture.CANONICAL_NAMES)
    assert m.accuracy == 1.0
    assert np.array_equal(m.confusion, np.diag([20] * 9))
    assert all(v == 1.0 for v in m.per_class_recall.values())
    assert m.n_samples == 180


def test_constant_classifier_fills_one_column():
    y_true = np.repeat(np.arange(9), 20)
    y_pred = np.zeros_like(y_true)  # always COFFEE
    m = confusion_from_predictions(y_true, y_pred, gesture.CANONICAL_NAMES)
    assert m.accuracy == pytest.approx(1.0 / 9.0)
    assert m.confusion[:, 0].sum() == 180
    assert m.confusion[:, 1:].sum() == 0
    assert m.per_class_recall["COFFEE"] == 1.0
    assert m.per_class_recall["TEA"] == 0.0


def test_rows_sum_to_class_counts_and_trace_accuracy(rng):
    y_true = rng.integers(0, 9, size=300)
    y_pred = rng.integers(0, 9, size=300)
    m = confusion_from_predictions(y_true, y_pred, gesture.CANONICAL_NAMES)
    for i in range(9):
        assert m.confusion[i].sum() == int((y_true == i).sum())
    assert m.confusion.sum() == 300
    assert m.accuracy == np.trace(m.confusion) / 300


# ---------------------------------------------------------------------------
# evaluate() on a real (untrained) network
# ---------------------------------------------------------------------------


def test_evaluate_counts_and_purity():
    ds = balanced_dataset(n_signers=2, reps=1)
    cfg = NetConfig(t_max=40, scale_factor=Fraction(1, 32))
    net = build_network(cfg, seed=0)
    a = evaluate(net, ds)
    b = evaluate(net, ds)
    assert a == b
    assert a.n_samples == len(ds.samples)
    assert a.confusion.sum() == a.n_samples
    for i, name in enumerate(a.class_names):
        assert a.confusion[i].sum() == 2  # two samples per class
    assert a.accuracy == np.trace(a.confusion) / a.n_samples


def test_evaluate_empty_and_mismatched():
    cfg = NetConfig(t_max=40, scale_factor=Fraction(1, 32))
    net = build_network(cfg, seed=0)
    with pytest.raises(EmptyDataset):
        evaluate(net, GestureDataset(samples=()))
    two = NetConfig(t_max=40, scale_factor=Fraction(1, 32), n_classes=2,
                    classes=("COFFEE", "TEA"))
    net2 = build_network(two, seed=0)
    with pytest.raises(ClassMismatch):
        evaluate(net2, balanced_dataset(n_signers=1, reps=1))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_text_grid_orientation_and_labels():
    y = np.repeat(np.arange(9), 2)
    m = confusion_from_predictions(y, y, gesture.CANONICAL_NAMES)
    text = render_metrics(m, "text")
    assert "rows: produced sign, columns: recognized sign" in text
    for name in gesture.CANONICAL_NAMES:
        assert name in text


def test_csv_round_trip(rng):
    y_true = rng.integers(0, 9, size=120)
    y_pred = rng.integers(0, 9, size=120)
    m = confusion_from_predictions(y_true, y_pred, gesture.CANONICAL_NAMES)
    rows = list(csv.reader(io.StringIO(render_metrics(m, "csv"))))
    assert rows[0] == ["produced\\recognized", *m.class_names]
    assert [row[0] for row in rows[1:]] == list(m.class_names)
    confusion = np.array([[int(c) for c in row[1:]] for row in rows[1:]])
    assert np.array_equal(confusion, m.confusion)
    assert float(np.trace(confusion) / confusion.sum()) == m.accuracy


def test_labels_ordered_by_class_code():
    y = np.arange(9)
    m = confusion_from_predictions(y, y, gesture.CANONICAL_NAMES)
    csv_text = render_metrics(m, "csv")
    header = csv_text.splitlines()[0].split(",")[1:]
    assert header == list(gesture.CANONICAL_NAMES)
    with pytest.raises(ValueError):
        render_metrics(m, "html")


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_confusion_invariants_hold_for_random_predictions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    y_true = rng.integers(0, 9, size=n)
    y_pred = rng.integers(0, 9, size=n)
    m = confusion_from_predictions(y_true, y_pred, gesture.CANONICAL_NAMES)
    assert m.confusion.sum() == n
    assert m.accuracy == np.trace(m.confusion) / n
    assert np.all(m.confusion >= 0)
