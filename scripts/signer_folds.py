#!/usr/bin/env python3
"""Signer-independent accuracy: train and score the recognizer on signer folds.

    PYTHONPATH=src python3 scripts/signer_folds.py --label change --out FOLDS.json

Generates 15 signers x 6 repetitions of the nine signs (seed 42), then
splits the signers into 5 folds of 3.  Each fold holds its 3 signers out
for testing, lets the next signer in the shuffled order validate and
trains on the rest: the acceptance config (scale 1/16, float32, batch 128,
learning rate 2e-3), 20 epochs at most, stopping early when the
validation loss has not improved for 5 epochs.  Every signer is held out
exactly once when ``--signers`` is a multiple of 5.

Each trained net is scored on its held-out signers twice: on the corpus
at default variability, and on the same corpus generated with positional
noise, orientation jitter and offset multiplied by 4.  Per
tier the output holds each fold's accuracy, the mean and spread over the
folds, and, from the confusion matrix summed over the folds, the recall
of each class and the most-confused pairs.

The script uses only the package's public API, so the same file scores an
older revision too: put that revision's ``src`` on ``PYTHONPATH``.  With
``--out`` the result is stored under ``--label`` in the file, which may
already hold other labels' results.  Deterministic under
OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

FOLDS = 5
PATIENCE = 5  # epochs without a better validation loss before training stops
HARDER = 4.0  # factor on noise, jitter and offset of the harder tier
SEED = 42
TOP = 5  # most-confused pairs listed per tier


def fold_splits(signers: list[str]):
    """(held out, validation signer, training signers) per fold."""
    order = [signers[i] for i in np.random.default_rng(SEED).permutation(len(signers))]
    size = len(signers) // FOLDS
    out = []
    for f in range(FOLDS):
        held = order[f * size:(f + 1) * size]
        val = order[((f + 1) * size) % len(order)]
        out.append((held, val, [s for s in order if s not in held and s != val]))
    return out


def tier_summary(accuracies: list[float], confusion: np.ndarray, classes):
    """Mean, spread, per-class recall and most-confused pairs of one tier."""
    off = [(int(confusion[i, j]), classes[i], classes[j])
           for i in range(len(classes)) for j in range(len(classes))
           if i != j and confusion[i, j]]
    off.sort(key=lambda item: (-item[0], item[1], item[2]))
    totals = confusion.sum(axis=1)
    return {
        "fold_accuracy": accuracies,
        "mean": statistics.fmean(accuracies),
        "std": statistics.pstdev(accuracies),
        "min": min(accuracies),
        "max": max(accuracies),
        "per_class_recall": {name: float(confusion[i, i] / totals[i]) if totals[i] else 0.0
                             for i, name in enumerate(classes)},
        "most_confused": [{"produced": a, "recognized": b, "count": n}
                          for n, a, b in off[:TOP]],
        "confusion": confusion.tolist(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--signers", type=int, default=15)
    parser.add_argument("--reps", type=int, default=6, help="repetitions per sign and signer")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--scale", type=Fraction, default=Fraction(1, 16))
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    from aslchamp import net as netmod
    from aslchamp import synth
    from aslchamp.evaluation import evaluate
    from aslchamp.gesture import GestureDataset

    spec = synth.DatasetSpec(signers=args.signers, repetitions_per_class=args.reps,
                             master_seed=SEED)
    harder = replace(spec, noise_std_m=spec.noise_std_m * HARDER,
                     orientation_jitter_deg=spec.orientation_jitter_deg * HARDER,
                     offset_std_m=spec.offset_std_m * HARDER)
    tiers = {"default": synth.generate_dataset(spec),
             f"x{HARDER:g}": synth.generate_dataset(harder)}
    corpus = tiers["default"]
    cfg = netmod.NetConfig(scale_factor=args.scale, dtype="float32")
    tc = netmod.TrainConfig(epochs=args.epochs, batch_size=128, learning_rate=2e-3,
                            shuffle_seed=SEED, early_stop_patience=PATIENCE)

    def of(ds, signers):
        return GestureDataset(samples=[s for s in ds.samples if s.signer_id in signers])

    signers = sorted({s.signer_id for s in corpus.samples})
    folds = []
    accuracies = {name: [] for name in tiers}
    confusion = {name: 0 for name in tiers}
    for held, val, train_signers in fold_splits(signers):
        t0 = time.perf_counter()
        net = netmod.build_network(cfg, seed=SEED)
        net, report, _ = netmod.train(
            net, netmod.encode_gesture_dataset(of(corpus, train_signers), cfg),
            netmod.encode_gesture_dataset(of(corpus, {val}), cfg), tc)
        fold = {"held_out": held, "validation": val, "epochs_run": report.epochs_run}
        for name, ds in tiers.items():
            metrics = evaluate(net, of(ds, held))
            fold[f"accuracy_{name}"] = metrics.accuracy
            accuracies[name].append(metrics.accuracy)
            confusion[name] = confusion[name] + metrics.confusion
        folds.append(fold)
        print(f"fold {len(folds)}: held out {','.join(held)}, {report.epochs_run} epochs, "
              + ", ".join(f"{name} {fold[f'accuracy_{name}']:.4f}" for name in tiers)
              + f" ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)

    result = {
        "data": {"signers": args.signers, "repetitions": args.reps, "seed": SEED,
                 "classes": list(spec.classes), "harder_factor": HARDER},
        "training": {"scale": str(args.scale), "dtype": cfg.dtype, "batch_size": tc.batch_size,
                     "learning_rate": tc.learning_rate, "epochs": args.epochs,
                     "patience": PATIENCE, "net_seed": SEED},
        "folds": folds,
        "tiers": {name: tier_summary(accuracies[name], confusion[name], cfg.classes)
                  for name in tiers},
    }
    for name, summary in result["tiers"].items():
        print(f"{args.label} {name}: mean {summary['mean']:.4f} std {summary['std']:.4f} "
              f"min {summary['min']:.4f} max {summary['max']:.4f}")
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = result
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
