#!/usr/bin/env python3
"""Miniature end-to-end run: generate, train, evaluate, recognize, simulate.

Uses a small synthetic corpus and a 1/32-width network, so the whole
pipeline runs in about a second: 0.7 s at the default 8 epochs with
OPENBLAS_NUM_THREADS=1 on a 2-core x86-64 host, start-up included. See the
CLI (`aslchamp --help`) for the real command surface.

Each artifact written is reported as a `sha256 <name> <hex>` line, so two
revisions' outputs can be compared by diffing their stdout (with
OPENBLAS_NUM_THREADS=1, which makes runs byte-identical).
"""

import argparse
import hashlib
import sys
import tempfile
from fractions import Fraction
from pathlib import Path


def print_sha256(path: Path) -> None:
    print(f"sha256 {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None,
                        help="where to put artifacts (default: a temp dir)")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    from aslchamp import net as netmod
    from aslchamp import synth
    from aslchamp.checkpoint import load_checkpoint, save_checkpoint
    from aslchamp.dataset_io import write_dataset
    from aslchamp.evaluation import SplitSpec, evaluate, render_metrics, split_dataset
    from aslchamp.lesson import (LearnerProfile, LessonPlan, net_classifier,
                                 simulate_learner, transcript_to_jsonl)
    from aslchamp import gesture

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="aslchamp-"))
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"artifacts -> {workdir}", file=sys.stderr)  # keeps stdout equal across workdirs

    spec = synth.DatasetSpec(classes=("COFFEE", "TEA", "MILK"), signers=6,
                             repetitions_per_class=4, duration_s=1.5,
                             master_seed=args.seed)
    ds = synth.generate_dataset(spec)
    write_dataset(ds, workdir / "dataset.ds")
    print_sha256(workdir / "dataset.ds")
    print(f"generated {len(ds.samples)} samples")

    cfg = netmod.NetConfig(t_max=160, scale_factor=Fraction(1, 32), dtype="float32",
                           dropout_rate=0.0, n_classes=3,
                           classes=("COFFEE", "TEA", "MILK"))
    train_ds, val_ds, test_ds = split_dataset(ds, SplitSpec(unit="signer",
                                                            seed=args.seed))
    enc_train = netmod.encode_gesture_dataset(train_ds, cfg)
    enc_val = netmod.encode_gesture_dataset(val_ds, cfg)

    net = netmod.build_network(cfg, seed=args.seed)
    tc = netmod.TrainConfig(epochs=args.epochs, batch_size=32, shuffle_seed=args.seed)
    net, report, state = netmod.train(net, enc_train, enc_val, tc)
    print(f"trained {report.epochs_run} epochs; "
          f"train acc {report.train_accuracy[-1]:.3f}")

    save_checkpoint(net, workdir / "model.ckpt", train_state=state)
    print_sha256(workdir / "model.ckpt")
    net = load_checkpoint(workdir / "model.ckpt")

    metrics = evaluate(net, test_ds if test_ds.samples else val_ds)
    print(render_metrics(metrics, "text"))

    sample = test_ds.samples[0] if test_ds.samples else val_ds.samples[0]
    pred = netmod.predict(net, sample)
    print(f"recognize one {sample.label.name} sample -> "
          f"{pred.label.name} ({pred.confidence:.3f})")

    plan = LessonPlan(signs=(gesture.MILK, gesture.TEA, gesture.COFFEE))
    profile = LearnerProfile(success_prob=0.8, improvement=0.2, seed=args.seed)
    final = simulate_learner(plan, net_classifier(net), profile,
                             synth.default_templates())
    (workdir / "transcript.jsonl").write_text(transcript_to_jsonl(final.transcript))
    print_sha256(workdir / "transcript.jsonl")
    print(f"lesson complete; needs_review = {list(final.needs_review)}")


if __name__ == "__main__":
    main()
