"""Command-line surface: generate data, train, evaluate, recognize, and run
lesson simulations.

Exit codes: 0 success, 2 usage errors, 3 runtime failures, 4 data validation
failures.  --threads 1 (or ASLCHAMP_THREADS=1) pins the BLAS thread pools
before numpy loads, which makes repeated runs byte-identical; for that reason
this module imports the heavy submodules lazily inside the commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_DATA = 4


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}: {e}")


def _numbers(count: int):
    """argparse type: exactly ``count`` comma-separated numbers."""
    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers")
        try:
            return tuple(float(p) for p in parts)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aslchamp",
        description="Synthetic sign data, recognizer training, and lesson simulation.")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread count (1 forces determinism mode); "
                             "falls back to ASLCHAMP_THREADS")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; per-stage seeds are derived from it")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument("--classes", nargs="*", default=None,
                   help="sign names (default: all nine)")
    p.add_argument("--signers", type=int, default=15)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--frame-rate", type=float, default=72.0)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--left-handed", type=float, default=0.2)
    p.add_argument("--noise-std", type=float, default=0.004)
    p.add_argument("--offset-std", type=float, default=0.03)
    p.add_argument("--jitter-deg", type=float, default=5.0)
    p.add_argument("--speed-range", type=_numbers(2), default=None,
                   help=argparse.SUPPRESS)

    p = sub.add_parser("train", help="train a recognizer on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint output path")
    p.add_argument("--report", default=None, help="training report JSON path")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--scale", type=_fraction, default=Fraction(1),
                   help="uniform width scale, e.g. 1/16")
    p.add_argument("--t-max", type=int, default=651)
    p.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    p.add_argument("--dropout", type=float, default=0.6,
                   help="dense dropout rate at the published widths; it is "
                        "multiplied by --scale (0.6 x 1/16 = 0.0375)")
    p.add_argument("--split-unit", choices=("sample", "signer"), default="signer")
    p.add_argument("--fractions", type=_numbers(3), default=(0.8, 0.1, 0.1))
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--resume", action="store_true",
                   help="continue training from the checkpoint at --ckpt; the "
                        "network config comes from the checkpoint, so --scale, "
                        "--t-max, --dtype and --dropout are ignored, while --lr, "
                        "--batch-size, --epochs and --patience apply")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subset", choices=("all", "train", "val", "test"), default="all",
                   help="evaluate everything or one split of the file")
    p.add_argument("--split-unit", choices=("sample", "signer"), default="signer")
    p.add_argument("--fractions", type=_numbers(3), default=(0.8, 0.1, 0.1))
    p.add_argument("--csv", default=None, help="also write the confusion matrix as CSV")

    p = sub.add_parser("recognize", help="classify the samples in a dataset file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sample", required=True, help="dataset file with samples to classify")

    p = sub.add_parser("lesson-sim", help="run a simulated learner through a lesson")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--signs", nargs="*", default=["MILK", "TEA", "COFFEE"])
    p.add_argument("--success-prob", type=float, default=1.0)
    p.add_argument("--improvement", type=float, default=0.15)
    p.add_argument("--timeout-prob", type=float, default=0.0)
    p.add_argument("--out", default=None, help="transcript JSONL path")
    return parser


def _configure_threads(threads: int | None):
    source = "--threads"
    if threads is None and os.environ.get("ASLCHAMP_THREADS"):
        source, env = "ASLCHAMP_THREADS", os.environ["ASLCHAMP_THREADS"]
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"{source} must be an integer, got {env!r}") from None
    if threads is not None:
        if threads < 1:
            raise UsageError(f"{source} must be >= 1, got {threads}")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def cmd_gen_data(args) -> int:
    from . import synth
    from .dataset_io import write_dataset
    from .seeds import STAGE_DATA, child_seed

    classes = tuple(args.classes) if args.classes else None
    kw = dict(
        signers=args.signers,
        repetitions_per_class=args.reps,
        frame_rate_hz=args.frame_rate,
        duration_s=args.duration,
        master_seed=child_seed(args.seed, STAGE_DATA),
        left_handed_fraction=args.left_handed,
        noise_std_m=args.noise_std,
        offset_std_m=args.offset_std,
        orientation_jitter_deg=args.jitter_deg,
    )
    if classes is not None:
        kw["classes"] = classes
    if args.speed_range is not None:
        kw["speed_range"] = args.speed_range
    try:
        spec = synth.DatasetSpec(**kw)
    except ValueError as e:
        raise UsageError(str(e))
    try:
        ds = synth.generate_dataset(spec)
    except synth.MissingTemplate as e:
        raise UsageError(f"no template for class {e}")
    write_dataset(ds, args.out)

    counts: dict[str, int] = {}
    for s in ds.samples:
        counts[s.label.name] = counts.get(s.label.name, 0) + 1
    print(f"wrote {len(ds.samples)} samples to {args.out}")
    for name in sorted(counts):
        print(f"  {name}: {counts[name]}")
    return EXIT_OK


def _split_spec(args):
    """The --fractions/--split-unit split; bad fractions are a usage error (exit 2)."""
    from .evaluation import SplitSpec
    from .seeds import STAGE_SPLIT, child_seed
    try:
        return SplitSpec(fractions=tuple(args.fractions), unit=args.split_unit,
                         seed=child_seed(args.seed, STAGE_SPLIT))
    except ValueError as e:
        raise UsageError(str(e))


def _load_dataset(path, what: str = "dataset file"):
    """Read a dataset file; an unreadable or invalid one is a data error (exit 4)."""
    from .dataset_io import FormatError, SchemaError, read_dataset
    try:
        return read_dataset(path)
    except (FormatError, SchemaError) as e:
        raise DataError(f"invalid {what}: {type(e).__name__}: {e}")


def cmd_train(args) -> int:
    from . import net as netmod
    from .checkpoint import load_checkpoint_full, save_checkpoint
    from .evaluation import split_dataset
    from .gesture import InvalidSample
    from .seeds import STAGE_TRAIN, child_seed

    try:
        tc = netmod.TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            shuffle_seed=child_seed(args.seed, STAGE_TRAIN),
            early_stop_patience=args.patience,
        )
    except netmod.InvalidConfig as e:
        raise UsageError(str(e))
    split = _split_spec(args)

    ds = _load_dataset(args.data)
    class_names = tuple(sc.name for sc in sorted({s.label for s in ds.samples}))

    resume_state = None
    if args.resume:
        network, resume_state = load_checkpoint_full(args.ckpt)
        if resume_state is None:
            raise DataError(f"checkpoint {args.ckpt} has no training state to resume")
        cfg = network.config
    else:
        try:
            cfg = netmod.NetConfig(
                t_max=args.t_max,
                scale_factor=args.scale,
                dtype=args.dtype,
                dropout_rate=args.dropout,
                n_classes=len(class_names),
                classes=class_names,
            )
        except netmod.InvalidConfig as e:
            raise UsageError(str(e))
        network = netmod.build_network(cfg, seed=child_seed(args.seed, STAGE_TRAIN))

    train_ds, val_ds, test_ds = split_dataset(ds, split)
    try:
        train_set = netmod.encode_gesture_dataset(train_ds, cfg)
        val_set = netmod.encode_gesture_dataset(val_ds, cfg) if len(val_ds.samples) else None
    except InvalidSample as e:
        raise DataError(f"invalid sample: {e}")

    determinism = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    try:
        trained, report, state = netmod.train(network, train_set, val_set, tc,
                                              resume=resume_state)
    except netmod.DivergenceDetected as e:
        if e.net is not None:
            save_checkpoint(e.net, args.ckpt)
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_RUNTIME

    save_checkpoint(trained, args.ckpt, train_state=state)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_obj(include_timings=not determinism), fh, indent=2)
            fh.write("\n")
    last_val = report.val_accuracy[-1] if report.val_accuracy else None
    print(f"trained {report.epochs_run} epochs "
          f"(from epoch {report.start_epoch + 1}); "
          f"final train acc {report.train_accuracy[-1]:.4f}"
          + (f", val acc {last_val:.4f}" if last_val is not None else ""))
    if args.verbose:
        total = sum(report.epoch_seconds)
        print(f"wall time {total:.1f}s over {report.epochs_run} epochs", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint
    from .evaluation import evaluate, render_metrics, split_dataset
    from .gesture import InvalidSample
    from .net import ClassMismatch

    split = _split_spec(args) if args.subset != "all" else None
    network = load_checkpoint(args.ckpt)
    ds = _load_dataset(args.data)
    if split is not None:
        parts = dict(zip(("train", "val", "test"), split_dataset(ds, split)))
        ds = parts[args.subset]
    try:
        metrics = evaluate(network, ds)
    except ClassMismatch as e:
        print(f"class mismatch: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except InvalidSample as e:
        raise DataError(f"invalid sample: {e}")
    sys.stdout.write(render_metrics(metrics, "text"))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(render_metrics(metrics, "csv"))
    return EXIT_OK


def cmd_recognize(args) -> int:
    from .checkpoint import load_checkpoint
    from .gesture import InvalidSample
    from .net import predict

    network = load_checkpoint(args.ckpt)
    ds = _load_dataset(args.sample, "sample file")
    if not ds.samples:
        raise DataError("sample file contains no samples")
    for sample in ds.samples:
        try:
            pred = predict(network, sample)
        except InvalidSample as e:
            raise DataError(f"invalid sample: {e}")
        print(f"{pred.label.name} {pred.confidence:.4f}")
        if args.verbose:
            dist = " ".join(f"{name}={p:.6f}"
                            for name, p in zip(network.config.classes, pred.distribution))
            print(f"  {dist}")
    return EXIT_OK


def cmd_lesson_sim(args) -> int:
    from .checkpoint import load_checkpoint
    from .gesture import sign_class
    from .lesson import (
        LearnerProfile,
        LessonPlan,
        net_classifier,
        simulate_learner,
        transcript_to_jsonl,
    )
    from .seeds import STAGE_LESSON, child_seed
    from .synth import default_templates

    try:
        signs = tuple(sign_class(name) for name in args.signs)
    except KeyError as e:
        raise UsageError(str(e))
    if not signs:
        raise UsageError("--signs needs at least one sign name")
    plan = LessonPlan(signs=signs)
    try:
        profile = LearnerProfile(success_prob=args.success_prob,
                                 improvement=args.improvement,
                                 timeout_prob=args.timeout_prob,
                                 seed=child_seed(args.seed, STAGE_LESSON))
    except ValueError as e:
        raise UsageError(str(e))
    network = load_checkpoint(args.ckpt)
    final = simulate_learner(plan, net_classifier(network), profile, default_templates())

    attempts: dict[str, int] = {}
    for ev in final.transcript:
        if ev.kind == "attempt":
            attempts[ev.sign] = attempts.get(ev.sign, 0) + 1
    first_try = sum(
        1 for sc in plan.signs
        if attempts.get(sc.name) == 1 and sc.name not in final.needs_review
    )
    print(f"first-try passes: {first_try}/{len(plan.signs)}")
    print(f"needs_review: {len(final.needs_review)}"
          + (f" ({', '.join(final.needs_review)})" if final.needs_review else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(transcript_to_jsonl(final.transcript))
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "recognize": cmd_recognize,
    "lesson-sim": cmd_lesson_sim,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_threads(args.threads)
    except UsageError as e:
        parser.error(str(e))  # exits 2

    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # checkpoint/format/runtime failures
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
