"""The benchmark's three workloads, one per kind of user of the pipeline.

* ``train``: someone training the recognizer.  ``net.train`` at the
  acceptance config (scale 1/16, t_max 651, batch 128, float32, lr 2e-3,
  dropout 0.6, signer split, a validation pass every epoch).
* ``lesson``: a learner waiting for a verdict.  One simulated learner at a
  time goes through a 9-sign lesson on a published-width classifier; the
  benchmark drives ``lesson.step`` itself (a closed loop with one client).
* ``corpus``: someone generating and evaluating a corpus.  The ``gen-data``
  path then the ``eval`` path, in chunks: generate, write, read, evaluate.

Every input (corpus, attempts, learners) is generated here from the
workload seed; the program only receives it.  Each workload has a set-up
(timed as ``setup_s``) and a ``run`` that repeats the workload's op for a
given number of seconds, checks every output and counts failures.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from aslchamp import checkpoint, dataset_io, evaluation, gesture, lesson, synth
from aslchamp import net as netmod
from aslchamp.seeds import child_seed

from make_checkpoint import published_config
from tracing import patched, recorder

ACCEPTANCE = dict(scale_factor=Fraction(1, 16), t_max=651, dtype="float32", dropout_rate=0.6)
HERE = Path(__file__).resolve().parent


@dataclass
class Phase:
    """What one timed stretch of a workload did."""

    op_seconds: list[float] = field(default_factory=list)  # wall time of each op
    op_samples: list[int] = field(default_factory=list)  # samples each op handled
    trace_units: int = 0  # per-layer metrics are per unit: train step, verdict, sample
    attempted: int = 0
    failed: int = 0

    @property
    def samples(self) -> int:
        return sum(self.op_samples)

    @property
    def busy_seconds(self) -> float:
        return sum(self.op_seconds)

    def extend(self, other: "Phase"):
        self.op_seconds += other.op_seconds
        self.op_samples += other.op_samples
        self.trace_units += other.trace_units
        self.attempted += other.attempted
        self.failed += other.failed


# Field metadata of a run state: built by set-up.  The other fields are the
# workload's progress, which a repeated set-up carries over.
BUILT = {"setup": True}


def set_up_again(workload, state):
    """Release what set-up built in ``state`` (untimed), set the workload up
    anew (timed) and carry ``state``'s progress over; returns (seconds, new
    state).  With ``state`` None this is the first set-up."""
    if state is not None:
        for f in fields(state):
            if f.metadata.get("setup"):
                setattr(state, f.name, None)
    start = time.perf_counter()
    fresh = workload.setup()
    took = time.perf_counter() - start
    if state is not None:
        for f in fields(state):
            if not f.metadata.get("setup"):
                setattr(fresh, f.name, getattr(state, f.name))
    return took, fresh


def _report_failure(what: str):
    print(f"failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@dataclass
class TrainRun:
    train_set: netmod.EncodedDataset = field(metadata=BUILT)
    val_set: netmod.EncodedDataset = field(metadata=BUILT)
    initial: netmod.ChampNet = field(metadata=BUILT)
    network: netmod.ChampNet  # the network being trained
    resume: netmod.TrainState | None = None
    first_checksum: str | None = None


class Train:
    """One op is one epoch (one ``net.train`` call resuming the last); per-layer
    numbers are per training step."""

    name = "train"
    unit = "train steps"
    SIGNERS = 10
    REPETITIONS = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        spec = synth.DatasetSpec(signers=self.SIGNERS, repetitions_per_class=self.REPETITIONS,
                                 master_seed=child_seed(seed, "data"))
        self.corpus = synth.generate_dataset(spec)
        self.cfg = netmod.NetConfig(**ACCEPTANCE)
        self.tc = netmod.TrainConfig(epochs=1, batch_size=128, learning_rate=2e-3,
                                     shuffle_seed=child_seed(seed, "train"))
        self.inputs = {"corpus_samples": len(self.corpus.samples)}

    def setup(self) -> TrainRun:
        split = evaluation.SplitSpec(unit="signer", seed=child_seed(self.seed, "split"))
        train_ds, val_ds, _ = evaluation.split_dataset(self.corpus, split)
        train_set = netmod.encode_gesture_dataset(train_ds, self.cfg)
        val_set = netmod.encode_gesture_dataset(val_ds, self.cfg)
        network = netmod.build_network(self.cfg, seed=child_seed(self.seed, "train"))
        self.inputs.update(train_samples=len(train_set), val_samples=len(val_set))
        return TrainRun(train_set, val_set, network, network)

    def run(self, state: TrainRun, seconds: float, tracer) -> Phase:
        phase = Phase()
        steps = math.ceil(len(state.train_set) / self.tc.batch_size)
        losses: list[float] = []
        deadline = time.perf_counter() + seconds
        with patched(netmod, "softmax_xent_batch", recorder(losses, lambda r: r[0])):
            while time.perf_counter() < deadline:
                seen = len(losses)
                phase.attempted += steps
                tracer.begin_op()
                start = time.perf_counter()
                try:
                    trained, report, resume = netmod.train(
                        state.network, state.train_set, state.val_set, self.tc,
                        resume=state.resume)
                except Exception:
                    _report_failure("net.train raised")
                    phase.failed += steps
                    tracer.end_op(start, time.perf_counter())
                    break
                end = time.perf_counter()
                tracer.end_op(start, end)
                phase.op_seconds.append(end - start)
                phase.op_samples.append(len(state.train_set))
                phase.trace_units += steps
                epoch_losses = losses[seen:]
                bad = sum(not math.isfinite(x) for x in epoch_losses)
                phase.failed += bad + max(0, steps - len(epoch_losses))
                if state.resume is None:
                    state.first_checksum = report.param_checksum
                state.network, state.resume = trained, resume
        return phase

    def final_check(self, state: TrainRun) -> tuple[int, int, dict]:
        """Re-run the first epoch from the initial network: with BLAS pinned the
        parameter checksum must repeat exactly."""
        steps = math.ceil(len(state.train_set) / self.tc.batch_size)
        _, report, _ = netmod.train(state.initial, state.train_set, state.val_set, self.tc)
        same = report.param_checksum == state.first_checksum
        if not same:
            print("failed: first-epoch param_checksum differs on re-run", file=sys.stderr)
        return steps, 0 if same else steps, {"first_epoch_param_checksum": state.first_checksum}


# ---------------------------------------------------------------------------
# lesson
# ---------------------------------------------------------------------------

LEARNER_SUCCESS = (0.3, 0.6, 0.9)  # first-attempt success odds, drawn per learner
LEARNER_IMPROVEMENT = 0.15  # added per corrective attempt
LEARNER_PROFILES = 64


@dataclass
class Learner:
    plan: lesson.LessonPlan
    success: float
    profile: synth.SignerProfile
    rng: np.random.Generator
    state: lesson.LessonState
    verdicts: int = 0
    failed: int = 0


@dataclass
class LessonRun:
    network: netmod.ChampNet = field(metadata=BUILT)
    templates: dict = field(metadata=BUILT)
    learners: int = 0
    current: Learner | None = None  # resumes in the next run() call


class Lesson:
    """One op is one verdict: ``lesson.step`` handed an ``AttemptCaptured``
    until it returns the ``ShowFeedback`` directive."""

    name = "lesson"
    unit = "verdicts"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "published.ckpt"
        # Built in a child process so the build's memory stays out of peak_rss_mb.
        subprocess.run([sys.executable, str(HERE / "make_checkpoint.py"),
                        "--seed", str(seed), "--out", str(self.path)],
                       check=True, timeout=170)
        self.cfg = published_config()
        spec = synth.DatasetSpec(signers=LEARNER_PROFILES, master_seed=child_seed(seed, "learners"))
        self.profiles = synth.signer_profiles(spec)
        self.inputs = {"checkpoint_mbytes": os.path.getsize(self.path) / 1e6,
                       "params": netmod.param_count(self.cfg)}

    def setup(self) -> LessonRun:
        return LessonRun(checkpoint.load_checkpoint(self.path), synth.default_templates())

    def _learner(self, i: int) -> Learner:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1, i)))
        order = rng.permutation(len(gesture.CANONICAL_NAMES))
        plan = lesson.LessonPlan(signs=tuple(gesture.sign_class(gesture.CANONICAL_NAMES[j])
                                             for j in order))
        success = LEARNER_SUCCESS[int(rng.integers(len(LEARNER_SUCCESS)))]
        return Learner(plan, success, self.profiles[i % len(self.profiles)], rng,
                       lesson.new_lesson(plan))

    @staticmethod
    def _attempt(templates, learner: Learner):
        sign = learner.state.current_sign.name
        p = min(1.0, learner.success + LEARNER_IMPROVEMENT * (learner.state.attempt_no - 1))
        if learner.rng.random() >= p:
            others = [n for n in gesture.CANONICAL_NAMES if n != sign]
            if sign == "COFFEE":
                others.append("COFFEE_REVERSED")
            sign = others[int(learner.rng.integers(len(others)))]
        return synth.generate_sample(templates[sign], learner.profile, learner.rng)

    @staticmethod
    def _replay_failures(learner: Learner) -> int:
        """Replay the (possibly partial) transcript; on disagreement every
        verdict of the learner not already failed counts as failed."""
        st = learner.state
        replayed = lesson.replay(learner.plan, st.transcript)
        if (replayed.phase, replayed.needs_review) == (st.phase, st.needs_review):
            return 0
        print("failed: lesson.replay disagrees with the live lesson", file=sys.stderr)
        return learner.verdicts - learner.failed

    def run(self, state: LessonRun, seconds: float, tracer) -> Phase:
        phase = Phase()
        predictions: list = []
        deadline = time.perf_counter() + seconds
        with patched(netmod, "predict", recorder(predictions)):
            classify = lesson.net_classifier(state.network)
            while time.perf_counter() < deadline:
                learner = state.current
                if learner is None or learner.state.phase == lesson.Phase.COMPLETE:
                    if learner is not None:
                        phase.failed += self._replay_failures(learner)
                    learner = state.current = self._learner(state.learners)
                    state.learners += 1
                st = learner.state
                if st.phase in (lesson.Phase.WELCOME, lesson.Phase.FEEDBACK,
                                lesson.Phase.ADVANCE):
                    learner.state, _ = lesson.step(st, lesson.Tick())
                elif st.phase == lesson.Phase.DEMONSTRATE:
                    learner.state, _ = lesson.step(st, lesson.DemoFinished())
                else:
                    self._verdict(state, learner, classify, predictions, phase, tracer)
        return phase

    def _verdict(self, state, learner, classify, predictions, phase, tracer):
        event = lesson.AttemptCaptured(self._attempt(state.templates, learner))
        seen = len(predictions)
        phase.attempted += 1
        learner.verdicts += 1
        tracer.begin_op()
        start = time.perf_counter()
        try:
            learner.state, directives = lesson.step(learner.state, event, classify=classify)
        except Exception:
            _report_failure("lesson.step raised on an attempt")
            tracer.end_op(start, time.perf_counter())
            phase.failed += 1
            state.current = None  # abandon this learner
            return
        end = time.perf_counter()
        tracer.end_op(start, end)
        phase.op_seconds.append(end - start)
        phase.op_samples.append(1)
        phase.trace_units += 1
        fresh = predictions[seen:]
        ok = (len(fresh) == 1
              and abs(float(np.sum(fresh[0].distribution)) - 1.0) <= 1e-9
              and any(isinstance(d, lesson.ShowFeedback) for d in directives))
        if not ok:
            print("failed: verdict distribution or directive check", file=sys.stderr)
            phase.failed += 1
            learner.failed += 1

    def final_check(self, state: LessonRun) -> tuple[int, int, dict]:
        failed = self._replay_failures(state.current) if state.current is not None else 0
        return 0, failed, {"learners": state.learners}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CHUNK_CLASSES = 3  # samples per chunk: one signer, one repetition of three classes


@dataclass
class CorpusRun:
    network: netmod.ChampNet = field(metadata=BUILT)
    templates: dict = field(metadata=BUILT)
    next_chunk: int = 0
    bytes_written: int = 0


class Corpus:
    """One op is one chunk through generate, write, read and evaluate;
    per-layer numbers are per corpus sample."""

    name = "corpus"
    unit = "corpus samples"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "chunk.jsonl"
        self.cfg = netmod.NetConfig(**ACCEPTANCE)
        self.inputs = {"chunk_samples": CHUNK_CLASSES}

    def setup(self) -> CorpusRun:
        network = netmod.build_network(self.cfg, seed=child_seed(self.seed, "train"))
        return CorpusRun(network, synth.default_templates())

    def _spec(self, i: int) -> synth.DatasetSpec:
        names = gesture.CANONICAL_NAMES
        first = (i * CHUNK_CLASSES) % len(names)
        return synth.DatasetSpec(classes=names[first:first + CHUNK_CLASSES], signers=1,
                                 repetitions_per_class=1,
                                 master_seed=child_seed(self.seed, f"chunk{i}"))

    def run(self, state: CorpusRun, seconds: float, tracer) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            spec = self._spec(state.next_chunk)
            state.next_chunk += 1
            n = len(spec.classes) * spec.signers * spec.repetitions_per_class
            phase.attempted += n
            tracer.begin_op()
            start = time.perf_counter()
            try:
                ds = synth.generate_dataset(spec, state.templates)
                dataset_io.write_dataset(ds, self.path)
                back = dataset_io.read_dataset(self.path)
                metrics = evaluation.evaluate(state.network, back)
            except Exception:
                _report_failure("corpus chunk raised")
                tracer.end_op(start, time.perf_counter())
                phase.failed += n
                continue
            end = time.perf_counter()
            tracer.end_op(start, end)
            phase.op_seconds.append(end - start)
            phase.op_samples.append(n)
            phase.trace_units += n
            state.bytes_written += os.path.getsize(self.path)
            ok = (len(ds.samples) == n and back == ds
                  and int(metrics.confusion.sum()) == n == metrics.n_samples)
            if not ok:
                print("failed: round trip or confusion total check", file=sys.stderr)
                phase.failed += n
        return phase

    def final_check(self, state: CorpusRun) -> tuple[int, int, dict]:
        return 0, 0, {"chunks": state.next_chunk, "bytes_written": state.bytes_written}


WORKLOADS = {w.name: w for w in (Train, Lesson, Corpus)}
