"""Interactive teaching loop as a deterministic state machine.

Each sign presentation is demonstrated twice, then the learner gets a timed
attempt; a correct attempt advances, an incorrect one re-demonstrates the
sign, up to three attempts in total.  A sign that exhausts its attempts is
flagged ``needs_review`` and the lesson moves on.  The machine is decoupled
from rendering: callers feed it events and act on the returned directives.

Events are ``Tick`` (the capture deadline or a host heartbeat),
``DemoFinished``, and ``AttemptCaptured``.  An event that is illegal in the
current phase leaves the machine where it is and is logged in the transcript.
Transcript timestamps are logical step indices so that identical runs produce
identical transcripts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .gesture import GestureSample, SignClass
from .synth import (
    MissingTemplate,
    SignerProfile,
    SignTemplate,
    generate_sample,
)


class InvalidPlan(ValueError):
    pass


class Phase(Enum):
    WELCOME = "welcome"
    DEMONSTRATE = "demonstrate"
    AWAIT_ATTEMPT = "await_attempt"
    FEEDBACK = "feedback"
    ADVANCE = "advance"
    COMPLETE = "complete"


# -- events ------------------------------------------------------------------


@dataclass(frozen=True)
class Tick:
    pass


@dataclass(frozen=True)
class DemoFinished:
    pass


@dataclass(frozen=True)
class AttemptCaptured:
    sample: GestureSample | None


Event = Tick | DemoFinished | AttemptCaptured


# -- directives (what the host should present next) ---------------------------


@dataclass(frozen=True)
class Say:
    text: str


@dataclass(frozen=True)
class ShowDemo:
    sign: str
    rep: int


@dataclass(frozen=True)
class PromptAttempt:
    sign: str
    attempt_no: int
    window_s: float


@dataclass(frozen=True)
class ShowFeedback:
    sign: str
    kind: str  # "positive" | "negative"
    verdict: str  # "correct" | "incorrect" | "timeout"


@dataclass(frozen=True)
class AnnounceBatch:
    signs: tuple[str, ...]


@dataclass(frozen=True)
class Finish:
    needs_review: tuple[str, ...]


# -- plan / transcript / state ------------------------------------------------


@dataclass(frozen=True)
class LessonPlan:
    signs: tuple[SignClass, ...]
    batch_size: int = 3
    demo_repetitions: int = 2
    capture_window_s: float = 3.0
    max_retries: int = 3
    welcome_text: str = ("Welcome to the coffee shop. "
                         "Now I will show you some signs. Ready?")

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(self.signs))

    def batches(self) -> tuple[tuple[SignClass, ...], ...]:
        return tuple(
            self.signs[i:i + self.batch_size]
            for i in range(0, len(self.signs), self.batch_size)
        )


@dataclass(frozen=True)
class TranscriptEvent:
    step: int
    kind: str
    sign: str | None = None
    rep: int | None = None
    attempt_no: int | None = None
    verdict: str | None = None
    predicted: str | None = None
    confidence: float | None = None
    note: str | None = None


@dataclass(frozen=True)
class LessonState:
    plan: LessonPlan
    phase: Phase
    sign_index: int = 0
    demo_rep: int = 0
    attempt_no: int = 0
    last_verdict: str | None = None
    needs_review: tuple[str, ...] = ()
    transcript: tuple[TranscriptEvent, ...] = ()
    step_count: int = 0

    @property
    def current_sign(self) -> SignClass:
        return self.plan.signs[self.sign_index]


Classifier = Callable[[GestureSample], tuple[str, float]]


def net_classifier(net) -> Classifier:
    """Adapt a trained network's predict() to the lesson classifier interface."""
    from .net import predict

    def classify(sample: GestureSample) -> tuple[str, float]:
        pred = predict(net, sample)
        return pred.label.name, pred.confidence
    return classify


def new_lesson(plan: LessonPlan) -> LessonState:
    if not plan.signs:
        raise InvalidPlan("plan needs at least one sign")
    if plan.max_retries < 1:
        raise InvalidPlan("max_retries must be >= 1")
    if plan.batch_size < 1 or plan.demo_repetitions < 1:
        raise InvalidPlan("batch_size and demo_repetitions must be >= 1")
    if plan.capture_window_s <= 0:
        raise InvalidPlan("capture_window_s must be positive")
    if not all(isinstance(s, SignClass) for s in plan.signs):
        raise InvalidPlan("plan signs must be SignClass values")
    welcome = TranscriptEvent(step=0, kind="welcome", note=plan.welcome_text)
    return LessonState(plan=plan, phase=Phase.WELCOME, transcript=(welcome,), step_count=1)


def _log(state: LessonState, kind: str, **kw) -> LessonState:
    ev = TranscriptEvent(step=state.step_count, kind=kind, **kw)
    return replace(state, transcript=state.transcript + (ev,),
                   step_count=state.step_count + 1)


def _start_demo(state: LessonState, announce_batch: bool):
    plan = state.plan
    sign = state.current_sign.name
    directives = []
    if announce_batch:
        batch_idx = state.sign_index // plan.batch_size
        batch = plan.batches()[batch_idx]
        directives.append(AnnounceBatch(signs=tuple(s.name for s in batch)))
        state = _log(state, "batch_start", note=",".join(s.name for s in batch))
    state = replace(state, phase=Phase.DEMONSTRATE, demo_rep=1)
    state = _log(state, "demo", sign=sign, rep=1)
    directives.append(ShowDemo(sign=sign, rep=1))
    return state, tuple(directives)


def step(state: LessonState, event: Event,
         classify: Classifier | None = None) -> tuple[LessonState, tuple]:
    """Advance the machine by one event; returns (new_state, directives).

    Illegal events never raise: the state is unchanged apart from an
    ``illegal_event`` transcript entry.
    """
    plan = state.plan
    phase = state.phase

    if phase == Phase.WELCOME and isinstance(event, Tick):
        state2, directives = _start_demo(
            replace(state, sign_index=0, attempt_no=1), announce_batch=True)
        return state2, (Say(plan.welcome_text),) + directives

    if phase == Phase.DEMONSTRATE and isinstance(event, DemoFinished):
        if state.demo_rep < plan.demo_repetitions:
            rep = state.demo_rep + 1
            state = replace(state, demo_rep=rep)
            state = _log(state, "demo", sign=state.current_sign.name, rep=rep)
            return state, (ShowDemo(sign=state.current_sign.name, rep=rep),)
        state = replace(state, phase=Phase.AWAIT_ATTEMPT)
        state = _log(state, "prompt", sign=state.current_sign.name,
                     attempt_no=state.attempt_no)
        return state, (PromptAttempt(sign=state.current_sign.name,
                                     attempt_no=state.attempt_no,
                                     window_s=plan.capture_window_s),)

    if phase == Phase.AWAIT_ATTEMPT and isinstance(event, (AttemptCaptured, Tick)):
        sign = state.current_sign.name
        if isinstance(event, Tick):
            verdict, predicted, confidence = "timeout", None, None
        else:
            if classify is None:
                raise ValueError("AttemptCaptured needs a classifier")
            predicted, confidence = classify(event.sample)
            verdict = "correct" if predicted == sign else "incorrect"
        state = replace(state, phase=Phase.FEEDBACK, last_verdict=verdict)
        state = _log(state, "attempt", sign=sign, attempt_no=state.attempt_no,
                     verdict=verdict, predicted=predicted, confidence=confidence)
        kind = "positive" if verdict == "correct" else "negative"
        state = _log(state, "feedback", sign=sign, verdict=verdict, note=kind)
        return state, (ShowFeedback(sign=sign, kind=kind, verdict=verdict),)

    if phase == Phase.FEEDBACK and isinstance(event, Tick):
        sign = state.current_sign.name
        if state.last_verdict == "correct":
            state = replace(state, phase=Phase.ADVANCE)
            state = _log(state, "advance", sign=sign)
            return state, ()
        if state.attempt_no < plan.max_retries:
            state = replace(state, attempt_no=state.attempt_no + 1)
            return _start_demo(state, announce_batch=False)
        state = replace(state, phase=Phase.ADVANCE,
                        needs_review=state.needs_review + (sign,))
        state = _log(state, "needs_review", sign=sign)
        state = _log(state, "advance", sign=sign)
        return state, ()

    if phase == Phase.ADVANCE and isinstance(event, Tick):
        nxt = state.sign_index + 1
        if nxt >= len(plan.signs):
            state = replace(state, phase=Phase.COMPLETE)
            state = _log(state, "complete",
                         note=",".join(state.needs_review) or None)
            return state, (Finish(needs_review=state.needs_review),)
        state = replace(state, sign_index=nxt, attempt_no=1, last_verdict=None)
        return _start_demo(state, announce_batch=(nxt % plan.batch_size == 0))

    state = _log(state, "illegal_event", note=f"{type(event).__name__} in {phase.value}")
    return state, ()


# ---------------------------------------------------------------------------
# Replay and export
# ---------------------------------------------------------------------------


def replay(plan: LessonPlan, transcript: tuple[TranscriptEvent, ...]) -> LessonState:
    """Reconstruct the final state by re-driving step() from the transcript.

    Attempt outcomes are taken from the recorded predictions, so no
    classifier or samples are needed.  Events that a single step() call
    logged together (needs_review + advance, batch_start + demo) are folded
    back into one replayed event.
    """
    state = new_lesson(plan)
    skip_advance = False
    for ev in transcript:
        if ev.kind in ("welcome", "batch_start", "feedback"):
            continue
        if ev.kind == "advance" and skip_advance:
            skip_advance = False
            continue
        skip_advance = False
        if ev.kind == "demo":
            if state.phase == Phase.WELCOME:
                state, _ = step(state, Tick())
            elif state.phase == Phase.DEMONSTRATE:
                state, _ = step(state, DemoFinished())
            elif state.phase in (Phase.FEEDBACK, Phase.ADVANCE):
                state, _ = step(state, Tick())
        elif ev.kind == "prompt":
            state, _ = step(state, DemoFinished())
        elif ev.kind == "attempt":
            if ev.verdict == "timeout":
                state, _ = step(state, Tick())
            else:
                recorded = (ev.predicted, ev.confidence)
                state, _ = step(state, AttemptCaptured(sample=None),
                                classify=lambda _s, rec=recorded: rec)
        elif ev.kind == "needs_review":
            state, _ = step(state, Tick())  # logs needs_review + advance together
            skip_advance = True
        elif ev.kind in ("advance", "complete"):
            state, _ = step(state, Tick())
        elif ev.kind == "illegal_event":
            name = (ev.note or "").split(" in ")[0]
            injected = {"Tick": Tick(), "DemoFinished": DemoFinished(),
                        "AttemptCaptured": AttemptCaptured(None)}.get(name, Tick())
            state, _ = step(state, injected, classify=lambda _s: ("", 0.0))
    return state


def transcript_to_jsonl(transcript: tuple[TranscriptEvent, ...]) -> str:
    lines = []
    for ev in transcript:
        obj = {k: v for k, v in ev.__dict__.items() if v is not None}
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Simulated learners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerProfile:
    """Success odds improve with each corrective attempt."""

    success_prob: float = 0.7
    improvement: float = 0.15
    timeout_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("success_prob", "improvement", "timeout_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    def attempt_success_prob(self, attempt_no: int) -> float:
        return min(1.0, self.success_prob + self.improvement * (attempt_no - 1))


_ATTEMPT_PROFILE = SignerProfile(handedness="right", speed_factor=1.0,
                                 orientation_jitter_deg=2.0, noise_std_m=0.002,
                                 signer_id="learner")


def _error_template(sign: str, templates: dict[str, SignTemplate]) -> SignTemplate:
    """The wrong production a simulated learner makes for ``sign``: its
    ``<sign>_REVERSED`` twin when there is one, else the alphabetically first
    other non-reversed template (so MILK and TEA both come out as COFFEE)."""
    reversed_name = f"{sign}_REVERSED"
    if reversed_name in templates:
        return templates[reversed_name]
    return templates[min(n for n in templates if n != sign and not n.endswith("_REVERSED"))]


def simulate_learner(plan: LessonPlan, classify: Classifier,
                     profile: LearnerProfile,
                     templates: dict[str, SignTemplate]) -> LessonState:
    """Drive the machine to COMPLETE with synthetic attempts; deterministic
    per profile seed.  Returns the final state (transcript included)."""
    for sc in plan.signs:
        if sc.name not in templates:
            raise MissingTemplate(sc.name)
    rng = np.random.default_rng(np.random.SeedSequence((profile.seed,)))
    state = new_lesson(plan)
    while state.phase != Phase.COMPLETE:
        if state.phase in (Phase.WELCOME, Phase.FEEDBACK, Phase.ADVANCE):
            state, _ = step(state, Tick())
        elif state.phase == Phase.DEMONSTRATE:
            state, _ = step(state, DemoFinished())
        elif state.phase == Phase.AWAIT_ATTEMPT:
            if profile.timeout_prob > 0 and rng.random() < profile.timeout_prob:
                state, _ = step(state, Tick())
                continue
            succeed = rng.random() < profile.attempt_success_prob(state.attempt_no)
            sign = state.current_sign.name
            tpl = templates[sign] if succeed else _error_template(sign, templates)
            sample = generate_sample(tpl, _ATTEMPT_PROFILE, rng)
            state, _ = step(state, AttemptCaptured(sample=sample), classify=classify)
    return state
