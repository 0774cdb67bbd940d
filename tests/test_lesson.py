import dataclasses
import json

import numpy as np
import pytest

from aslchamp import gesture
from aslchamp.lesson import (
    AttemptCaptured,
    DemoFinished,
    InvalidPlan,
    LearnerProfile,
    LessonPlan,
    LessonState,
    Phase,
    _error_template,
    PromptAttempt,
    ShowDemo,
    ShowFeedback,
    Tick,
    TranscriptEvent,
    new_lesson,
    replay,
    simulate_learner,
    step,
    transcript_to_jsonl,
)
from aslchamp.synth import MissingTemplate, default_templates

from conftest import make_sample

PLAN = LessonPlan(signs=(gesture.MILK, gesture.TEA, gesture.COFFEE))


def drive_attempt_cycle(state, verdicts, sign_name):
    """Feed demos + attempts for one sign; verdicts maps attempt -> bool."""
    directives_seen = []
    for verdict in verdicts:
        state, d = step(state, DemoFinished())
        directives_seen.extend(d)
        state, d = step(state, DemoFinished())
        directives_seen.extend(d)
        sample = make_sample(label=gesture.sign_class(sign_name))
        classify = (lambda s, v=verdict: (s.label.name if v else "WRONG_GUESS", 0.9))
        state, d = step(state, AttemptCaptured(sample), classify=classify)
        directives_seen.extend(d)
        state, d = step(state, Tick())
        directives_seen.extend(d)
        if state.phase == Phase.ADVANCE:
            break
    return state, directives_seen


def count(transcript, kind):
    return sum(1 for e in transcript if e.kind == kind)


# ---------------------------------------------------------------------------
# Plan and lesson construction
# ---------------------------------------------------------------------------


def test_new_lesson_starts_in_welcome_with_logged_greeting():
    state = new_lesson(PLAN)
    assert state.phase == Phase.WELCOME
    assert state.transcript[0].kind == "welcome"
    assert "coffee shop" in state.transcript[0].note


def test_plan_batches_of_three():
    assert PLAN.batches() == ((gesture.MILK, gesture.TEA, gesture.COFFEE),)
    six = LessonPlan(signs=tuple(gesture.CANONICAL_SIGNS[:6]))
    assert len(six.batches()) == 2
    assert all(len(b) == 3 for b in six.batches())


def test_plan_pacing_is_fixed():
    assert [f.name for f in dataclasses.fields(LessonPlan)] == ["signs"]
    assert (PLAN.batch_size, PLAN.demo_repetitions, PLAN.max_retries) == (3, 2, 3)
    assert PLAN.capture_window_s == 3.0


def test_invalid_plans_rejected():
    with pytest.raises(InvalidPlan):
        new_lesson(LessonPlan(signs=()))
    with pytest.raises(InvalidPlan):
        new_lesson(LessonPlan(signs=("MILK",)))


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


def test_first_try_correct_full_walkthrough():
    state = new_lesson(PLAN)
    state, directives = step(state, Tick())
    assert state.phase == Phase.DEMONSTRATE
    assert any(isinstance(d, ShowDemo) and d.rep == 1 for d in directives)

    state, directives = step(state, DemoFinished())
    assert any(isinstance(d, ShowDemo) and d.rep == 2 for d in directives)
    state, directives = step(state, DemoFinished())
    assert state.phase == Phase.AWAIT_ATTEMPT
    assert any(isinstance(d, PromptAttempt) and d.window_s == 3.0 for d in directives)

    sample = make_sample(label=gesture.MILK)
    state, directives = step(state, AttemptCaptured(sample),
                             classify=lambda s: (s.label.name, 0.98))
    assert state.phase == Phase.FEEDBACK
    fb = [d for d in directives if isinstance(d, ShowFeedback)]
    assert fb and fb[0].kind == "positive"

    state, _ = step(state, Tick())
    assert state.phase == Phase.ADVANCE
    state, _ = step(state, Tick())
    assert state.phase == Phase.DEMONSTRATE
    assert state.current_sign == gesture.TEA
    # per-sign tallies so far: exactly 2 demos, 1 attempt, positive feedback
    milk_events = [e for e in state.transcript if e.sign == "MILK"]
    assert sum(1 for e in milk_events if e.kind == "demo") == 2
    assert sum(1 for e in milk_events if e.kind == "attempt") == 1
    assert sum(1 for e in milk_events if e.kind == "advance") == 1


def test_three_failures_flag_needs_review_and_advance():
    state = new_lesson(PLAN)
    state, _ = step(state, Tick())
    state, _ = drive_attempt_cycle(state, [False, False, False], "MILK")
    assert state.phase == Phase.ADVANCE
    assert state.needs_review == ("MILK",)
    milk = [e for e in state.transcript if e.sign == "MILK"]
    assert sum(1 for e in milk if e.kind == "attempt") == 3
    assert sum(1 for e in milk if e.kind == "demo") == 6  # 2 per presentation
    assert sum(1 for e in milk if e.kind == "needs_review") == 1


def test_retry_after_single_failure_re_demonstrates():
    state = new_lesson(PLAN)
    state, _ = step(state, Tick())
    state, _ = drive_attempt_cycle(state, [False, True], "MILK")
    assert state.phase == Phase.ADVANCE
    assert state.needs_review == ()
    milk = [e for e in state.transcript if e.sign == "MILK"]
    assert sum(1 for e in milk if e.kind == "demo") == 4
    assert sum(1 for e in milk if e.kind == "attempt") == 2


def test_timeout_counts_as_incorrect_attempt():
    state = new_lesson(PLAN)
    state, _ = step(state, Tick())
    state, _ = step(state, DemoFinished())
    state, _ = step(state, DemoFinished())
    assert state.phase == Phase.AWAIT_ATTEMPT
    state, directives = step(state, Tick())  # deadline passes
    assert state.phase == Phase.FEEDBACK
    assert state.last_verdict == "timeout"
    assert any(isinstance(d, ShowFeedback) and d.kind == "negative" for d in directives)


def test_illegal_event_is_logged_and_ignored():
    state = new_lesson(PLAN)
    before_phase = state.phase
    sample = make_sample(label=gesture.MILK)
    state2, directives = step(state, AttemptCaptured(sample),
                              classify=lambda s: (s.label.name, 0.9))
    assert state2.phase == before_phase
    assert directives == ()
    assert state2.transcript[-1].kind == "illegal_event"
    assert "AttemptCaptured" in state2.transcript[-1].note


def test_complete_after_last_sign():
    state = new_lesson(LessonPlan(signs=(gesture.CUP,)))
    state, _ = step(state, Tick())
    state, _ = drive_attempt_cycle(state, [True], "CUP")
    assert state.phase == Phase.ADVANCE
    state, directives = step(state, Tick())
    assert state.phase == Phase.COMPLETE
    assert state.transcript[-1].kind == "complete"
    # further events are illegal and change nothing but the log
    state2, _ = step(state, Tick())
    assert state2.phase == Phase.COMPLETE


def test_machine_never_skips_or_revisits_signs():
    state = new_lesson(PLAN)
    state, _ = step(state, Tick())
    visited = []
    for verdicts, name in (([True], "MILK"), ([False, True], "TEA"),
                           ([False, False, False], "COFFEE")):
        visited.append(state.current_sign.name)
        state, _ = drive_attempt_cycle(state, verdicts, name)
        state, _ = step(state, Tick())
    assert visited == ["MILK", "TEA", "COFFEE"]
    assert state.phase == Phase.COMPLETE
    advances = [e.sign for e in state.transcript if e.kind == "advance"]
    assert advances == ["MILK", "TEA", "COFFEE"]


# ---------------------------------------------------------------------------
# Replay and transcript export
# ---------------------------------------------------------------------------


def scripted_lesson(verdict_script):
    state = new_lesson(PLAN)
    state, _ = step(state, Tick())
    for name, verdicts in verdict_script:
        state, _ = drive_attempt_cycle(state, verdicts, name)
        state, _ = step(state, Tick())
    return state


@pytest.mark.parametrize("script", [
    [("MILK", [True]), ("TEA", [True]), ("COFFEE", [True])],
    [("MILK", [False, True]), ("TEA", [False, False, False]), ("COFFEE", [True])],
    [("MILK", [False, False, False]), ("TEA", [False, False, False]),
     ("COFFEE", [False, False, False])],
])
def test_replay_reproduces_final_state(script):
    final = scripted_lesson(script)
    assert final.phase == Phase.COMPLETE
    replayed = replay(PLAN, final.transcript)
    assert replayed == final


def test_replay_handles_timeouts_and_illegal_events():
    state = new_lesson(PLAN)
    state, _ = step(state, DemoFinished())  # illegal in WELCOME
    state, _ = step(state, Tick())
    state, _ = step(state, DemoFinished())
    state, _ = step(state, DemoFinished())
    state, _ = step(state, Tick())  # timeout attempt 1
    state, _ = step(state, Tick())  # feedback -> re-demo
    assert replay(PLAN, state.transcript) == state


def test_transcript_jsonl_round_trip():
    final = scripted_lesson([("MILK", [True]), ("TEA", [False, True]),
                             ("COFFEE", [True])])
    text = transcript_to_jsonl(final.transcript)
    back = tuple(TranscriptEvent(**json.loads(line)) for line in text.splitlines())
    assert back == final.transcript
    assert replay(PLAN, back) == final


# ---------------------------------------------------------------------------
# Simulated learners
# ---------------------------------------------------------------------------


def oracle_classifier(sample):
    return sample.label.name, 1.0


def test_simulated_perfect_learner_passes_everything_first_try():
    profile = LearnerProfile(success_prob=1.0, seed=0)
    final = simulate_learner(PLAN, oracle_classifier, profile, default_templates())
    assert final.phase == Phase.COMPLETE
    assert final.needs_review == ()
    assert count(final.transcript, "attempt") == 3
    assert count(final.transcript, "demo") == 6


def test_simulated_hopeless_learner_flags_everything():
    profile = LearnerProfile(success_prob=0.0, improvement=0.0, seed=1)
    final = simulate_learner(PLAN, oracle_classifier, profile, default_templates())
    assert final.needs_review == ("MILK", "TEA", "COFFEE")
    assert count(final.transcript, "attempt") == 9


def test_error_template_is_reversed_twin_else_first_other_sign():
    # test_cli.py::test_lesson_sim_perfect_and_hopeless trains its recognizer
    # on exactly these wrong productions
    templates = default_templates()
    assert _error_template("MILK", templates) is templates["COFFEE"]
    assert _error_template("TEA", templates) is templates["COFFEE"]
    assert _error_template("COFFEE", templates) is templates["COFFEE_REVERSED"]


def test_simulated_learner_is_deterministic():
    profile = LearnerProfile(success_prob=0.5, improvement=0.2, seed=33)
    a = simulate_learner(PLAN, oracle_classifier, profile, default_templates())
    b = simulate_learner(PLAN, oracle_classifier, profile, default_templates())
    assert a == b


def test_simulated_learner_with_timeouts():
    profile = LearnerProfile(success_prob=1.0, timeout_prob=1.0, seed=2)
    final = simulate_learner(PLAN, oracle_classifier, profile, default_templates())
    assert final.needs_review == ("MILK", "TEA", "COFFEE")
    timeouts = [e for e in final.transcript
                if e.kind == "attempt" and e.verdict == "timeout"]
    assert len(timeouts) == 9


def test_simulated_learner_requires_templates():
    templates = {k: v for k, v in default_templates().items() if k != "TEA"}
    with pytest.raises(MissingTemplate):
        simulate_learner(PLAN, oracle_classifier, LearnerProfile(seed=0), templates)


def test_learner_profile_validation():
    with pytest.raises(ValueError):
        LearnerProfile(success_prob=1.5)
    with pytest.raises(ValueError):
        LearnerProfile(timeout_prob=-0.1)
    p = LearnerProfile(success_prob=0.4, improvement=0.3)
    assert p.attempt_success_prob(1) == pytest.approx(0.4)
    assert p.attempt_success_prob(3) == pytest.approx(1.0)


def test_lesson_invariants_over_random_learners():
    templates = default_templates()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        profile = LearnerProfile(success_prob=float(rng.uniform(0, 1)),
                                 improvement=float(rng.uniform(0, 0.5)),
                                 timeout_prob=float(rng.uniform(0, 0.3)),
                                 seed=seed)
        final = simulate_learner(PLAN, oracle_classifier, profile, templates)
        assert final.phase == Phase.COMPLETE
        for sc in PLAN.signs:
            events = [e for e in final.transcript if e.sign == sc.name]
            attempts = [e for e in events if e.kind == "attempt"]
            demos = [e for e in events if e.kind == "demo"]
            assert 1 <= len(attempts) <= PLAN.max_retries
            assert len(demos) == 2 * len(attempts)  # two demos per presentation
            flagged = sc.name in final.needs_review
            all_incorrect = all(a.verdict != "correct" for a in attempts)
            assert flagged == (len(attempts) == PLAN.max_retries and all_incorrect)
        assert replay(PLAN, final.transcript) == final
