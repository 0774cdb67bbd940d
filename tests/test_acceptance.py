"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy fixtures (synthetic corpus, desk-scale training run) are module
scoped and shared.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from aslchamp import gesture, nn_ops as ops, synth
from aslchamp import net as netmod
from aslchamp.checkpoint import ChecksumMismatch, load_checkpoint, save_checkpoint
from aslchamp.evaluation import SplitSpec, confusion_from_predictions, split_dataset
from aslchamp.lesson import (
    LearnerProfile,
    LessonPlan,
    Phase,
    replay,
    simulate_learner,
)
from aslchamp.nn_ops import LSTMCellParams

from test_nn_ops import conv_oracle, lstm_cell_oracle, random_lstm_params


def report_line(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """9 classes x 15 signers x 20 reps, default variability, seed 42."""
    spec = synth.DatasetSpec(master_seed=42)
    assert (len(spec.classes), spec.signers, spec.repetitions_per_class) == (9, 15, 20)
    ds = synth.generate_dataset(spec)
    assert len(ds.samples) == 2700
    return ds


@pytest.fixture(scope="module")
def desk_run(corpus):
    """Per-signer split + scale-1/16 training; shared by several criteria."""
    cfg = netmod.NetConfig(scale_factor=Fraction(1, 16), dtype="float32")
    train_ds, val_ds, test_ds = split_dataset(corpus, SplitSpec(unit="signer", seed=42))
    enc_train = netmod.encode_gesture_dataset(train_ds, cfg)
    enc_val = netmod.encode_gesture_dataset(val_ds, cfg)
    enc_test = netmod.encode_gesture_dataset(test_ds, cfg)

    t0 = time.perf_counter()
    net = netmod.build_network(cfg, seed=42)
    tc = netmod.TrainConfig(epochs=60, batch_size=128, learning_rate=2e-3,
                            shuffle_seed=42)
    trained, train_report, _ = netmod.train(net, enc_train, enc_val, tc)
    elapsed = time.perf_counter() - t0

    x = enc_test.batch(range(len(enc_test)), cfg.t_max, cfg.np_dtype)
    _, probs, _ = netmod._forward_full(trained, x, train=False, rng=None)
    metrics = confusion_from_predictions(enc_test.y, probs.argmax(axis=1), cfg.classes)
    return {
        "cfg": cfg, "net": trained, "report": train_report,
        "test_metrics": metrics, "train_seconds": elapsed,
        "epochs": tc.epochs,
    }


# ---------------------------------------------------------------------------
# 1. Desk-scale accuracy
# ---------------------------------------------------------------------------


def test_desk_scale_accuracy(desk_run):
    acc = desk_run["test_metrics"].accuracy
    minutes = desk_run["train_seconds"] / 60.0
    ok = acc >= 0.90 and minutes <= 30.0
    report_line("desk-scale-accuracy", ok,
                f"test acc {acc:.4f} >= 0.90 after {desk_run['epochs']} epochs "
                f"(<= 200) in {minutes:.1f} min (<= 30)")
    assert desk_run["epochs"] <= 200
    assert minutes <= 30.0
    assert acc >= 0.90


# ---------------------------------------------------------------------------
# 2. Gradient suite
# ---------------------------------------------------------------------------


def _conv_case(rng):
    t, k, d, f = (int(rng.integers(4, 10)), int(rng.integers(1, 4)),
                  int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    x = rng.standard_normal((t, d))
    kernels = rng.standard_normal((f, k, d))
    bias = rng.standard_normal(f)
    proj = rng.standard_normal((t - k + 1, f))

    def loss(x_, k_, b_):
        return float(np.sum(proj * ops.conv1d_forward(x_[None], k_, b_)[0]))

    gx, gk, gb = ops.conv1d_backward(x[None], kernels, proj[None])
    return loss, [x, kernels, bias], [gx[0], gk, gb]


def _dense_case(rng):
    activation = "tanh" if rng.integers(2) else None
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((3, 3))

    def loss(x_, w_, b_):
        out, _ = ops.dense_forward(x_[:, None], w_, b_, activation=activation)
        return float(np.sum(proj * out))

    _, cache = ops.dense_forward(x[:, None], w, b, activation=activation)
    gx, gw, gb = ops.dense_backward(cache, proj)
    return loss, [x, w, b], [gx[:, 0], gw, gb]


def _lstm_case(rng):
    t, d, h = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    params = random_lstm_params(rng, d, h, scale=0.5)
    x = rng.standard_normal((t, d))
    proj = rng.standard_normal((t, h))
    _, cache = ops.lstm_sequence(x, params, [t])
    gx, gparams, _, _ = ops.lstm_sequence_backward(cache, params, proj)
    names = sorted(vars(params))

    def loss(x_, *arrs):
        h_, _ = ops.lstm_sequence(x_, params, [t])
        return float(np.sum(proj * h_))

    inputs = [x] + [getattr(params, n) for n in names]
    analytic = [gx] + [gparams[n] for n in names]
    return loss, inputs, analytic


def _tanh_case(rng):
    x = rng.standard_normal(6)
    proj = rng.standard_normal(6)

    def loss(x_):
        return float(np.sum(proj * np.tanh(x_)))

    y = np.tanh(x)
    return loss, [x], [ops.tanh_backward(y, proj)]


def _xent_case(rng):
    k = int(rng.integers(2, 8))
    logits = rng.standard_normal(k)
    target = int(rng.integers(0, k))

    def loss(z):
        return ops.softmax_xent_batch(z[None], [target])[0]

    grad = ops.softmax_xent_batch(logits[None], [target])[1][0]
    return loss, [logits], [grad]


def _pool_case(rng):
    t, f = int(rng.integers(4, 10)), int(rng.integers(1, 4))
    x = rng.standard_normal((t, f)) * 2  # spread values so eps cannot flip argmax
    window = 2
    out, arg = ops.maxpool1d_forward(x[None], window)
    proj = rng.standard_normal(out.shape)

    def loss(x_):
        o, _ = ops.maxpool1d_forward(x_[None], window)
        return float(np.sum(proj * o))

    return loss, [x], [ops.maxpool1d_backward(proj, arg, t, window)[0]]


def test_gradient_suite():
    t0 = time.perf_counter()
    cases = {"conv1d": _conv_case, "dense": _dense_case, "lstm_sequence": _lstm_case,
             "tanh": _tanh_case, "softmax_xent": _xent_case, "maxpool": _pool_case}
    worst = {}
    for name, make in cases.items():
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            loss, inputs, analytic = make(rng)
            errs.append(ops.grad_check(loss, inputs, analytic, eps=1e-5))
        worst[name] = max(errs)

    # end-to-end parameter gradient at scale 1/64
    cfg = netmod.NetConfig(t_max=24, feature_dim=12, scale_factor=Fraction(1, 64),
                           n_classes=3, classes=("A", "B", "C"), dropout_rate=0.0)
    rng = np.random.default_rng(7)
    net = netmod.build_network(cfg, seed=7)
    net.params["out/W"] = 0.3 * rng.standard_normal(net.params["out/W"].shape)
    x = rng.standard_normal((1, cfg.t_max, cfg.feature_dim)) * 0.5
    target = np.array([2])
    logits, _, cache = netmod._forward_full(net, x, train=False, rng=None)
    _, grad_logits = ops.softmax_xent_batch(logits.astype(np.float64), target)
    grads = netmod._backward_full(net, cache, grad_logits)

    def net_loss():
        lg, _, _ = netmod._forward_full(net, x, train=False, rng=None)
        loss, _ = ops.softmax_xent_batch(lg.astype(np.float64), target)
        return loss

    shared = 0.0
    sampler = np.random.default_rng(0)
    for key in sorted(net.params):
        arr = net.params[key]
        for flat in sampler.choice(arr.size, size=min(10, arr.size), replace=False):
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + 1e-5
            fp = net_loss()
            arr[idx] = orig - 1e-5
            fm = net_loss()
            arr[idx] = orig
            numeric = (fp - fm) / 2e-5
            a = grads[key][idx]
            shared = max(shared, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))

    elapsed = time.perf_counter() - t0
    unit_worst = max(worst.values())
    ok = unit_worst < 1e-6 and shared < 1e-3 and elapsed <= 300
    report_line("gradient-suite", ok,
                f"unit worst {unit_worst:.2e} < 1e-6 over 20 seeds/op, "
                f"end-to-end {shared:.2e} < 1e-3, {elapsed:.0f}s <= 300s")
    assert unit_worst < 1e-6, worst
    assert shared < 1e-3
    assert elapsed <= 300


# ---------------------------------------------------------------------------
# 3. Oracle equivalence
# ---------------------------------------------------------------------------


def test_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_lstm = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))  # hidden <= 8
        params = random_lstm_params(rng, d, h)
        x = rng.standard_normal(d)
        h_prev = rng.standard_normal(h)
        c_prev = rng.standard_normal(h)
        got_h, got_c, _ = ops.lstm_cell(x, h_prev, c_prev, params)
        ref_h, ref_c = lstm_cell_oracle(x, h_prev, c_prev, params)
        worst_lstm = max(worst_lstm, float(np.abs(got_h - ref_h).max()),
                         float(np.abs(got_c - ref_c).max()))

    conv_exact = 0
    for _ in range(100):
        t = int(rng.integers(2, 33))  # T <= 32
        k = int(rng.integers(1, min(t, 4) + 1))
        d = int(rng.integers(1, 6))
        f = int(rng.integers(1, 6))
        # integer-valued doubles: products and sums are exact, so the
        # comparison is independent of summation order
        x = rng.integers(-8, 9, size=(t, d)).astype(float)
        kernels = rng.integers(-8, 9, size=(f, k, d)).astype(float)
        bias = rng.integers(-8, 9, size=f).astype(float)
        if np.array_equal(ops.conv1d_forward(x[None], kernels, bias)[0],
                          conv_oracle(x, kernels, bias)):
            conv_exact += 1

    ok = worst_lstm <= 1e-12 and conv_exact == 100
    report_line("oracle-equivalence", ok,
                f"lstm cell max |diff| {worst_lstm:.2e} <= 1e-12 over 100 cases; "
                f"conv exact matches {conv_exact}/100")
    assert worst_lstm <= 1e-12
    assert conv_exact == 100


# ---------------------------------------------------------------------------
# 4. Softmax normalization (unit and network level)
# ---------------------------------------------------------------------------


def test_softmax_normalization():
    rng = np.random.default_rng(5)
    worst_unit = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 16))
        z = rng.standard_normal(k) * float(rng.uniform(0.1, 50))
        worst_unit = max(worst_unit, abs(float(ops.softmax(z).sum()) - 1.0))

    cfg = netmod.NetConfig(t_max=24, feature_dim=8, scale_factor=Fraction(1, 64))
    net = netmod.build_network(cfg, seed=3)
    net.params["out/W"] = rng.standard_normal(net.params["out/W"].shape)
    net.params["out/b"] = rng.standard_normal(net.params["out/b"].shape)
    worst_net = 0.0
    for start in range(0, 1000, 100):
        x = rng.standard_normal((100, 24, 8))
        probs = netmod.forward(net, x)
        worst_net = max(worst_net, float(np.abs(probs.sum(axis=1) - 1.0).max()))

    ok = worst_unit < 1e-12 and worst_net < 1e-9
    report_line("softmax-normalization", ok,
                f"unit {worst_unit:.2e} < 1e-12 (1000 inputs), "
                f"network rows {worst_net:.2e} < 1e-9 (1000 inputs)")
    assert worst_unit < 1e-12
    assert worst_net < 1e-9


# ---------------------------------------------------------------------------
# 5. Direction sensitivity
# ---------------------------------------------------------------------------


def test_direction_sensitivity():
    spec = synth.DatasetSpec(classes=("COFFEE", "COFFEE_REVERSED"),
                             master_seed=4242,
                             noise_std_m=0.0, offset_std_m=0.0,
                             speed_range=(1.0, 1.0))  # only default jitter
    assert spec.orientation_jitter_deg == 5.0
    ds = synth.generate_dataset(spec)
    cfg = netmod.NetConfig(scale_factor=Fraction(1, 16), dtype="float32",
                           n_classes=2, classes=("COFFEE", "COFFEE_REVERSED"))
    train_ds, val_ds, test_ds = split_dataset(ds, SplitSpec(unit="signer", seed=7))
    enc_train = netmod.encode_gesture_dataset(train_ds, cfg)
    enc_test = netmod.encode_gesture_dataset(test_ds, cfg)

    net = netmod.build_network(cfg, seed=1)
    epochs = 25
    tc = netmod.TrainConfig(epochs=epochs, batch_size=128, learning_rate=2e-3,
                            shuffle_seed=1)
    trained, _, _ = netmod.train(net, enc_train, None, tc)
    x = enc_test.batch(range(len(enc_test)), cfg.t_max, cfg.np_dtype)
    _, probs, _ = netmod._forward_full(trained, x, train=False, rng=None)
    acc = float((probs.argmax(axis=1) == enc_test.y).mean())
    ok = acc >= 0.95 and epochs <= 100
    report_line("direction-sensitivity", ok,
                f"COFFEE vs COFFEE_REVERSED test acc {acc:.4f} >= 0.95 "
                f"after {epochs} epochs (<= 100)")
    assert acc >= 0.95


# ---------------------------------------------------------------------------
# 6. Dropout statistics
# ---------------------------------------------------------------------------


def test_dropout_statistics():
    rng = np.random.default_rng(99)
    x = rng.standard_normal(200_000) + 5.0
    out, mask = ops.dropout_forward(x, 0.6, "train", rng)
    zero_fraction = float((out == 0.0).mean())
    survivors_exact = bool(np.all(out[mask] == x[mask] * 2.5))
    identity, _ = ops.dropout_forward(x, 0.6, "infer")
    ok = (abs(zero_fraction - 0.6) < 0.02 and survivors_exact
          and identity is x and 1.0 / (1.0 - 0.6) == 2.5)
    report_line("dropout-statistics", ok,
                f"zero fraction {zero_fraction:.4f} in 0.6 +- 0.02 over 2e5 elements, "
                f"survivor scale exactly 2.5: {survivors_exact}, inference identity")
    assert abs(zero_fraction - 0.6) < 0.02
    assert survivors_exact
    assert identity is x


# ---------------------------------------------------------------------------
# 7. Loss floors
# ---------------------------------------------------------------------------


def test_loss_floors():
    uniform = np.zeros((1, 9))  # logits of the uniform distribution
    loss, _ = ops.softmax_xent_batch(uniform, [0])
    ln9 = math.log(9.0)

    cfg = netmod.NetConfig(t_max=24, feature_dim=8, scale_factor=Fraction(1, 64))
    net = netmod.build_network(cfg, seed=0)  # output layer zero-initialized
    probs = netmod.forward(net, np.random.default_rng(1).standard_normal((16, 24, 8)))
    exactly_uniform = bool(np.all(probs == probs[0, 0]))

    ok = abs(loss - ln9) < 1e-9 and exactly_uniform
    report_line("loss-floors", ok,
                f"uniform 9-class CE {loss:.9f} vs ln 9 {ln9:.9f} (|diff| < 1e-9), "
                f"untrained net exactly uniform: {exactly_uniform}")
    assert abs(loss - ln9) < 1e-9
    assert exactly_uniform
    assert abs(float(probs[0, 0]) - 1.0 / 9.0) < 1e-15


# ---------------------------------------------------------------------------
# 8. Checkpoint integrity
# ---------------------------------------------------------------------------


def test_checkpoint_integrity(tmp_path):
    rng = np.random.default_rng(21)
    cfg = netmod.NetConfig(t_max=24, feature_dim=8, scale_factor=Fraction(1, 64))
    net = netmod.build_network(cfg, seed=21)
    for key in ("out/W", "out/b"):
        net.params[key] = rng.standard_normal(net.params[key].shape)

    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    x = rng.standard_normal((1000, 24, 8))
    before = netmod.forward(net, x).argmax(axis=1)
    after = netmod.forward(loaded, x).argmax(axis=1)
    argmax_preserved = bool(np.array_equal(before, after))

    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x40  # corrupt the payload
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
        corruption_detected = False
    except ChecksumMismatch:
        corruption_detected = True

    ok = argmax_preserved and corruption_detected
    report_line("checkpoint-integrity", ok,
                f"argmax preserved on 1000 inputs: {argmax_preserved}, "
                f"corruption detected: {corruption_detected}")
    assert argmax_preserved
    assert corruption_detected


# ---------------------------------------------------------------------------
# 9. Lesson-engine properties over 1000 simulated learners
# ---------------------------------------------------------------------------


def test_lesson_properties_over_1000_learners():
    templates = synth.default_templates()
    plan = LessonPlan(signs=(gesture.MILK, gesture.TEA, gesture.COFFEE))

    def oracle_classifier(sample):
        return sample.label.name, 1.0

    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        profile = LearnerProfile(success_prob=float(rng.uniform(0, 1)),
                                 improvement=float(rng.uniform(0, 0.5)),
                                 timeout_prob=float(rng.uniform(0, 0.4)),
                                 seed=seed)
        final = simulate_learner(plan, oracle_classifier, profile, templates)
        assert final.phase == Phase.COMPLETE
        for sc in plan.signs:
            events = [e for e in final.transcript if e.sign == sc.name]
            attempts = [e for e in events if e.kind == "attempt"]
            demos = [e for e in events if e.kind == "demo"]
            assert 1 <= len(attempts) <= plan.max_retries
            assert len(demos) == 2 * len(attempts)
            flagged = sc.name in final.needs_review
            all_incorrect = all(a.verdict != "correct" for a in attempts)
            assert flagged == (len(attempts) == plan.max_retries and all_incorrect)
        assert replay(plan, final.transcript) == final
        checked += 1

    report_line("lesson-properties", checked == 1000,
                f"{checked}/1000 random learners: demos=2/presentation, "
                f"attempts in [1,3], needs_review iff 3 incorrect, replay exact")
    assert checked == 1000


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------


def test_cli_determinism(tmp_path):
    def run(*args):
        cmd = [sys.executable, "-m", "aslchamp.cli", "--threads", "1", *map(str, args)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = []
    for tag in ("a", "b"):
        data = tmp_path / f"{tag}.jsonl"
        ckpt = tmp_path / f"{tag}.ckpt"
        rep = tmp_path / f"{tag}.json"
        transcript = tmp_path / f"{tag}-tr.jsonl"
        run("--seed", "27", "gen-data", "--classes", "COFFEE", "TEA", "MILK",
            "--signers", "4", "--reps", "2", "--duration", "1.5", "--out", data)
        run("--seed", "27", "train", "--data", data, "--ckpt", ckpt, "--report", rep,
            "--epochs", "2", "--scale", "1/64", "--t-max", "120",
            "--batch-size", "8", "--split-unit", "sample")
        run("--seed", "27", "lesson-sim", "--ckpt", ckpt, "--signs", "MILK", "TEA",
            "COFFEE", "--success-prob", "0.5", "--out", transcript)
        outputs.append(tuple(p.read_bytes() for p in (data, ckpt, rep, transcript)))

    identical = all(a == b for a, b in zip(outputs[0], outputs[1]))
    report_line("cli-determinism", identical,
                "dataset, checkpoint, report, transcript byte-identical across "
                "two seeded --threads 1 runs")
    assert identical
