from fractions import Fraction

import numpy as np
import pytest

from aslchamp import gesture, nn_ops, synth
from aslchamp.net import (
    ChampNet,
    ClassMismatch,
    DivergenceDetected,
    EmptyDataset,
    EncodedDataset,
    InvalidConfig,
    NetConfig,
    TrainConfig,
    build_network,
    encode_gesture_dataset,
    forward,
    infer,
    param_count,
    predict,
    train,
)
from aslchamp.net import _backward_full, _forward_full
from aslchamp.nn_ops import NonFiniteValue, ShapeMismatch, softmax_xent_batch

from conftest import make_sample, random_sample


TINY = NetConfig(t_max=40, feature_dim=12, scale_factor=Fraction(1, 32), n_classes=9)


def toy_dataset(n=60, t=40, d=12, n_classes=2, seed=3, sep=0.5, noise=0.05):
    rng = np.random.default_rng(seed)
    feats, ys = [], []
    for i in range(n):
        cls = i % n_classes
        base = sep if cls == 0 else -sep
        feats.append(base + noise * rng.standard_normal((t, d)))
        ys.append(cls)
    return EncodedDataset(features=feats, y=np.array(ys))


TOY_CFG = NetConfig(t_max=40, feature_dim=12, scale_factor=Fraction(1, 32),
                    n_classes=2, classes=("A", "B"), dropout_rate=0.0)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_scaled_widths_at_one_thirty_second():
    cfg = NetConfig(scale_factor=Fraction(1, 32))
    assert cfg.conv1_width == 16
    assert cfg.conv2_width == 8
    assert cfg.lstm1_width == 16
    assert cfg.lstm2_width == 8
    assert cfg.dense_widths == (16, 8, 4)


def test_full_scale_time_chain():
    cfg = NetConfig()
    assert cfg.pooled_len(1) == 324  # (651-3+1)=649 -> pool 2
    assert cfg.pooled_len(2) == 161  # 324 -> conv 322 -> pool 2
    assert cfg.flat_dim == 161 * 256


def test_config_validation():
    with pytest.raises(InvalidConfig):
        NetConfig(scale_factor=Fraction(3, 2))
    with pytest.raises(InvalidConfig):
        NetConfig(n_classes=1, classes=("A",))
    with pytest.raises(InvalidConfig):
        NetConfig(n_classes=3)  # classes length mismatch
    with pytest.raises(InvalidConfig):
        NetConfig(t_max=4)  # too short for two conv+pool stages
    with pytest.raises(InvalidConfig):
        NetConfig(dropout_rate=1.0)


def test_config_round_trips_through_obj():
    cfg = NetConfig(scale_factor=Fraction(1, 16), dtype="float32",
                    n_classes=2, classes=("COFFEE", "COFFEE_REVERSED"))
    assert NetConfig.from_obj(cfg.to_obj()) == cfg


def test_param_count_matches_hand_formula():
    cfg = TINY
    f1, f2 = cfg.conv1_width, cfg.conv2_width
    h1, h2 = cfg.lstm1_width, cfg.lstm2_width
    d1, d2, d3 = cfg.dense_widths
    flat = cfg.pooled_len(2) * h2
    expected = (
        f1 * 3 * cfg.feature_dim + f1
        + f2 * 3 * f1 + f2
        + 4 * (h1 * f2 + h1 * h1 + 2 * h1)
        + 4 * (h2 * h1 + h2 * h2 + 2 * h2)
        + flat * d1 + d1 + d1 * d2 + d2 + d2 * d3 + d3
        + d3 * cfg.n_classes + cfg.n_classes
    )
    assert param_count(cfg) == expected


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def test_build_is_deterministic_at_full_scale():
    cfg = NetConfig()  # published widths
    a = build_network(cfg, seed=1)
    b = build_network(cfg, seed=1)
    assert set(a.params) == set(b.params)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert param_count(cfg) == sum(p.size for p in a.params.values())


def test_build_seed_changes_weights():
    a = build_network(TINY, seed=1)
    b = build_network(TINY, seed=2)
    assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_output_layer_and_forget_bias_init():
    net = build_network(TINY, seed=0)
    assert not net.params["out/W"].any()
    assert not net.params["out/b"].any()
    h = TINY.lstm1_width
    b_x = net.params["lstm1/b_x"]
    assert np.all(b_x[h:2 * h] == 1.0)  # forget block
    assert not b_x[:h].any() and not b_x[2 * h:].any()
    assert not net.params["lstm1/b_h"].any()


def test_output_layer_has_n_classes_units():
    net = build_network(TINY, seed=0)
    assert net.params["out/W"].shape[1] == 9
    assert net.params["out/b"].shape == (9,)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_forward_rows_sum_to_one(rng):
    net = build_network(TINY, seed=4)
    x = rng.standard_normal((8, 40, 12))
    probs = forward(net, x)
    assert probs.shape == (8, 9)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_zero_input_untrained_is_exactly_uniform():
    net = build_network(TINY, seed=4)
    probs = forward(net, np.zeros((3, 40, 12)))
    assert np.all(probs == probs[0, 0])
    np.testing.assert_allclose(probs, 1.0 / 9.0, atol=1e-15)


def test_forward_infer_is_deterministic(rng):
    net = build_network(TINY, seed=4)
    x = rng.standard_normal((4, 40, 12))
    np.testing.assert_array_equal(forward(net, x), forward(net, x))


def test_forward_shape_mismatch(rng):
    net = build_network(TINY, seed=4)
    with pytest.raises(ShapeMismatch):
        forward(net, rng.standard_normal((2, 41, 12)))


def test_forward_refuses_an_empty_batch():
    net = build_network(TINY, seed=4)
    with pytest.raises(ShapeMismatch):
        forward(net, np.zeros((0, 40, 12)))


# ---------------------------------------------------------------------------
# End-to-end gradient check (scale 1/64)
# ---------------------------------------------------------------------------


def _batch_loss(net, x, y):
    """(loss, probs, cache, grad_logits) of the inference-mode batch loss."""
    logits, probs, cache = _forward_full(net, x, train=False, rng=None)
    loss, grad_logits = softmax_xent_batch(logits.astype(np.float64), y)
    return loss, probs, cache, grad_logits


def _worst_fd_error(net, x, y, eps=1e-5):
    """Worst relative error between the analytic parameter gradients and
    central differences, spot-checked at a dozen random coordinates per
    parameter group."""
    _, _, cache, grad_logits = _batch_loss(net, x, y)
    grads = _backward_full(net, cache, grad_logits)
    worst = 0.0
    sampler = np.random.default_rng(0)
    for key in sorted(net.params):
        arr = net.params[key]
        flat_idx = sampler.choice(arr.size, size=min(12, arr.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            f_plus = _batch_loss(net, x, y)[0]
            arr[idx] = orig - eps
            f_minus = _batch_loss(net, x, y)[0]
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            a = grads[key][idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


def test_end_to_end_parameter_gradients_match_finite_differences(rng):
    cfg = NetConfig(t_max=24, feature_dim=10, scale_factor=Fraction(1, 64),
                    n_classes=3, classes=("A", "B", "C"), dropout_rate=0.0)
    net = build_network(cfg, seed=9)
    # the zero-initialized output layer must see a nonzero gradient path
    net.params["out/W"] = 0.3 * rng.standard_normal(net.params["out/W"].shape)
    x = rng.standard_normal((1, cfg.t_max, cfg.feature_dim)) * 0.5
    assert _worst_fd_error(net, x, np.array([1])) < 1e-3


# ---------------------------------------------------------------------------
# Length-aware batches: rows past a batch's T count as zero
# ---------------------------------------------------------------------------


def ragged_dataset(lengths, feature_dim, seed=0):
    """One sample of n random rows per length n; a length -n stands for n
    all-zero rows, a capture with both hands absent."""
    rng = np.random.default_rng(seed)
    feats = [0.5 * rng.standard_normal((n, feature_dim)) if n >= 0 else np.zeros((-n, feature_dim))
             for n in lengths]
    return EncodedDataset(features=feats, y=np.arange(len(lengths)) % 3)


def length_cfg(dtype="float64", kernel_size=3, pool=2):
    return NetConfig(t_max=32, feature_dim=10, scale_factor=Fraction(1, 64), n_classes=3,
                     classes=("A", "B", "C"), dropout_rate=0.0, dtype=dtype,
                     kernel_size=kernel_size, pool=pool)


def drawn_head_network(cfg, seed=9):
    """A built network whose zero output layer is replaced by a drawn one,
    so every layer below it gets a gradient."""
    net = build_network(cfg, seed=seed)
    shape = net.params["out/W"].shape
    net.params["out/W"] = (0.3 * np.random.default_rng(seed).standard_normal(shape)
                           ).astype(cfg.np_dtype)
    return net


@pytest.mark.parametrize("lengths", [(1, 6, 11), (1, 11, 32)])
def test_end_to_end_gradients_on_a_ragged_padded_batch(lengths):
    # conv1 multiplies each sample's own rows, stage 2 reads stage 1 whole
    cfg = length_cfg()
    net = drawn_head_network(cfg)
    data = ragged_dataset(lengths, cfg.feature_dim)
    x = data.batch(range(3), cfg.t_max, cfg.np_dtype)
    assert [s.shape for s in x] == [(n, cfg.feature_dim) for n in lengths]
    assert _worst_fd_error(net, x, data.y) < 1e-3


@pytest.mark.parametrize("kernel_size, pool", [(3, 2), (5, 3), (2, 2), (3, 1)])
@pytest.mark.parametrize("lengths", [(9,), (1,), (1, 9, 16), (40, 4, 2),
                                     # t_max 32: the stage-shape test's batches
                                     (-12, 5), (30, 31, 32), (41, 3), (-12,)])
def test_trimmed_batch_equals_batch_padded_to_t_max(kernel_size, pool, lengths):
    for dtype in ("float32", "float64"):
        cfg = length_cfg(dtype, kernel_size, pool)
        net = drawn_head_network(cfg)
        data = ragged_dataset(lengths, cfg.feature_dim)
        x = data.batch(range(len(lengths)), cfg.t_max, cfg.np_dtype)
        assert [len(s) for s in x] == [min(cfg.t_max, abs(n)) for n in lengths]
        padded = zero_padded(x, cfg.t_max, cfg.np_dtype)
        _, probs, cache, grad_logits = _batch_loss(net, x, data.y)
        _, probs_padded, cache_padded, grad_logits_padded = _batch_loss(net, padded, data.y)
        np.testing.assert_array_equal(probs, probs_padded)
        np.testing.assert_array_equal(infer(net, [x]), forward(net, padded))
        if dtype == "float64":
            grads = _backward_full(net, cache, grad_logits)
            grads_padded = _backward_full(net, cache_padded, grad_logits_padded)
            for key, want in grads_padded.items():
                scale = max(float(np.abs(want).max()), 1e-300)
                assert float(np.abs(grads[key] - want).max()) <= 1e-12 * scale, key


@pytest.mark.parametrize("lengths, reach, stage2_rows", [
    ((-12, 20), 5, 12),  # an all-zero sample beside one of 20 frames
    ((649, 650, 651), 161, 324),  # up to t_max: the last pooled row's reach
    ((700, 3), 161, 324),  # longer than t_max: cut by batch()
    ((-12,), 0, 4),  # no frame at all: stage 2 still gives one row
])
def test_conv_stages_compute_only_the_rows_the_lstms_read(lengths, reach, stage2_rows):
    # t_max 651, k 3, pool 2: 324 pooled rows after stage 1, 161 after stage
    # 2; the longest reach R (1 if there is none) needs 2R + 2 rows of stage
    # 1, and those 2 * (2R + 2) + 2 input rows
    cfg = NetConfig(feature_dim=10, scale_factor=Fraction(1, 64), n_classes=3,
                    classes=("A", "B", "C"), dtype="float32")
    net = drawn_head_network(cfg)
    data = ragged_dataset(lengths, cfg.feature_dim)
    x = data.batch(range(len(lengths)), cfg.t_max, cfg.np_dtype)
    _, _, cache = _forward_full(net, x, train=False, rng=None)
    assert cache["off2"].shape[1] == max(reach, 1)  # pool2's rows
    assert cache["x2"].shape[1] == stage2_rows
    assert cache["t1"].shape[1] == 2 * stage2_rows
    input_rows = 2 * stage2_rows + 2
    assert [len(s) for s in cache["xs"]] == [min(n, input_rows) if n > 0 else 0 for n in lengths]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batch_is_views_of_the_samples_cut_at_t_max(dtype):
    cfg = length_cfg(dtype)
    lengths = (40, 4, 32, 1)
    data = ragged_dataset(lengths, cfg.feature_dim)
    data.features = [f.astype(cfg.np_dtype) for f in data.features]
    order = [2, 0, 3, 1]
    x = data.batch(order, cfg.t_max, cfg.np_dtype)
    assert [len(s) for s in x] == [min(lengths[i], cfg.t_max) for i in order]
    for s, i in zip(x, order):
        assert np.shares_memory(s, data.features[i])
        np.testing.assert_array_equal(s, data.features[i][:cfg.t_max])
    chunks = list(data.chunks(cfg.t_max, cfg.np_dtype, size=3))
    assert [len(c) for c in chunks] == [3, 1]
    for s, f in zip(chunks[0] + chunks[1], data.features):
        assert np.shares_memory(s, f) and len(s) == min(len(f), cfg.t_max)


def test_forward_accepts_any_length_up_to_t_max(rng):
    net = build_network(TINY, seed=4)
    for t in (1, 2, 17, 40):
        assert forward(net, rng.standard_normal((2, t, 12))).shape == (2, 9)
    with pytest.raises(ShapeMismatch):
        forward(net, np.zeros((2, 0, 12)))


def test_predict_equals_forward_on_the_zero_padded_sample(rng):
    cfg = NetConfig(t_max=40, scale_factor=Fraction(1, 32))
    net = drawn_head_network(cfg, seed=4)
    for n_frames in (15, 55):  # the second is truncated to t_max
        sample = random_sample(rng, n_frames=n_frames)
        m = gesture.encode_features(sample)
        want = forward(net, gesture.pad_or_truncate(m, cfg.t_max))[0]
        got = predict(net, sample).distribution
        assert len(set(got.tolist())) > 1
        np.testing.assert_array_equal(got, want)


def zero_padded(samples, t_max, dtype):
    """The (B, t_max, D) batch the ragged samples stand for."""
    out = np.zeros((len(samples), t_max, samples[0].shape[1]), dtype=dtype)
    for row, s in zip(out, samples):
        row[:len(s)] = s[:t_max]
    return out


@pytest.mark.parametrize("lengths", [(40, 4, 2), (1, 9, 16), (32, 32), (1,)])
@pytest.mark.parametrize("length", [32, 20])
def test_ragged_conv1_equals_conv1d_on_the_zero_padded_batch(lengths, length):
    # the samples are batch() views, a sample of 40 rows cut at t_max = 32
    for dtype in ("float32", "float64"):
        cfg = length_cfg(dtype)
        data = ragged_dataset(lengths, cfg.feature_dim, seed=len(lengths))
        xs = [s[:length] for s in data.batch(range(len(lengths)), cfg.t_max, cfg.np_dtype)]
        padded = zero_padded(xs, length, cfg.np_dtype)
        rng = np.random.default_rng(1)
        kernels = rng.standard_normal((7, 3, cfg.feature_dim)).astype(cfg.np_dtype)
        bias = rng.standard_normal(7).astype(cfg.np_dtype)
        got = nn_ops.conv1d_ragged_forward(xs, kernels, bias, length)
        want = nn_ops.conv1d_forward(padded, kernels, bias)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        if dtype == "float64":
            g = rng.standard_normal(want.shape)
            grad_k, grad_b = nn_ops.conv1d_ragged_backward(xs, kernels, g)
            _, want_k, want_b = nn_ops.conv1d_backward(padded, kernels, g)
            assert float(np.abs(grad_k - want_k).max()) <= 1e-12 * float(np.abs(want_k).max())
            np.testing.assert_array_equal(grad_b, want_b)


def test_ragged_conv1_refuses_inconsistent_samples():
    kernels, bias = np.zeros((4, 3, 5)), np.zeros(4)
    for xs, length in (([np.zeros((9, 5))], 8), ([np.zeros((4, 6))], 8),
                       ([np.zeros(5)], 8), ([], 8), ([np.zeros((2, 5))], 2)):
        with pytest.raises(ShapeMismatch):
            nn_ops.conv1d_ragged_forward(xs, kernels, bias, length)
    with pytest.raises(ShapeMismatch):
        nn_ops.conv1d_ragged_backward([np.zeros((4, 5))], kernels, np.zeros((2, 6, 4)))


def desk_samples():
    """Synthetic captures of 73, 180 and (at 180 Hz) 915 frames, the last
    longer than t_max = 651."""
    out = []
    for k, (duration, rate) in enumerate(((1.0, 72.0), (3.0, 72.0), (6.0, 180.0))):
        spec = synth.DatasetSpec(classes=("COFFEE", "TEA"), signers=1,
                                 repetitions_per_class=1, duration_s=duration,
                                 frame_rate_hz=rate, master_seed=30 + k)
        out += synth.generate_dataset(spec).samples
    return out


@pytest.mark.parametrize("scale, dtype", [(Fraction(1, 16), "float32"),
                                          (Fraction(1, 16), "float64"),
                                          (Fraction(1), "float32")])
def test_predict_and_chunked_infer_equal_the_zero_padded_batch(scale, dtype):
    # the acceptance config and the published widths: a ragged batch gives
    # the probabilities of the (B, t_max, D) batch bit for bit
    cfg = NetConfig(scale_factor=scale, dtype=dtype)
    net = drawn_head_network(cfg, seed=5)
    samples = desk_samples()
    data = encode_gesture_dataset(gesture.GestureDataset(samples=samples), cfg)
    assert max(len(f) for f in data.features) > cfg.t_max
    padded = zero_padded(data.features, cfg.t_max, cfg.np_dtype)
    want = forward(net, padded)
    assert len(set(want[0].tolist())) > 1
    np.testing.assert_array_equal(infer(net, data.chunks(cfg.t_max, cfg.np_dtype, 4)), want)
    for i, sample in enumerate(samples):  # B = 1 sums in other orders than B = 6
        np.testing.assert_array_equal(predict(net, sample).distribution,
                                      forward(net, padded[i])[0])


def reach_cfg():
    """t_max 64: 14 pooled rows; 8 frames reach 2 of them, 24 frames 6."""
    return NetConfig(t_max=64, feature_dim=10, scale_factor=Fraction(1, 64), n_classes=3,
                     classes=("A", "B", "C"), dropout_rate=0.0)


def test_a_sample_alone_equals_itself_beside_a_three_times_longer_one():
    cfg = reach_cfg()
    net = drawn_head_network(cfg)
    short, long = ragged_dataset((20, 60), cfg.feature_dim).features
    alone = infer(net, [[short]])[0]
    assert len(set(alone.tolist())) > 1
    np.testing.assert_allclose(infer(net, [[short, long]])[0], alone, rtol=0, atol=1e-12)
    np.testing.assert_allclose(infer(net, [[long, short]])[1], alone, rtol=0, atol=1e-12)


def test_lstm_outputs_past_a_samples_reach_are_zero():
    # so the dense1 rows that read them do not change its probabilities
    cfg = reach_cfg()
    net = drawn_head_network(cfg)
    x = ragged_dataset((8, 24), cfg.feature_dim).features
    want = infer(net, [x])
    w = net.params["dense1/W"]
    w[6 * cfg.lstm2_width:] = np.random.default_rng(1).standard_normal(w[6 * cfg.lstm2_width:].shape)
    np.testing.assert_array_equal(infer(net, [x]), want)
    w[2 * cfg.lstm2_width:] = 0.0
    np.testing.assert_array_equal(infer(net, [x[:1]]), want[:1])


def test_dense1_reads_no_row_past_the_longest_reach():
    # the LSTM outputs there are zero, and 0 * NaN is NaN: the dense1/W rows
    # past the batch's longest reach must not be read, nor get a gradient
    cfg = NetConfig(scale_factor=Fraction(1, 16), dtype="float32")
    net = drawn_head_network(cfg, seed=5)
    samples = desk_samples()[:4]  # 73 and 242 frames: they reach 19 and 61 pooled rows
    data = encode_gesture_dataset(gesture.GestureDataset(samples=samples), cfg)
    x = data.batch(range(len(data)), cfg.t_max, cfg.np_dtype)
    assert [len(s) for s in x] == [73, 73, 242, 242]
    w = net.params["dense1/W"]
    clean = w.copy()
    for reach, run in ((19, lambda: predict(net, samples[0]).distribution),
                       (61, lambda: infer(net, [x]))):
        w[:] = clean
        want = run()
        w[reach * cfg.lstm2_width:] = np.nan
        np.testing.assert_array_equal(run(), want)
    w[:] = clean
    _, _, cache, grad_logits = _batch_loss(net, x, data.y)
    grad = _backward_full(net, cache, grad_logits)["dense1/W"]
    assert grad[60 * cfg.lstm2_width:61 * cfg.lstm2_width].any()
    assert not grad[61 * cfg.lstm2_width:].any()


def test_predict_ignores_absent_hand_frames_appended(rng):
    cfg = NetConfig(t_max=120, scale_factor=Fraction(1, 32))
    net = drawn_head_network(cfg, seed=4)
    sample = random_sample(rng, n_frames=30)
    extra = 25
    n = 30 + extra

    def extended(values):
        return np.concatenate([values, np.zeros((extra,) + values.shape[1:], values.dtype)])

    padded = gesture.GestureSample(
        label=sample.label, timestamps=np.arange(n) / 60.0,
        locations=extended(sample.locations), rotations=extended(sample.rotations),
        hand_rotation=extended(sample.hand_rotation), present=extended(sample.present),
        signer_id=sample.signer_id, handedness=sample.handedness, duration_s=(n - 1) / 60.0)
    assert not gesture.encode_features(padded)[30:].any()
    want = predict(net, sample).distribution
    assert len(set(want.tolist())) > 1
    np.testing.assert_array_equal(predict(net, padded).distribution, want)


def test_end_to_end_gradients_with_an_all_zero_and_an_early_ending_sample():
    # the 8-frame sample ends 12 pooled rows before the 64-frame one
    cfg = reach_cfg()
    net = drawn_head_network(cfg)
    data = ragged_dataset((20, 8, 64), cfg.feature_dim)
    data.features[0][:] = 0.0
    x = data.batch(range(3), cfg.t_max, cfg.np_dtype)
    assert _worst_fd_error(net, x, data.y) < 1e-3


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_toy_training_reaches_full_accuracy():
    net = build_network(TOY_CFG, seed=1)
    data = toy_dataset()
    tc = TrainConfig(epochs=50, batch_size=60, shuffle_seed=0)
    trained, report, _ = train(net, data, None, tc)
    assert report.train_accuracy[-1] == 1.0
    assert report.epochs_run == 50
    assert report.nonmonotone_epochs == []


def test_training_is_deterministic():
    data = toy_dataset()
    curves = []
    for _ in range(2):
        net = build_network(TOY_CFG, seed=1)
        _, report, _ = train(net, data, None,
                             TrainConfig(epochs=5, batch_size=16, shuffle_seed=9))
        curves.append(report.train_loss)
    assert curves[0] == curves[1]


def test_epochs_zero_rejected():
    with pytest.raises(InvalidConfig):
        TrainConfig(epochs=0)


def test_empty_dataset_rejected():
    net = build_network(TOY_CFG, seed=1)
    empty = EncodedDataset(features=[], y=np.zeros(0, dtype=int))
    with pytest.raises(EmptyDataset):
        train(net, empty, None, TrainConfig(epochs=1))


def test_targets_out_of_range_rejected():
    net = build_network(TOY_CFG, seed=1)
    data = toy_dataset()
    data.y[0] = 7
    with pytest.raises(ClassMismatch):
        train(net, data, None, TrainConfig(epochs=1))


def test_divergence_detected_keeps_last_good_net():
    net = build_network(TOY_CFG, seed=1)
    data = toy_dataset()
    data.features[3][:] = np.nan  # a poisoned sample turns the loss non-finite
    tc = TrainConfig(epochs=50, batch_size=60, shuffle_seed=0)
    with pytest.raises(DivergenceDetected) as exc_info:
        train(net, data, None, tc)
    recovered = exc_info.value.net
    assert recovered is not None
    assert all(np.isfinite(p).all() for p in recovered.params.values())
    for key in net.params:  # diverged in epoch 1, so last good = initial
        np.testing.assert_array_equal(recovered.params[key], net.params[key])


def test_training_resumes_exactly():
    data = toy_dataset()
    tc_full = TrainConfig(epochs=8, batch_size=16, shuffle_seed=5)
    net = build_network(TOY_CFG, seed=2)
    full, full_report, _ = train(net, data, None, tc_full)

    tc_half = TrainConfig(epochs=4, batch_size=16, shuffle_seed=5)
    net = build_network(TOY_CFG, seed=2)
    half, half_report, state = train(net, data, None, tc_half)
    resumed, resumed_report, _ = train(half, data, None, tc_half, resume=state)

    assert resumed_report.start_epoch == 4
    assert half_report.train_loss + resumed_report.train_loss == full_report.train_loss
    for key in full.params:
        np.testing.assert_array_equal(full.params[key], resumed.params[key])


def test_validation_metrics_and_early_stop():
    data = toy_dataset(n=40)
    val = toy_dataset(n=12, seed=8)
    val.y = 1 - val.y  # labels flipped: val loss must rise as training fits
    net = build_network(TOY_CFG, seed=1)
    tc = TrainConfig(epochs=200, batch_size=40, shuffle_seed=0, early_stop_patience=3)
    _, report, _ = train(net, data, val, tc)
    assert report.epochs_run < 200  # stopped early
    assert all(v is not None for v in report.val_loss)


# ---------------------------------------------------------------------------
# Prediction and dataset encoding
# ---------------------------------------------------------------------------


def test_predict_untrained_is_uniform_with_lowest_code_argmax():
    cfg = NetConfig(t_max=40, scale_factor=Fraction(1, 32))
    net = build_network(cfg, seed=0)
    sample = make_sample(n_frames=10)
    pred = predict(net, sample)
    assert pred.label == gesture.COFFEE  # tie broken toward class code 0
    assert pred.confidence == 1.0 / 9.0
    np.testing.assert_allclose(pred.distribution.sum(), 1.0, atol=1e-12)


def test_predict_rejects_invalid_sample():
    import dataclasses
    cfg = NetConfig(t_max=40, scale_factor=Fraction(1, 32))
    net = build_network(cfg, seed=0)
    bad = dataclasses.replace(make_sample(), duration_s=55.0)
    with pytest.raises(gesture.InvalidSample):
        predict(net, bad)


def test_encode_gesture_dataset_maps_labels_and_rejects_unknown():
    from aslchamp.gesture import GestureDataset
    ds = GestureDataset(samples=(make_sample(label=gesture.MILK),
                                 make_sample(label=gesture.TEA)))
    cfg = NetConfig(t_max=40, scale_factor=Fraction(1, 32))
    enc = encode_gesture_dataset(ds, cfg)
    assert enc.y.tolist() == [gesture.MILK.code, gesture.TEA.code]

    two_class = NetConfig(t_max=40, scale_factor=Fraction(1, 32), n_classes=2,
                          classes=("COFFEE", "TEA"))
    with pytest.raises(ClassMismatch):
        encode_gesture_dataset(ds, two_class)


def test_sample_paths_refuse_a_feature_dim_other_than_306(rng):
    from aslchamp.gesture import GestureDataset
    sample = random_sample(rng)
    with pytest.raises(InvalidConfig):
        predict(build_network(TINY, seed=0), sample)  # feature_dim 12
    with pytest.raises(InvalidConfig):
        encode_gesture_dataset(GestureDataset(samples=(sample,)), TINY)
