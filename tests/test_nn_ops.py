"""Layer primitives against brute-force oracles and finite differences."""

import math

import numpy as np
import pytest

from aslchamp import nn_ops as ops
from aslchamp.nn_ops import (
    AdamState,
    IndexOutOfRange,
    LSTMCellParams,
    NonFiniteValue,
    ShapeMismatch,
    adam_step,
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    cross_entropy_grad_logits,
    dense_backward,
    dense_forward,
    dense_rows_backward,
    dense_rows_forward,
    dropout_backward,
    dropout_forward,
    grad_check,
    lstm_cell,
    lstm_sequence,
    lstm_sequence_backward,
    maxpool1d_backward,
    maxpool1d_forward,
    sigmoid,
    softmax,
    softmax_xent_batch,
    tanh_backward,
    tanh_forward,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def conv_oracle(x, kernels, bias):
    """Direct summation with pure-Python floats, a-major then d order."""
    f_count, k, d_in = kernels.shape
    t_out = x.shape[0] - k + 1
    out = np.zeros((t_out, f_count))
    for t in range(t_out):
        for f in range(f_count):
            acc = float(bias[f])
            for a in range(k):
                for d in range(d_in):
                    acc += float(x[t + a, d]) * float(kernels[f, a, d])
            out[t, f] = acc
    return out


def pool_oracle(x, window):
    """Non-overlapping windows, rows past the last whole window dropped;
    returns the maxima and each one's offset in its window."""
    t, f_count = x.shape
    t_out = t // window
    out = np.empty((t_out, f_count))
    arg = np.empty((t_out, f_count), dtype=int)
    for i in range(t_out):
        for f in range(f_count):
            best = -math.inf
            best_idx = -1
            for w in range(window):
                v = x[i * window + w, f]
                if v > best:  # strict: first index wins ties
                    best = v
                    best_idx = w
            out[i, f] = best
            arg[i, f] = best_idx
    return out, arg


def lstm_cell_oracle(x_t, h_prev, c_prev, params):
    """Scalar-loop implementation of the gate equations; gate k reads column
    block k of W_x, b_x and b_h and block k of the gate-major W_h."""
    h_size = params.W_h.shape[-1]
    d = params.W_x.shape[0]

    def gate(k, row, squash):
        j = k * h_size + row
        acc = float(params.b_x[j]) + float(params.b_h[j])
        for col in range(d):
            acc += float(params.W_x[col, j]) * float(x_t[col])
        for col in range(h_size):
            acc += float(params.W_h[k, col, row]) * float(h_prev[col])
        return squash(acc)

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))

    h_out = np.empty(h_size)
    c_out = np.empty(h_size)
    for r in range(h_size):
        i = gate(0, r, sig)
        f = gate(1, r, sig)
        g = gate(2, r, math.tanh)
        o = gate(3, r, sig)
        c_out[r] = f * float(c_prev[r]) + i * g
        h_out[r] = o * math.tanh(c_out[r])
    return h_out, c_out


def random_lstm_params(rng, d, h, scale=0.5) -> LSTMCellParams:
    """Draws per gate (i, f, g, o) an input matrix (h, d) each, then a
    recurrent matrix (h, h) each, then the two bias vectors (h,) each; packs
    the input matrices and biases into their fused column blocks and
    stacks the recurrent ones, transposed, gate-major."""
    shapes = {"W_x": (h, d), "W_h": (h, h), "b_x": (h,), "b_h": (h,)}
    drawn = {name: [rng.standard_normal(shape) * scale for _ in LSTMCellParams.GATE_ORDER]
             for name, shape in shapes.items()}
    return LSTMCellParams(
        W_x=np.ascontiguousarray(np.concatenate(drawn["W_x"]).T),
        W_h=np.ascontiguousarray(np.stack([w.T for w in drawn["W_h"]])),
        b_x=np.concatenate(drawn["b_x"]), b_h=np.concatenate(drawn["b_h"]))


def fused(w_h):
    """A gate-major (4, H, H) W_h as one (H, 4H) matrix, gate k in column
    block k."""
    return np.ascontiguousarray(np.concatenate(list(w_h), axis=1))


def gate_major(w):
    """The inverse of ``fused``."""
    return np.stack(np.split(w, 4, axis=1))


# ---------------------------------------------------------------------------
# tanh / sigmoid / softmax
# ---------------------------------------------------------------------------


def test_tanh_basics():
    assert tanh_forward(np.array(0.0)) == 0.0
    x = np.linspace(-4, 4, 17)
    np.testing.assert_array_equal(tanh_forward(-x), -tanh_forward(x))
    assert tanh_forward(np.array(50.0)) == 1.0  # saturates without overflow
    assert tanh_forward(np.array(-50.0)) == -1.0


def test_tanh_backward_matches_closed_form():
    x = np.array([0.3])
    y = tanh_forward(x)
    g = tanh_backward(y, np.array([1.0]))
    assert abs(g[0] - (1.0 - math.tanh(0.3) ** 2)) < 1e-15


def test_sigmoid_stability():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0


def test_sigmoid_accuracy_over_its_range():
    grid = np.linspace(-40.0, 40.0, 160_001)
    exact = 1.0 / (1.0 + np.exp(-grid.astype(np.longdouble)))
    reference = exact.astype(np.float64)
    err32 = np.abs(sigmoid(grid.astype(np.float32)).astype(np.float64) - reference)
    assert err32.max() <= 2.0 ** -23
    err64 = np.abs(sigmoid(grid).astype(np.longdouble) - exact)
    assert float(err64.max()) <= 4e-16
    for dtype in (np.float32, np.float64):
        with np.errstate(all="raise"):
            out = sigmoid(np.array([-1e4, 1e4], dtype=dtype))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, [0.0, 1.0])


def test_softmax_uniform_and_exact_values():
    np.testing.assert_array_equal(softmax(np.zeros(3)), np.full(3, 1.0 / 3.0))
    out = softmax(np.array([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_shift_invariance_and_normalization(rng):
    for _ in range(50):
        k = int(rng.integers(1, 12))
        z = rng.standard_normal(k) * 10
        c = float(rng.standard_normal()) * 100
        p = softmax(z)
        q = softmax(z + c)
        assert np.all(p > 0) and np.all(p <= 1)
        assert abs(p.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(p, q, atol=1e-12)


def test_softmax_rejects_empty():
    with pytest.raises(ShapeMismatch):
        softmax(np.zeros(0))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def test_conv_identity_kernel():
    x = np.array([[1.0], [2.0], [3.0]])
    out = conv1d_forward(x, np.array([[[1.0]]]), np.zeros(1))
    np.testing.assert_array_equal(out, x)


def test_conv_difference_kernel():
    x = np.array([[1.0], [2.0], [3.0]])
    kernels = np.array([[[1.0], [-1.0]]])  # (F=1, k=2, D=1)
    out = conv1d_forward(x, kernels, np.zeros(1))
    np.testing.assert_array_equal(out, conv_oracle(x, kernels, np.zeros(1)))
    np.testing.assert_array_equal(out, [[-1.0], [-1.0]])


def test_conv_zero_kernels_give_bias(rng):
    x = rng.standard_normal((7, 3))
    kernels = np.zeros((2, 3, 3))
    bias = np.array([4.0, -1.5])
    out = conv1d_forward(x, kernels, bias)
    assert np.all(out == np.array([4.0, -1.5]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conv_matches_oracle_continuous(rng, k):
    for _ in range(10):
        t, d, f = int(rng.integers(4, 12)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.standard_normal((t, d))
        kernels = rng.standard_normal((f, k, d))
        bias = rng.standard_normal(f)
        got = conv1d_forward(x, kernels, bias)
        want = conv_oracle(x, kernels, bias)
        assert got.shape == want.shape == (t - k + 1, f)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_conv_matches_oracle_exactly_on_integer_values(rng):
    # integer-valued doubles make every product and sum exact, so the
    # comparison is order-independent and bitwise
    for _ in range(20):
        t, k, d, f = (int(rng.integers(4, 16)), int(rng.integers(1, 4)),
                      int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        x = rng.integers(-8, 9, size=(t, d)).astype(float)
        kernels = rng.integers(-8, 9, size=(f, k, d)).astype(float)
        bias = rng.integers(-8, 9, size=f).astype(float)
        got = conv1d_forward(x, kernels, bias)
        want = conv_oracle(x, kernels, bias)
        assert np.array_equal(got, want)


def test_conv_batched_matches_per_sample(rng):
    x = rng.standard_normal((4, 9, 3))
    kernels = rng.standard_normal((2, 3, 3))
    bias = rng.standard_normal(2)
    batched = conv1d_forward(x, kernels, bias)
    for b in range(4):
        np.testing.assert_array_equal(batched[b], conv1d_forward(x[b], kernels, bias))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f, d", [(32, 306), (16, 32), (16, 306), (512, 306), (256, 512)])
def test_conv_rows_do_not_depend_on_how_many_rows_are_multiplied(dtype, f, d):
    # the kernels are multiplied in place, a transposed GEMM operand; OpenBLAS
    # sums a small product with one in another order (at 1/16 widths, below
    # 16 to 30 rows), so a few rows, or one ragged sample, must come out as
    # the same rows of a long input do
    rng = np.random.default_rng(f + d)
    kernels = (rng.standard_normal((f, 3, d)) * 0.1).astype(dtype)
    bias = rng.standard_normal(f).astype(dtype)
    x = rng.standard_normal((64, d)).astype(dtype)
    full = conv1d_forward(x, kernels, bias)
    for t in (3, 4, 5, 8, 13, 20, 31):
        np.testing.assert_array_equal(conv1d_forward(x[:t], kernels, bias), full[:t - 2])
        np.testing.assert_array_equal(ops.conv1d_ragged_forward([x[:t]], kernels, bias, 64)[0, :t - 2],
                                      full[:t - 2])


def test_conv_shape_errors(rng):
    x = rng.standard_normal((5, 3))
    with pytest.raises(ShapeMismatch):
        conv1d_forward(x, rng.standard_normal((2, 2, 4)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        conv1d_forward(x, rng.standard_normal((2, 6, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        conv1d_forward(x, rng.standard_normal((2, 2, 3)), np.zeros(3))


def test_conv_backward_zero_grad_gives_zeros(rng):
    x = rng.standard_normal((6, 2))
    kernels = rng.standard_normal((3, 2, 2))
    gx, gk, gb = conv1d_backward(x, kernels, np.zeros((5, 3)))
    assert not gx.any() and not gk.any() and not gb.any()


def test_conv_backward_identity_kernel_routes_grad(rng):
    x = rng.standard_normal((6, 1))
    kernels = np.array([[[1.0]]])
    grad_out = rng.standard_normal((6, 1))
    gx, _, _ = conv1d_backward(x, kernels, grad_out)
    np.testing.assert_array_equal(gx, grad_out)


def test_conv_backward_matches_finite_differences(rng):
    for _ in range(5):
        t, k, d, f = 7, 2, 3, 2
        x = rng.standard_normal((t, d))
        kernels = rng.standard_normal((f, k, d))
        bias = rng.standard_normal(f)
        w = rng.standard_normal((t - k + 1, f))

        def loss(x_, k_, b_):
            return float(np.sum(w * conv1d_forward(x_, k_, b_)))

        gx, gk, gb = conv1d_backward(x, kernels, w)
        assert grad_check(loss, [x, kernels, bias], [gx, gk, gb]) < 1e-6


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------


def test_pool_simple_case():
    x = np.array([[1.0], [3.0], [2.0], [5.0]])
    out, arg = maxpool1d_forward(x, 2, 2)
    np.testing.assert_array_equal(out, [[3.0], [5.0]])
    np.testing.assert_array_equal(arg, [[1], [1]])  # rows 1 and 3


def test_pool_constant_input_ties_to_first_index():
    x = np.ones((6, 2))
    out, arg = maxpool1d_forward(x, 2, 2)
    np.testing.assert_array_equal(arg[:, 0], [0, 0, 0])  # rows 0, 2 and 4
    grad = maxpool1d_backward(np.ones_like(out), arg, 6, stride=2)
    np.testing.assert_array_equal(grad[:, 0], [1, 0, 1, 0, 1, 0])


def test_pool_matches_oracle(rng):
    for _ in range(20):
        t = int(rng.integers(3, 14))
        f = int(rng.integers(1, 5))
        window = int(rng.integers(1, t + 1))
        x = rng.standard_normal((t, f))
        out, arg = maxpool1d_forward(x, window, window)
        want, want_arg = pool_oracle(x, window)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(arg, want_arg)


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_pool_non_overlapping_matches_oracle_with_ties(rng, window):
    # small integers make ties common
    for _ in range(20):
        t = int(rng.integers(window, 15))
        x = rng.integers(-2, 3, size=(t, 3)).astype(float)
        out, arg = maxpool1d_forward(x, window, window)
        want, want_arg = pool_oracle(x, window)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(arg, want_arg)
    batch = rng.integers(-2, 3, size=(4, 13, 5)).astype(np.float32)
    out, arg = maxpool1d_forward(batch, window, window)
    assert out.dtype == np.float32 and arg.dtype == np.uint8
    for b in range(4):
        want, want_arg = pool_oracle(batch[b], window)
        np.testing.assert_array_equal(out[b], want)
        np.testing.assert_array_equal(arg[b], want_arg)


def test_pool_non_overlapping_reports_first_nan_like_argmax():
    x = np.array([[1.0], [np.nan], [np.nan], [0.0], [2.0], [np.nan]])
    out, arg = maxpool1d_forward(x, 3, 3)
    assert np.isnan(out).all()
    np.testing.assert_array_equal(arg[:, 0], [1, 2])  # rows 1 and 5


def test_pool_backward_conserves_gradient_mass(rng):
    for _ in range(10):
        x = rng.standard_normal((11, 3))
        out, arg = maxpool1d_forward(x, 3, 3)
        grad_out = rng.standard_normal(out.shape)
        gx = maxpool1d_backward(grad_out, arg, 11, stride=3)
        assert abs(gx.sum() - grad_out.sum()) < 1e-12


def test_pool_window_validation(rng):
    with pytest.raises(ShapeMismatch):
        maxpool1d_forward(rng.standard_normal((3, 2)), 4, 4)


def test_pool_backward_gives_unselected_slots_plus_zero_whatever_the_gradient():
    x = np.array([[1.0, 0.0], [3.0, -1.0], [2.0, 5.0], [5.0, 4.0], [9.0, 9.0]])
    _, offsets = maxpool1d_forward(x, 2, 2)
    np.testing.assert_array_equal(offsets, [[1, 0], [1, 0]])
    grad = np.array([[np.inf, np.nan], [-2.0, -np.inf]])
    gx = maxpool1d_backward(grad, offsets, 5, stride=2)
    want = np.array([[0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [-2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(gx, want)
    # the unselected slots and the row past the last window: +0.0, even
    # beside an inf or NaN gradient (a mask multiply would give NaN and -0.0)
    assert not np.signbit(gx[want == 0.0]).any()


def test_pool_refuses_overlapping_windows_and_stray_argmax(rng):
    x = rng.standard_normal((8, 2))
    for stride in (1, 3):
        with pytest.raises(ShapeMismatch):
            maxpool1d_forward(x, 2, stride)
    out, arg = maxpool1d_forward(x, 2, 2)
    grad_out = np.ones_like(out)
    # each offset moved into the next or previous window
    for bad in (arg + 2, arg.astype(np.intp) - 2):
        with pytest.raises(ShapeMismatch):
            maxpool1d_backward(grad_out, bad, 8, stride=2)
    with pytest.raises(ShapeMismatch):  # four windows of 2 need 8 rows
        maxpool1d_backward(grad_out, arg, 7, stride=2)


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------


def test_dense_identity():
    x = np.arange(6.0).reshape(2, 3)
    out, _ = dense_forward(x, np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(out, x)


def test_dense_zero_input_gives_tanh_bias(rng):
    b = rng.standard_normal(4)
    out, _ = dense_forward(np.zeros((2, 3)), rng.standard_normal((3, 4)), b,
                           activation="tanh")
    np.testing.assert_allclose(out, np.tile(np.tanh(b), (2, 1)), atol=1e-15)


@pytest.mark.parametrize("activation", [None, "tanh"])
def test_dense_backward_matches_finite_differences(rng, activation):
    x = rng.standard_normal((3, 4))
    w_mat = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    proj = rng.standard_normal((3, 2))

    def loss(x_, w_, b_):
        out, _ = dense_forward(x_, w_, b_, activation=activation)
        return float(np.sum(proj * out))

    out, cache = dense_forward(x, w_mat, b, activation=activation)
    gx, gw, gb = dense_backward(cache, proj)
    assert grad_check(loss, [x, w_mat, b], [gx, gw, gb]) < 1e-6


def test_dense_rows_equals_dense_on_the_flattened_zero_padded_input(rng):
    x = rng.standard_normal((3, 5, 4))
    w_mat = rng.standard_normal((8 * 4, 6))
    b = rng.standard_normal(6)
    padded = np.zeros((3, 8 * 4))
    padded[:, :5 * 4] = x.reshape(3, -1)
    for activation in (None, "tanh"):
        got, _ = dense_rows_forward(x, w_mat, b, activation=activation)
        want, _ = dense_forward(padded, w_mat, b, activation=activation)
        assert float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_rows_ignore_zero_rows_and_the_rest_of_the_batch(dtype):
    # sample 1 ends after row 3: its output is the same bits whatever the
    # rows after it, R and (B >= 2) the samples beside it
    rng = np.random.default_rng(2)
    d, h = 64, 96
    w_mat = rng.standard_normal((12 * d, h)).astype(dtype)
    b = rng.standard_normal(h).astype(dtype)
    x = rng.standard_normal((5, 7, d)).astype(dtype)
    x[1, 3:] = 0.0
    want, _ = dense_rows_forward(x, w_mat, b)
    longer = np.concatenate([x, np.zeros((5, 5, d), dtype)], axis=1)
    np.testing.assert_array_equal(dense_rows_forward(longer, w_mat, b)[0], want)
    for batch, row in ((x[[4, 1]], 1), (x[1:3, :3], 0), (longer[[1, 0, 2, 3]], 0)):
        np.testing.assert_array_equal(dense_rows_forward(batch, w_mat, b)[0][row], want[1])


@pytest.mark.parametrize("activation", [None, "tanh"])
def test_dense_rows_backward_matches_finite_differences(rng, activation):
    x = 0.5 * rng.standard_normal((3, 2, 4))  # tanh unsaturated, where differences keep their digits
    w_mat = rng.standard_normal((3 * 4, 5))
    b = rng.standard_normal(5)
    proj = rng.standard_normal((3, 5))

    def loss(x_, w_, b_):
        out, _ = dense_rows_forward(x_, w_, b_, activation=activation)
        return float(np.sum(proj * out))

    out, cache = dense_rows_forward(x, w_mat, b, activation=activation)
    gx, gw, gb = dense_rows_backward(cache, proj)
    assert grad_check(loss, [x, w_mat, b], [gx, gw, gb]) < 1e-6
    assert not gw[2 * 4:].any()


def test_dense_rows_refuse_bad_shapes():
    w_mat, b = np.zeros((12, 5)), np.zeros(5)
    for x, bias in ((np.zeros((2, 2, 5)), b),  # 12 rows are no whole number of D = 5 blocks
                    (np.zeros((2, 4, 4)), b),  # R*D = 16 > 12 rows
                    (np.zeros((2, 3, 4)), np.zeros(4)),
                    (np.zeros((2, 12)), b)):
        with pytest.raises(ShapeMismatch):
            dense_rows_forward(x, w_mat, bias)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def test_lstm_cell_zero_params_halves_cell(rng):
    params = LSTMCellParams.zeros(3, 4)
    c_prev = rng.standard_normal(4)
    h, c, _ = lstm_cell(np.zeros(3), np.zeros(4), c_prev, params)
    np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
    np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)


def test_lstm_cell_saturated_forget_gate_preserves_cell(rng):
    params = LSTMCellParams.zeros(3, 4)
    params.b_x[4:8] = 20.0  # forget block
    c_prev = rng.standard_normal(4)
    _, c, _ = lstm_cell(np.zeros(3), np.zeros(4), c_prev, params)
    np.testing.assert_allclose(c, c_prev, atol=1e-8)


def test_lstm_cell_matches_scalar_oracle(rng):
    for _ in range(25):
        d = int(rng.integers(1, 5))
        h_size = int(rng.integers(1, 9))
        params = random_lstm_params(rng, d, h_size)
        x = rng.standard_normal(d)
        h_prev = rng.standard_normal(h_size)
        c_prev = rng.standard_normal(h_size)
        h, c, _ = lstm_cell(x, h_prev, c_prev, params)
        h_ref, c_ref = lstm_cell_oracle(x, h_prev, c_prev, params)
        np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
        np.testing.assert_allclose(c, c_ref, atol=1e-12, rtol=0)


def test_lstm_sequence_t1_equals_cell(rng):
    params = random_lstm_params(rng, 3, 4)
    x = rng.standard_normal((1, 3))
    h_seq, _ = lstm_sequence(x, params)
    h_cell, _, _ = lstm_cell(x[0], np.zeros(4), np.zeros(4), params)
    np.testing.assert_allclose(h_seq[0], h_cell, atol=1e-15)


def test_lstm_sequence_matches_cell_by_cell(rng):
    params = random_lstm_params(rng, 3, 4)
    x = rng.standard_normal((2, 6, 3))
    h_seq, _ = lstm_sequence(x, params)
    h, c = np.zeros((2, 4)), np.zeros((2, 4))
    for step in range(6):
        h, c, _ = lstm_cell(x[:, step], h, c, params)
        np.testing.assert_allclose(h_seq[:, step], h, atol=1e-14, rtol=0)


def test_lstm_sequence_zero_everything_is_zero():
    params = LSTMCellParams.zeros(2, 3)
    h_seq, _ = lstm_sequence(np.zeros((5, 2)), params)
    assert not h_seq.any()


def test_lstm_sequence_backward_matches_finite_differences(rng):
    t, d, h_size = 5, 3, 3
    params = random_lstm_params(rng, d, h_size, scale=0.4)
    x = rng.standard_normal((t, d))
    proj = rng.standard_normal((t, h_size))

    h_seq, cache = lstm_sequence(x, params)
    gx, gparams, _, _ = lstm_sequence_backward(cache, params, proj)

    def loss_x(x_):
        h_, _ = lstm_sequence(x_, params)
        return float(np.sum(proj * h_))

    assert grad_check(loss_x, [x], [gx]) < 1e-6

    names = sorted(vars(params))
    arrs = [getattr(params, n) for n in names]

    def loss_params(*_arrs):
        h_, _ = lstm_sequence(x, params)
        return float(np.sum(proj * h_))

    assert grad_check(loss_params, arrs, [gparams[n] for n in names]) < 1e-6


def test_lstm_shape_errors(rng):
    params = LSTMCellParams.zeros(3, 4)
    with pytest.raises(ShapeMismatch):
        lstm_cell(np.zeros(5), np.zeros(4), np.zeros(4), params)
    with pytest.raises(ShapeMismatch):
        lstm_sequence(np.zeros((4, 5)), params)


def batch_major_lstm(x, params):
    """The LSTM forward pass from the zero state with each step's gates as
    column blocks of one (B, 4H) row: batch-major input projection, sigmoid
    on the i|f and o blocks, tanh on the g block.  Returns (h_seq, hs, cs,
    acts, tcs)."""
    b, t, d = x.shape
    hsz = params.hidden_size
    wx, wh = params.W_x.astype(x.dtype), fused(params.W_h).astype(x.dtype)
    bias = (params.b_x + params.b_h).astype(x.dtype)
    xw = (x.reshape(b * t, d) @ wx).reshape(b, t, 4 * hsz)
    hs = [np.zeros((b, hsz), x.dtype)]
    cs = [np.zeros((b, hsz), x.dtype)]
    acts, tcs = [], []
    for step in range(t):
        act = xw[:, step] + hs[-1] @ wh
        act += bias
        act[:, :2 * hsz] = sigmoid(act[:, :2 * hsz])
        np.tanh(act[:, 2 * hsz:3 * hsz], out=act[:, 2 * hsz:3 * hsz])
        act[:, 3 * hsz:] = sigmoid(act[:, 3 * hsz:])
        i, f, g, o = np.split(act, 4, axis=1)
        cs.append(f * cs[-1] + i * g)
        tcs.append(np.tanh(cs[-1]))
        hs.append(o * tcs[-1])
        acts.append(act)
    return np.stack(hs[1:], axis=1), hs, cs, acts, tcs


def batch_major_lstm_backward(x, params, fwd, grad_h_seq):
    """BPTT through ``batch_major_lstm``; returns (grad_x, grads, dh0, dc0)."""
    _, hs, cs, acts, tcs = fwd
    b, t, _ = x.shape
    hsz = params.hidden_size
    wx, wh = params.W_x.astype(x.dtype), fused(params.W_h).astype(x.dtype)
    wh_t = np.ascontiguousarray(wh.T)
    dh = np.zeros((b, hsz), x.dtype)
    dc = np.zeros((b, hsz), x.dtype)
    d_gates = np.empty((t, b, 4 * hsz), x.dtype)
    for step in range(t - 1, -1, -1):
        act, tc, d = acts[step], tcs[step], d_gates[step]
        i, f, g, o = np.split(act, 4, axis=1)
        dsig = np.split(act * (1.0 - act), 4, axis=1)
        dh = dh + grad_h_seq[:, step]
        dcc = dc + dh * o * (1.0 - tc * tc)
        d[:] = np.concatenate([dcc * g * dsig[0], dcc * cs[step] * dsig[1],
                               dcc * i * (1.0 - g * g), dh * tc * dsig[3]], axis=1)
        dh = d @ wh_t
        dc = dcc * f
    dg2 = d_gates.reshape(t * b, 4 * hsz)
    grad_x = (dg2 @ wx.T).reshape(t, b, -1).transpose(1, 0, 2)
    gb = dg2.sum(axis=0)
    grads = {"W_x": x.transpose(1, 0, 2).reshape(t * b, -1).T @ dg2,
             "W_h": gate_major(np.stack(hs[:-1]).reshape(t * b, hsz).T @ dg2), "b_x": gb, "b_h": gb}
    return grad_x, grads, dh, dc


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _cast_params(params, dtype):
    return LSTMCellParams(**{k: v.astype(dtype) for k, v in vars(params).items()})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 3, 128])
@pytest.mark.parametrize("h_size", [5, 16, 32, 40])
@pytest.mark.parametrize("repeat_last", [False, True])
def test_lstm_is_bit_identical_to_the_batch_major_step(dtype, b, h_size, repeat_last):
    rng = np.random.default_rng(1000 * b + h_size)
    t, d = 9, 16
    params = _cast_params(random_lstm_params(rng, d, h_size), dtype)
    x = rng.standard_normal((b, t, d)).astype(dtype)
    # a constant suffix: the last real row repeated, or zero rows, like a
    # padded batch
    x[:, -3:] = x[:, -4:-3] if repeat_last else 0.0
    x[0, 2] = -0.0
    grad_h_seq = rng.standard_normal((b, t, h_size)).astype(dtype)

    h_seq, cache = lstm_sequence(x, params)
    gx, grads, gh0, gc0 = lstm_sequence_backward(cache, params, grad_h_seq)

    fwd = batch_major_lstm(x, params)
    ref_gx, ref_grads, ref_gh0, ref_gc0 = batch_major_lstm_backward(x, params, fwd, grad_h_seq)
    assert_bits_equal(h_seq, fwd[0])
    assert_bits_equal(gx, ref_gx)
    assert_bits_equal(gh0, ref_gh0)
    assert_bits_equal(gc0, ref_gc0)
    assert sorted(grads) == sorted(ref_grads)
    for name, grad in grads.items():
        assert_bits_equal(grad, ref_grads[name])


def test_lstm_is_bit_identical_to_the_batch_major_step_at_published_width():
    rng = np.random.default_rng(7)
    params = _cast_params(random_lstm_params(rng, 256, 512, scale=0.05), np.float32)
    x = rng.standard_normal((1, 4, 256)).astype(np.float32)
    h_seq, _ = lstm_sequence(x, params)
    assert_bits_equal(h_seq, batch_major_lstm(x, params)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d, h_size", [(256, 512), (512, 256)])
def test_gate_block_gemvs_equal_the_fused_gemv_at_the_published_widths(dtype, d, h_size):
    # lstm1 and lstm2 at B = 1: the step multiplies each stored gate block
    # by h_prev, and each block's GEMV gives its column block of the fused
    # GEMV bit for bit
    rng = np.random.default_rng(h_size)
    params = _cast_params(random_lstm_params(rng, d, h_size, scale=0.05), dtype)
    wh = ops._recurrent_operand(params, dtype, gemv=True)
    assert wh.shape == (4, h_size, h_size)  # the gate-block path is taken
    fused_w = fused(params.W_h)
    for _ in range(5):
        h = np.tanh(rng.standard_normal((1, h_size))).astype(dtype)
        assert_bits_equal(np.concatenate([h @ block for block in wh], axis=1), h @ fused_w)
    x = rng.standard_normal((1, 6, d)).astype(dtype)
    h_seq, _ = lstm_sequence(x[0], params, [6])
    assert_bits_equal(h_seq, batch_major_lstm(x, params)[0][0])


@pytest.mark.parametrize("h_size, dtype, blocks", [
    (512, np.float32, True), (256, np.float32, True), (256, np.float64, True),
    (528, np.float32, True), (32, np.float32, True), (128, np.float64, True),
    (264, np.float32, False), (100, np.float32, False), (4, np.float32, False),
])
def test_gate_block_guard_is_pinned(h_size, dtype, blocks):
    # a GEMV per gate block matched the fused GEMV at H a multiple of 16
    # only (float32, 257 to 512), and not at H = 4 or 100, but at every
    # multiple of 16 up to 1024 in float32 and float64; so the block path
    # needs that width.  A width outside the guard runs the fused GEMV
    # at B = 1; B >= 2 always multiplies the fused matrix; either way the
    # sequence equals the fused reference
    rng = np.random.default_rng(h_size)
    params = _cast_params(random_lstm_params(rng, 8, h_size, scale=0.05), dtype)
    assert ops._recurrent_operand(params, dtype, gemv=True).ndim == (3 if blocks else 2)
    assert ops._recurrent_operand(params, dtype, gemv=False).shape == (h_size, 4 * h_size)
    x = rng.standard_normal((1, 5, 8)).astype(dtype)
    h_seq, _ = lstm_sequence(x[0], params, [5])
    assert_bits_equal(h_seq, batch_major_lstm(x, params)[0][0])


def test_pack_index_is_step_major_longest_first_ties_in_batch_order():
    sample, step = ops.pack_index([2, 0, 3, 2])
    assert sample.tolist() == [2, 0, 3, 2, 0, 3, 2]
    assert step.tolist() == [0, 0, 0, 1, 1, 1, 2]
    for lengths in ([], [0, 0]):
        assert [len(a) for a in ops.pack_index(lengths)] == [0, 0]
    with pytest.raises(ShapeMismatch):
        ops.pack_index([3, -1])


@pytest.mark.parametrize("lengths", [(3, 0, 7, 5, 7), (4, 4, 4), (0, 0), (6, 1), (1,)])
def test_packed_lstm_equals_each_sample_over_its_own_rows(lengths):
    # forward: lstm_cell step by step over each sample's own rows, zeros
    # after them; backward: BPTT of each sample alone, its parameter
    # gradients summed over the samples
    rng = np.random.default_rng(10 * len(lengths) + sum(lengths))
    d, h_size = 3, 4
    params = random_lstm_params(rng, d, h_size)
    x = rng.standard_normal((len(lengths), max(lengths), d))
    packed = ops.pack_index(lengths)
    h_packed, cache = lstm_sequence(x[packed], params, lengths)
    h_seq = np.zeros(x.shape[:2] + (h_size,))
    h_seq[packed] = h_packed
    grad_h_seq = rng.standard_normal(h_seq.shape)
    gx_packed, grads, gh0, gc0 = lstm_sequence_backward(cache, params, grad_h_seq[packed])
    gx = np.zeros(x.shape)
    gx[packed] = gx_packed

    want = {name: np.zeros_like(value) for name, value in vars(params).items()}
    for i, n in enumerate(lengths):
        h, c = np.zeros(h_size), np.zeros(h_size)
        for t in range(n):
            h, c, _ = lstm_cell(x[i, t], h, c, params)
            np.testing.assert_allclose(h_seq[i, t], h, atol=1e-12, rtol=0)
        assert not h_seq[i, n:].any()
        if n == 0:
            assert not gh0[i].any() and not gc0[i].any()
            continue
        xi = x[i:i + 1, :n]
        ref_gx, ref_grads, ref_gh0, ref_gc0 = batch_major_lstm_backward(
            xi, params, batch_major_lstm(xi, params), grad_h_seq[i:i + 1, :n])
        np.testing.assert_allclose(gx[i, :n], ref_gx[0], atol=1e-12, rtol=0)
        np.testing.assert_allclose(gh0[i], ref_gh0[0], atol=1e-12, rtol=0)
        np.testing.assert_allclose(gc0[i], ref_gc0[0], atol=1e-12, rtol=0)
        for name in want:
            want[name] += ref_grads[name]
    assert sorted(grads) == sorted(want)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, want[name], atol=1e-12, rtol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_lstm_rows_do_not_depend_on_the_other_samples(dtype):
    # beside a 2-step sample, steps 2 to 8 of the long one have one live
    # row; it is still multiplied as GEMM, as beside a sample as long
    rng = np.random.default_rng(3)
    params = _cast_params(random_lstm_params(rng, 16, 32, scale=0.2), dtype)
    x = rng.standard_normal((2, 9, 16)).astype(dtype)
    grad = rng.standard_normal((9, 32)).astype(dtype)
    runs = []
    for lengths, xb in (((9, 2), x), ((9, 9), x), ((2, 9), x[::-1])):
        packed = ops.pack_index(lengths)
        long_rows = packed[0] == lengths.index(9)
        h, cache = lstm_sequence(xb[packed], params, lengths)
        g = np.zeros(h.shape, dtype)
        g[long_rows] = grad
        gx, _, gh0, _ = lstm_sequence_backward(cache, params, g)
        runs.append((h[long_rows], gx[long_rows], gh0[lengths.index(9)]))
    for got in runs[1:]:
        for a, b in zip(got, runs[0]):
            assert_bits_equal(a, b)


def test_packed_lstm_refuses_inconsistent_lengths():
    params = LSTMCellParams.zeros(3, 4)
    with pytest.raises(ShapeMismatch):
        lstm_sequence(np.zeros((5, 3)), params, [2, 2])
    with pytest.raises(ShapeMismatch):
        lstm_sequence(np.zeros((1, 5, 3)), params, [5])
    with pytest.raises(ShapeMismatch):
        lstm_sequence(np.zeros((2, 3)), params, [3, -1])
    _, cache = lstm_sequence(np.zeros((4, 3)), params, [2, 2])
    with pytest.raises(ShapeMismatch):
        lstm_sequence_backward(cache, params, np.zeros((2, 2, 4)))


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def test_dropout_inference_is_identity(rng):
    x = rng.standard_normal((50, 4))
    out, mask = dropout_forward(x, 0.6, "infer")
    assert out is x
    assert mask is None


def test_dropout_rate_zero_is_identity_in_both_modes(rng):
    x = rng.standard_normal((10, 3))
    for mode in ("train", "infer"):
        out, _ = dropout_forward(x, 0.0, mode, rng)
        assert out is x


def test_dropout_statistics_and_exact_survivor_scale(rng):
    x = rng.standard_normal(200_000) + 3.0  # keep values away from zero
    out, mask = dropout_forward(x, 0.6, "train", rng)
    zero_fraction = float((out == 0.0).mean())
    assert abs(zero_fraction - 0.6) < 0.02
    scale = 1.0 / (1.0 - 0.6)
    assert scale == 2.5
    survivors = mask
    np.testing.assert_array_equal(out[survivors], x[survivors] * 2.5)


def test_dropout_backward_uses_the_same_mask(rng):
    x = rng.standard_normal((30, 5))
    out, mask = dropout_forward(x, 0.4, "train", rng)
    grad = dropout_backward(np.ones_like(x), mask, 0.4)
    np.testing.assert_array_equal(grad, mask * (1.0 / 0.6))


def test_dropout_validates_rate():
    with pytest.raises(ValueError):
        dropout_forward(np.zeros(3), 1.0, "train", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Cross-entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_nine_classes():
    probs = np.full(9, 1.0 / 9.0)
    assert abs(cross_entropy(probs, 4) - math.log(9.0)) < 1e-9


def test_cross_entropy_one_hot_is_near_zero():
    probs = np.zeros(5)
    probs[2] = 1.0
    assert cross_entropy(probs, 2) < 1e-11


def test_cross_entropy_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        cross_entropy(np.full(4, 0.25), 4)
    with pytest.raises(IndexOutOfRange):
        cross_entropy_grad_logits(np.full(4, 0.25), -1)


def test_fused_gradient_matches_finite_differences(rng):
    for _ in range(5):
        k = int(rng.integers(2, 8))
        logits = rng.standard_normal(k)
        target = int(rng.integers(0, k))

        def loss(z):
            return cross_entropy(softmax(z), target)

        grad = cross_entropy_grad_logits(softmax(logits), target)
        assert grad_check(loss, [logits], [grad]) < 1e-6


def test_softmax_xent_batch_reduces_mean(rng):
    logits = rng.standard_normal((6, 4))
    targets = rng.integers(0, 4, size=6)
    loss, grad = softmax_xent_batch(logits, targets)
    per_sample = [cross_entropy(softmax(logits[i]), int(targets[i])) for i in range(6)]
    assert abs(loss - np.mean(per_sample)) < 1e-12
    assert grad.shape == logits.shape


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    params = {"w": np.array([1.0])}
    state = AdamState.init(params)
    new, _ = adam_step(params, {"w": np.array([2.0])}, state, 1e-3)
    delta = new["w"][0] - 1.0
    assert abs(delta + 1e-3) < 1e-8  # -lr * g/(|g| + eps-ish)


def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"w": np.array([0.7, -0.3])}
    state = AdamState.init(params)
    new, new_state = adam_step(params, {"w": np.zeros(2)}, state, 1e-3)
    np.testing.assert_array_equal(new["w"], params["w"])
    assert new_state.t == 1


def test_adam_descends_quadratic():
    # Oracle recurrences, frozen: with lr=1e-3 Adam's step is capped near
    # lr, so 100 steps move theta from 1.0 to about 0.9017; with lr=1e-2 it
    # passes 0.5.
    def run(lr, steps):
        theta = {"w": np.array([1.0])}
        state = AdamState.init(theta)
        trace = [theta["w"][0]]
        for _ in range(steps):
            theta, state = adam_step(theta, {"w": 2.0 * theta["w"]}, state, lr)
            trace.append(theta["w"][0])
        return trace

    trace = run(1e-3, 100)
    assert all(b < a for a, b in zip(trace, trace[1:]))  # strictly decreasing
    assert abs(trace[-1] - 0.9017435980786) < 1e-9

    trace_fast = run(1e-2, 100)
    assert all(b < a for a, b in zip(trace_fast, trace_fast[1:]))
    assert trace_fast[-1] < 0.5


def test_adam_is_pure(rng):
    params = {"w": rng.standard_normal(4)}
    before = params["w"].copy()
    state = AdamState.init(params)
    adam_step(params, {"w": rng.standard_normal(4)}, state, 1e-3)
    np.testing.assert_array_equal(params["w"], before)
    assert not state.m["w"].any()


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = AdamState.init(params)
    with pytest.raises(ShapeMismatch):
        adam_step(params, {"w": np.zeros(4)}, state, 1e-3)


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------


def test_grad_check_accepts_closed_form_tanh():
    x = np.array([0.3])

    def f(x_):
        return float(np.tanh(x_[0]))

    analytic = np.array([1.0 - math.tanh(0.3) ** 2])
    assert grad_check(f, [x], [analytic]) < 1e-8


def test_grad_check_detects_sign_flip(rng):
    x = rng.standard_normal((3, 4))
    w_mat = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    proj = rng.standard_normal((3, 2))

    def loss(x_):
        out, _ = dense_forward(x_, w_mat, b)
        return float(np.sum(proj * out))

    out, cache = dense_forward(x, w_mat, b)
    gx, _, _ = dense_backward(cache, proj)
    err = grad_check(loss, [x], [-gx])  # deliberately corrupted backward
    assert err > 1.5


def test_grad_check_rejects_silly_eps(rng):
    with pytest.raises(ValueError):
        grad_check(lambda a: float(a.sum()), [rng.standard_normal(2)],
                   [np.ones(2)], eps=1.0)
