"""From-scratch layer primitives: forward passes and analytic backward passes.

Every operation here is written directly against its defining sums so it can
be checked against brute-force oracles and central finite differences.  Arrays
are plain numpy ndarrays; float64 is the reference precision, float32 is
supported for speed.  Time-major layouts: a single sequence is (T, D) and a
batch is (B, T, D).  Ops accept either and preserve which one they were given.
Only what the network uses is here: convolution is stride 1 with valid
padding, max pooling takes non-overlapping windows, and an LSTM sequence
starts from the zero state.  The first convolution also takes a ragged
batch, a sequence of (T_i, D) samples standing for the batch zero-padded to
a common length (``conv1d_ragged_forward`` and its parameter gradient):
only each sample's own rows are multiplied.
LSTM parameters are stored fused, one (D, 4H) and one (H, 4H) matrix per
layer, and every GEMM runs on that layout.  ``lstm_sequence`` projects the
whole input through W_x in one (T*B, D) x (D, 4H) GEMM before the time
loop, so each step does one gate GEMM, h W_h; its backward pass forms the
input and weight gradients in one GEMM each after the loop.  Inside the
loop the gates are gate-major, (4, B, H), so each gate is one contiguous
block and the element-wise work of all four gates runs as a few wide ops,
one tanh among them (sigmoid(z) = 0.5 tanh(z/2) + 0.5 on i, f and o).
Every value is formed by the same operations in the same order as with
the gates as column blocks of a (B, 4H) row, so the results are the same
bit for bit.  ``lstm_cell`` and ``lstm_sequence`` share the single step
implementation ``_lstm_step``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonFiniteValue(ArithmeticError):
    pass


class IndexOutOfRange(IndexError):
    pass


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Promote (T, D) to (1, T, D); report whether input was single."""
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ShapeMismatch(f"expected 2-D or 3-D input, got shape {x.shape}")


# ---------------------------------------------------------------------------
# Pointwise activations
# ---------------------------------------------------------------------------


def tanh_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise (e^x - e^-x)/(e^x + e^-x), saturation-safe."""
    return np.tanh(x)


def tanh_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through tanh given its output y: grad * (1 - y^2)."""
    return grad_out * (1.0 - y * y)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * tanh(x / 2) + 0.5.

    The identity is exact; tanh saturates instead of overflowing, so any
    finite input gives a value in [0, 1] without a floating-point warning.
    Within 2^-23 (float32) and 4e-16 (float64) of the exact value.
    """
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; components in (0, 1], rows sum to 1."""
    if z.shape[axis] < 1:
        raise ShapeMismatch("softmax needs at least one class")
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# 1-D convolution over time (stride 1, valid padding)
# ---------------------------------------------------------------------------


def _check_conv_shapes(x, kernels, bias):
    if kernels.ndim != 3:
        raise ShapeMismatch(f"kernels must be (F, k, D_in), got {kernels.shape}")
    f, k, d_in = kernels.shape
    if x.shape[-1] != d_in:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != kernel dim {d_in}")
    if bias.shape != (f,):
        raise ShapeMismatch(f"bias shape {bias.shape} != ({f},)")
    if x.shape[-2] < k:
        raise ShapeMismatch(f"sequence length {x.shape[-2]} shorter than kernel {k}")


def _tap_matrix(kernels: np.ndarray, dtype) -> np.ndarray:
    """kernels (F, k, D_in) as one (D_in, k*F) matrix, column a*F + f tap a of filter f."""
    f, k, d_in = kernels.shape
    return kernels.transpose(2, 1, 0).reshape(d_in, k * f).astype(dtype, copy=False)


def _sum_taps(y: np.ndarray, bias: np.ndarray, out: np.ndarray):
    """Writes out[b, t, f] = bias[f] + sum_a y[b, t + a, a, f], from the
    products y (B, T, k, F) of every input row with every tap."""
    t_out = out.shape[1]
    out[...] = bias
    for a in range(y.shape[2]):
        out += y[:, a:a + t_out, a, :]


def conv1d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out[t, f] = bias[f] + sum_{a, d} x[t + a, d] * kernels[f, a, d] (stride 1)."""
    _check_conv_shapes(x, kernels, bias)
    xb, single = _as_batch(x)
    f, k, d_in = kernels.shape
    b, t, _ = xb.shape
    # one GEMM against all taps at once, then gather the shifted tap planes
    y = (xb.reshape(b * t, d_in) @ _tap_matrix(kernels, xb.dtype)).reshape(b, t, k, f)
    out = np.empty((b, t - k + 1, f), dtype=xb.dtype)
    _sum_taps(y, bias, out)
    return out[0] if single else out


def conv1d_backward(x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray):
    """Adjoint of conv1d_forward; returns (grad_x, grad_kernels, grad_bias)."""
    f, k, d_in = kernels.shape
    xb, single = _as_batch(x)
    gb, gsingle = _as_batch(grad_out)
    if single != gsingle or gb.shape[0] != xb.shape[0] or gb.shape[-1] != f:
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} inconsistent with "
                            f"input {x.shape} and kernels {kernels.shape}")
    b, t, _ = xb.shape
    t_out = t - k + 1
    if gb.shape[1] != t_out:
        raise ShapeMismatch(f"grad_out T {gb.shape[1]} != expected {t_out}")

    grad_bias = gb.sum(axis=(0, 1), dtype=np.float64).astype(kernels.dtype)
    # scatter grad_out into zero-padded tap planes, then one GEMM per direction
    gpad = np.zeros((b, t, k, f), dtype=gb.dtype)
    for a in range(k):
        gpad[:, a:a + t_out, a, :] = gb
    g2 = gpad.reshape(b * t, k * f)
    gk_flat = g2.T @ xb.reshape(b * t, d_in)  # (k*F, D)
    grad_k = gk_flat.reshape(k, f, d_in).transpose(1, 0, 2).astype(kernels.dtype, copy=False)

    k2 = kernels.transpose(1, 0, 2).reshape(k * f, d_in).astype(gb.dtype, copy=False)  # (k*F, D)
    grad_x = (g2 @ k2).reshape(b, t, d_in)
    return (grad_x[0] if single else grad_x), grad_k, grad_bias


def _check_ragged(xs, kernels: np.ndarray, length: int):
    if kernels.ndim != 3:
        raise ShapeMismatch(f"kernels must be (F, k, D_in), got {kernels.shape}")
    _, k, d_in = kernels.shape
    if length < k:
        raise ShapeMismatch(f"sequence length {length} shorter than kernel {k}")
    if len(xs) == 0:
        raise ShapeMismatch("a ragged batch needs at least one sample")
    for x in xs:
        if x.ndim != 2 or x.shape[0] > length or x.shape[1] != d_in:
            raise ShapeMismatch(f"sample shape {x.shape} != (T <= {length}, {d_in})")


def conv1d_ragged_forward(xs, kernels: np.ndarray, bias: np.ndarray,
                          length: int) -> np.ndarray:
    """``conv1d_forward`` of the (B, length, D) batch whose sample
    i is xs[i], a (T_i, D) array with T_i <= length, followed by zero rows.

    Sample by sample, its own rows go through the tap GEMM into one reused
    (length, k*F) buffer whose other rows are set to zero, the product of a
    zero row, and the taps are summed from there; the padding is never
    built or multiplied.  Every row of the GEMM is the one the padded
    batch's GEMM gives, so the output equals conv1d_forward on the
    zero-padded batch bit for bit.  ``xs`` may also be a (B, T, D) array.
    """
    _check_ragged(xs, kernels, length)
    if bias.shape != (kernels.shape[0],):
        raise ShapeMismatch(f"bias shape {bias.shape} != ({kernels.shape[0]},)")
    f, k, d_in = kernels.shape
    dtype = xs[0].dtype
    k2 = _tap_matrix(kernels, dtype)
    out = np.empty((len(xs), length - k + 1, f), dtype=dtype)
    y = np.empty((length, k * f), dtype=dtype)
    for row, x in zip(out, xs):
        if len(x) == 1 and length > 1:
            # numpy hands a one-row product to GEMV, which sums in another
            # order than GEMM; a zero second row keeps it a GEMM
            x = np.concatenate([x, np.zeros_like(x)])
        np.matmul(x, k2, out=y[:len(x)])
        y[len(x):] = 0
        _sum_taps(y.reshape(1, length, k, f), bias, row[None])
    return out


def conv1d_ragged_backward(xs, kernels: np.ndarray, grad_out: np.ndarray):
    """Adjoint of ``conv1d_ragged_forward`` in its parameters; returns
    (grad_kernels, grad_bias).

    The zero rows past each sample add nothing to the kernel gradient, so it
    is formed from each sample's own rows, sum_i g_i^T x_i over the tap
    planes g_i of sample i's rows: the padded batch's GEMM, summed in
    another order.  grad_out is (B, length - k + 1, F).
    """
    f, k, d_in = kernels.shape
    b, t_out, gf = grad_out.shape
    length = t_out + k - 1
    _check_ragged(xs, kernels, length)
    if b != len(xs) or gf != f:
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} inconsistent with "
                            f"{len(xs)} samples and kernels {kernels.shape}")
    grad_bias = grad_out.sum(axis=(0, 1), dtype=np.float64).astype(kernels.dtype)
    planes = np.empty((length, k, f), dtype=grad_out.dtype)  # planes[s, a] meets x row s
    gk_flat = np.zeros((k * f, d_in), dtype=grad_out.dtype)
    for g, x in zip(grad_out, xs):
        n = len(x)
        planes[:n] = 0
        for a in range(min(k, n)):
            m = min(n, a + t_out)
            planes[a:m, a] = g[:m - a]
        gk_flat += planes[:n].reshape(n, k * f).T @ x
    grad_k = gk_flat.reshape(k, f, d_in).transpose(1, 0, 2).astype(kernels.dtype, copy=False)
    return grad_k, grad_bias


# ---------------------------------------------------------------------------
# Max pooling over time (non-overlapping windows)
# ---------------------------------------------------------------------------


def maxpool1d_forward(x: np.ndarray, window: int, stride: int):
    """Returns (pooled, argmax) over non-overlapping windows (``stride`` must
    equal ``window``; rows past the last whole window are dropped).  argmax
    holds absolute time indices; ties go to the first index in the window,
    and a window holding NaN reports its first NaN (numpy argmax convention).
    """
    xb, single = _as_batch(x)
    b, t, f = xb.shape
    if window < 1 or window > t:
        raise ShapeMismatch(f"window {window} invalid for T={t}")
    if stride != window:
        raise ShapeMismatch(f"stride {stride} != window {window}: windows must not overlap")
    t_out = t // window
    win = xb[:, :t_out * window].reshape(b, t_out, window, f)
    out = win.max(axis=2)
    # the argmax offset counts the window entries before the first hit
    # (argmax over a middle axis of length 2 or 3 is slow in numpy)
    offset = np.zeros(out.shape, dtype=np.min_scalar_type(window))
    missed = np.ones(out.shape, dtype=bool)
    for a in range(window - 1):
        col = win[:, :, a]
        missed &= (col != out) & (col == col)
        offset += missed
    argmax = offset + (np.arange(t_out) * window)[None, :, None]
    if single:
        return out[0], argmax[0]
    return out, argmax


def maxpool1d_backward(grad_out: np.ndarray, argmax: np.ndarray, input_len: int,
                       stride: int) -> np.ndarray:
    """Scatter each pooled gradient back to its argmax, which must lie in its
    window of ``maxpool1d_forward``, rows j*stride to (j+1)*stride - 1 (else
    ShapeMismatch): each input row wins at most once, so it is one assignment.
    """
    gb, single = _as_batch(grad_out)
    ab, _ = _as_batch(argmax)
    if gb.shape != ab.shape:
        raise ShapeMismatch(f"grad_out {grad_out.shape} != argmax {argmax.shape}")
    b, t_out, f = gb.shape
    if stride * t_out > input_len:
        raise ShapeMismatch(f"{t_out} windows of {stride} do not fit {input_len} rows")
    grad_x = np.zeros((b, input_len, f), dtype=gb.dtype)
    offsets = ab - (np.arange(t_out) * stride)[None, :, None]
    if t_out and (offsets.min() < 0 or offsets.max() >= stride):
        raise ShapeMismatch("argmax outside its pooling window")
    view = grad_x[:, :stride * t_out, :].reshape(b, t_out, stride, f)
    np.put_along_axis(view, offsets[:, :, None, :], gb[:, :, None, :], axis=2)
    return grad_x[0] if single else grad_x


# ---------------------------------------------------------------------------
# Dense (fully connected) layer
# ---------------------------------------------------------------------------


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  activation: str | None = None):
    """x @ w + b with optional tanh; returns (out, cache)."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"x {x.shape} incompatible with w {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeMismatch(f"bias {b.shape} != ({w.shape[1]},)")
    if activation not in (None, "tanh"):
        raise ValueError(f"unsupported activation {activation!r}")
    z = x @ w + b
    out = np.tanh(z) if activation == "tanh" else z
    return out, (x, w, out, activation)


def dense_backward(cache, grad_out: np.ndarray):
    x, w, out, activation = cache
    if grad_out.shape != out.shape:
        raise ShapeMismatch(f"grad_out {grad_out.shape} != output {out.shape}")
    gz = grad_out * (1.0 - out * out) if activation == "tanh" else grad_out
    x2 = x.reshape(-1, x.shape[-1])
    g2 = gz.reshape(-1, gz.shape[-1])
    grad_w = x2.T @ g2
    grad_b = g2.sum(axis=0)
    grad_x = gz @ w.T
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


@dataclass
class LSTMCellParams:
    """Gate parameters in the fused layout every step multiplies by.

    W_x is (input, 4*hidden), W_h is (hidden, 4*hidden), and b_x, b_h are
    (4*hidden,).  Column block k*hidden:(k+1)*hidden belongs to gate
    GATE_ORDER[k]; the two bias vectors enter each gate as a sum.
    """

    W_x: np.ndarray
    W_h: np.ndarray
    b_x: np.ndarray
    b_h: np.ndarray

    GATE_ORDER = ("i", "f", "g", "o")

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_x.shape[0]

    def check_shapes(self):
        h = self.hidden_size
        expected = {"W_x": (self.input_size, 4 * h), "W_h": (h, 4 * h),
                    "b_x": (4 * h,), "b_h": (4 * h,)}
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ShapeMismatch(f"{name} shape {getattr(self, name).shape} != {shape}")

    @staticmethod
    def zeros(input_size: int, hidden_size: int, dtype=np.float64) -> "LSTMCellParams":
        g = 4 * hidden_size
        return LSTMCellParams(W_x=np.zeros((input_size, g), dtype=dtype),
                              W_h=np.zeros((hidden_size, g), dtype=dtype),
                              b_x=np.zeros(g, dtype=dtype), b_h=np.zeros(g, dtype=dtype))


def _step_operands(params: LSTMCellParams, dtype, lead: tuple[int, ...]):
    """What every step of batch shape ``lead`` multiplies by and adds.

    Returns (wh, hw, hw_gates, bias, scale, shift): the stored W_h in
    ``dtype``, a (*lead, 4H) buffer for h_prev W_h with its gate-major view
    (4, *lead, H), and bias (b_x + b_h), scale and shift, gate-major at the
    full step shape: element-wise ops against a broadcast operand run
    several times slower than against a contiguous one of the same shape.
    """
    wh = params.W_h.astype(dtype, copy=False)
    hsz = params.hidden_size
    shape = (4, *lead, hsz)
    bias = np.empty(shape, dtype=dtype)
    bias[...] = (params.b_x + params.b_h).astype(dtype, copy=False).reshape(
        (4,) + (1,) * len(lead) + (hsz,))
    # i, f, o: 0.5 * tanh(0.5 z) + 0.5 is ``sigmoid``; g: 1 * tanh(1 z) + (-0.0)
    # is tanh(z) bit for bit (x * 1 == x and x + -0.0 == x, signed zeros too)
    scale = np.full(shape, 0.5, dtype=dtype)
    shift = np.full(shape, 0.5, dtype=dtype)
    scale[2] = 1.0
    shift[2] = -0.0
    hw = np.empty((*lead, 4 * hsz), dtype=dtype)
    hw_gates = np.moveaxis(hw.reshape(*lead, 4, hsz), -2, 0)
    return wh, hw, hw_gates, bias, scale, shift


def _lstm_step(h_prev, c_prev, operands, act, c, tc, h):
    """The gate math of one step, for any leading batch shape, given the
    input already projected, x_t W_x, in ``act`` as (4, *batch, H), gate
    k's columns in act[k]:

        [i f g o] = x_t W_x + h_prev W_h + (b_x + b_h)   (pre-activations)
        i, f, o = sigmoid(.),  g = tanh(.)
        c = f * c_prev + i * g
        h = o * tanh(c)

    ``operands`` come from ``_step_operands``.  Overwrites ``act`` with the
    gate activations, each gate one contiguous (*batch, H) block, and
    writes c, tanh(c) and h into the last three arguments.  h_prev W_h is
    the GEMM of the fused layout; one strided add moves it gate-major.  All
    four gates then go through one tanh, act = scale * tanh(scale * act) +
    shift, which is ``sigmoid`` on i, f and o and tanh on g.  Each value
    comes from the same operations on the same operands, in the same order,
    as with the gates in the fused column blocks, so it is bit for bit the
    same.  (A per-gate GEMM on (H, H) blocks of W_h is not: BLAS sums the
    narrower product in another order for some shapes.)
    """
    wh, hw, hw_gates, bias, scale, shift = operands
    np.matmul(h_prev, wh, out=hw)
    np.add(act, hw_gates, out=act)
    act += bias
    act *= scale
    np.tanh(act, out=act)
    act *= scale
    act += shift
    np.multiply(act[1], c_prev, out=c)
    c += act[0] * act[2]
    np.tanh(c, out=tc)
    np.multiply(act[3], tc, out=h)


def lstm_cell(x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
              params: LSTMCellParams):
    """One LSTM step (see ``_lstm_step``), the same code ``lstm_sequence``
    runs at every time step.

    Returns (h, c, cache) with gate activations cached.
    """
    params.check_shapes()
    if x_t.shape[-1] != params.input_size:
        raise ShapeMismatch(f"x_t dim {x_t.shape[-1]} != input size {params.input_size}")
    if h_prev.shape[-1] != params.hidden_size or c_prev.shape != h_prev.shape:
        raise ShapeMismatch("state shapes inconsistent with hidden size")
    hsz = params.hidden_size
    lead = h_prev.shape[:-1]
    xw = (x_t @ params.W_x).reshape(*lead, 4, hsz)
    act = np.ascontiguousarray(np.moveaxis(xw, -2, 0))
    c, tc, h_t = (np.empty(h_prev.shape, dtype=xw.dtype) for _ in range(3))
    _lstm_step(h_prev, c_prev, _step_operands(params, xw.dtype, lead), act, c, tc, h_t)
    i, f, g, o = act
    cache = (x_t, h_prev, c_prev, i, f, g, o, tc)
    return h_t, c, cache


def lstm_sequence(x: np.ndarray, params: LSTMCellParams):
    """Run the cell over a full sequence from the zero state; returns
    (h_seq, cache).

    h_seq holds every hidden state: (T, H) for a single sequence, (B, T, H)
    for a batch.  The input projection x W_x is one GEMM over all T*B rows,
    copied once into gate-major steps (T, 4, B, H).  The cache holds the
    input as given, (B, T, D), and the states, tanh(c) and the gate
    activations time-major, the gates gate-major: acts[t, k] is gate
    GATE_ORDER[k] at step t, a contiguous (B, H) block.
    """
    params.check_shapes()
    xb, single = _as_batch(x)
    b, t, d = xb.shape
    if d != params.input_size:
        raise ShapeMismatch(f"input dim {d} != {params.input_size}")
    hsz = params.hidden_size
    dtype = xb.dtype
    hs = np.empty((t + 1, b, hsz), dtype=dtype)  # hs[s] and cs[s] are step s's inputs
    cs = np.empty((t + 1, b, hsz), dtype=dtype)
    hs[0], cs[0] = 0, 0

    operands = _step_operands(params, dtype, (b,))
    xw = xb.transpose(1, 0, 2).reshape(t * b, d) @ params.W_x.astype(dtype, copy=False)
    acts = np.ascontiguousarray(xw.reshape(t, b, 4, hsz).transpose(0, 2, 1, 3))
    tcs = np.empty((t, b, hsz), dtype=dtype)
    for step in range(t):
        _lstm_step(hs[step], cs[step], operands, acts[step], cs[step + 1], tcs[step], hs[step + 1])

    cache = (xb, hs, cs, acts, tcs, single)
    h_seq = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    return (h_seq[0] if single else h_seq), cache


def lstm_sequence_backward(cache, params: LSTMCellParams, grad_h_seq: np.ndarray):
    """Backpropagation through time.

    Returns (grad_x, grad_params, grad_h0, grad_c0) where grad_params is a
    dict keyed like LSTMCellParams fields, in the same fused layout, and
    grad_h0, grad_c0 are the gradients at the zero start state.  The
    loop carries only the recurrent gradient: each gate's gradient is
    formed from the contiguous gate blocks of the cache and written into
    its column block of the fused (B, 4H) gradient row, so the recurrent
    GEMM and, after the loop, grad_x and the weight gradients (one GEMM
    each over all T*B rows) run on the fused layout.
    """
    xb, hs, cs, acts, tcs, single = cache
    t, _, b, hsz = acts.shape
    g4 = 4 * hsz
    gseq, gsingle = _as_batch(grad_h_seq)
    if gseq.shape != (b, t, hsz) or gsingle != single:
        raise ShapeMismatch(f"grad_h_seq shape {grad_h_seq.shape} mismatch")
    dtype = xb.dtype
    wx = params.W_x.astype(dtype, copy=False)
    wh_t = np.ascontiguousarray(params.W_h.T, dtype=dtype)

    d_gates = np.empty((t, b, g4), dtype=dtype)
    d_gate_major = d_gates.reshape(t, b, 4, hsz).transpose(0, 2, 1, 3)
    dh, dc = (np.zeros((b, hsz), dtype=dtype) for _ in range(2))
    dcc, tmp = (np.empty((b, hsz), dtype=dtype) for _ in range(2))
    deriv, first = (np.empty((4, b, hsz), dtype=dtype) for _ in range(2))

    for step in range(t - 1, -1, -1):
        act, tc = acts[step], tcs[step]
        dh += gseq[:, step]
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, act[3], out=dcc)
        dcc *= tmp
        dcc += dc  # dc + dh * o * (1 - tanh(c)^2)
        # each gate's derivative: s * (1 - s) for i, f and o, 1 - g^2 for g
        np.subtract(1.0, act, out=deriv)
        deriv *= act
        np.multiply(act[2], act[2], out=deriv[2])
        np.subtract(1.0, deriv[2], out=deriv[2])
        # d_gate = first * derivative, with first = dcc g, dcc c_prev, dcc i, dh tanh(c)
        np.multiply(dcc, act[2], out=first[0])
        np.multiply(dcc, cs[step], out=first[1])
        np.multiply(dcc, act[0], out=first[2])
        np.multiply(dh, tc, out=first[3])
        np.multiply(first, deriv, out=d_gate_major[step])
        np.matmul(d_gates[step], wh_t, out=dh)
        np.multiply(dcc, act[1], out=dc)

    dg2 = d_gates.reshape(t * b, g4)
    x_tm = xb.transpose(1, 0, 2).reshape(t * b, -1)
    grad_x = np.ascontiguousarray((dg2 @ wx.T).reshape(t, b, -1).transpose(1, 0, 2))
    # the two bias vectors enter the gates as a sum, so they share a gradient
    gb = dg2.sum(axis=0)  # (4H,)
    grads = {"W_x": x_tm.T @ dg2, "W_h": hs[:-1].reshape(t * b, hsz).T @ dg2,
             "b_x": gb, "b_h": gb.copy()}
    if single:
        grad_x = grad_x[0]
    return grad_x, grads, dh, dc


# ---------------------------------------------------------------------------
# Dropout (inverted: inference is the identity)
# ---------------------------------------------------------------------------


def dropout_forward(x: np.ndarray, rate: float, mode: str,
                    rng: np.random.Generator | None = None):
    """Returns (out, mask).  Training zeroes each element with probability
    ``rate`` and multiplies survivors by 1/(1-rate); inference returns the
    input unchanged and mask None.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "infer" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return x * keep * scale, keep


def dropout_backward(grad_out: np.ndarray, mask: np.ndarray | None, rate: float) -> np.ndarray:
    if mask is None:
        return grad_out
    return grad_out * mask * grad_out.dtype.type(1.0 / (1.0 - rate))


# ---------------------------------------------------------------------------
# Cross-entropy (fused with softmax for the backward pass)
# ---------------------------------------------------------------------------

_PROB_FLOOR = 1e-12


def cross_entropy(probs: np.ndarray, target_class: int) -> float:
    """-ln(probs[target]) with probabilities clamped into [1e-12, 1 - 1e-12]."""
    k = probs.shape[-1]
    if not 0 <= target_class < k:
        raise IndexOutOfRange(f"target {target_class} out of range for K={k}")
    p = float(np.clip(probs[..., target_class], _PROB_FLOOR, 1.0 - _PROB_FLOOR))
    return -np.log(p)


def cross_entropy_grad_logits(probs: np.ndarray, target_class: int) -> np.ndarray:
    """Fused softmax+CE gradient with respect to the logits: probs - onehot."""
    k = probs.shape[-1]
    if not 0 <= target_class < k:
        raise IndexOutOfRange(f"target {target_class} out of range for K={k}")
    grad = probs.astype(np.float64).copy()
    grad[..., target_class] -= 1.0
    return grad


def softmax_xent_batch(logits: np.ndarray, targets: np.ndarray):
    """Mean fused softmax cross-entropy over a batch of logits (B, K).

    Returns (loss, grad_logits) with grad already divided by the batch size.
    """
    if logits.ndim != 2:
        raise ShapeMismatch(f"logits must be (B, K), got {logits.shape}")
    b, k = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (b,):
        raise ShapeMismatch(f"targets shape {targets.shape} != ({b},)")
    if targets.min() < 0 or targets.max() >= k:
        raise IndexOutOfRange("target class out of range")
    probs = softmax(logits.astype(np.float64), axis=-1)
    picked = np.clip(probs[np.arange(b), targets], _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    loss = float(-np.log(picked).mean())
    grad = probs
    grad[np.arange(b), targets] -= 1.0
    grad /= b
    return loss, grad.astype(logits.dtype)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per parameter and the step counter; the
    decays and epsilon are the ADAM_* constants and the step size is
    ``adam_step``'s ``lr``."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def init(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float):
    """One Adam update with step size ``lr``; returns (new_params, new_state),
    inputs untouched."""
    if set(params) != set(grads):
        raise ShapeMismatch("params and grads must share keys")
    t = state.t + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    new_params = {}
    new_m = {}
    new_v = {}
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape {p.shape} for {key}")
        m = b1 * state.m[key] + (1.0 - b1) * g
        v = b2 * state.v[key] + (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[key] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        new_m[key] = m
        new_v[key] = v
    return new_params, AdamState(m=new_m, v=new_v, t=t)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(fn, inputs: list[np.ndarray], analytic: list[np.ndarray],
               eps: float = 1e-6) -> float:
    """Max relative error between central differences of ``fn`` and the
    supplied analytic gradients.

    ``fn(*inputs)`` must return a scalar; relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-9 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside sensible range")
    worst = 0.0
    for arr, grad in zip(inputs, analytic):
        if arr.shape != grad.shape:
            raise ShapeMismatch(f"analytic grad shape {grad.shape} != input {arr.shape}")
        grad = np.asarray(grad, dtype=np.float64)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            f_plus = float(fn(*inputs))
            arr[idx] = orig - eps
            f_minus = float(fn(*inputs))
            arr[idx] = orig
            if not np.isfinite(f_plus) or not np.isfinite(f_minus):
                raise NonFiniteValue("non-finite value during finite differencing")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = grad[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    if not np.isfinite(worst):
        raise NonFiniteValue("non-finite relative error")
    return worst
