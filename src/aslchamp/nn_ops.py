"""From-scratch layer primitives: forward passes and analytic backward passes.

Every operation here is written directly against its defining sums so it can
be checked against brute-force oracles and central finite differences.  Arrays
are plain numpy ndarrays; float64 is the reference precision, float32 is
supported for speed.  Time-major layouts: a single sequence is (T, D) and a
batch is (B, T, D).  Ops accept either and preserve which one they were given.
LSTM parameters are stored fused, one (D, 4H) and one (H, 4H) matrix per
layer.  ``lstm_sequence`` projects the whole input through W_x in one
(B*T, D) x (D, 4H) GEMM before the time loop, so each step does one gate
GEMM, h W_h; its backward pass forms the input gradient in one GEMM after
the loop.  ``lstm_cell`` and ``lstm_sequence`` share the single step
implementation ``_lstm_step``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
# 1-D convolution over time (valid padding)
# ---------------------------------------------------------------------------


def conv1d_out_len(t: int, k: int, stride: int) -> int:
    return (t - k) // stride + 1


def _check_conv_shapes(x, kernels, bias, stride):
    if kernels.ndim != 3:
        raise ShapeMismatch(f"kernels must be (F, k, D_in), got {kernels.shape}")
    f, k, d_in = kernels.shape
    if x.shape[-1] != d_in:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != kernel dim {d_in}")
    if bias.shape != (f,):
        raise ShapeMismatch(f"bias shape {bias.shape} != ({f},)")
    if stride < 1:
        raise ShapeMismatch(f"stride must be >= 1, got {stride}")
    if x.shape[-2] < k:
        raise ShapeMismatch(f"sequence length {x.shape[-2]} shorter than kernel {k}")


def conv1d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                   stride: int = 1) -> np.ndarray:
    """out[t, f] = bias[f] + sum_{a, d} x[t*stride + a, d] * kernels[f, a, d]."""
    _check_conv_shapes(x, kernels, bias, stride)
    xb, single = _as_batch(x)
    f, k, d_in = kernels.shape
    b, t, _ = xb.shape
    t_out = conv1d_out_len(t, k, stride)
    # one GEMM against all taps at once, then gather the shifted tap planes
    k2 = kernels.transpose(2, 1, 0).reshape(d_in, k * f).astype(xb.dtype)  # (D, k*F)
    y = (xb.reshape(b * t, d_in) @ k2).reshape(b, t, k, f)
    out = np.broadcast_to(bias.astype(xb.dtype), (b, t_out, f)).copy()
    last = (t_out - 1) * stride + 1
    for a in range(k):
        out += y[:, a:a + last:stride, a, :]
    return out[0] if single else out


def conv1d_backward(x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray,
                    stride: int = 1, need_input_grad: bool = True):
    """Adjoint of conv1d_forward; returns (grad_x, grad_kernels, grad_bias).

    grad_x is None when need_input_grad is False (first-layer shortcut).
    """
    f, k, d_in = kernels.shape
    xb, single = _as_batch(x)
    gb, gsingle = _as_batch(grad_out)
    if single != gsingle or gb.shape[0] != xb.shape[0] or gb.shape[-1] != f:
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} inconsistent with "
                            f"input {x.shape} and kernels {kernels.shape}")
    b, t, _ = xb.shape
    t_out = conv1d_out_len(t, k, stride)
    if gb.shape[1] != t_out:
        raise ShapeMismatch(f"grad_out T {gb.shape[1]} != expected {t_out}")

    grad_bias = gb.sum(axis=(0, 1), dtype=np.float64).astype(kernels.dtype)
    last = (t_out - 1) * stride + 1
    # scatter grad_out into zero-padded tap planes, then one GEMM per direction
    gpad = np.zeros((b, t, k, f), dtype=gb.dtype)
    for a in range(k):
        gpad[:, a:a + last:stride, a, :] = gb
    g2 = gpad.reshape(b * t, k * f)
    gk_flat = g2.T @ xb.reshape(b * t, d_in)  # (k*F, D)
    grad_k = gk_flat.reshape(k, f, d_in).transpose(1, 0, 2).astype(kernels.dtype, copy=False)

    grad_x = None
    if need_input_grad:
        k2 = kernels.transpose(1, 0, 2).reshape(k * f, d_in).astype(gb.dtype)  # (k*F, D)
        grad_x = (g2 @ k2).reshape(b, t, d_in)
        if single:
            grad_x = grad_x[0]
    return grad_x, grad_k, grad_bias


# ---------------------------------------------------------------------------
# Max pooling over time
# ---------------------------------------------------------------------------


def maxpool1d_forward(x: np.ndarray, window: int, stride: int):
    """Returns (pooled, argmax) where argmax holds absolute time indices.

    Ties go to the first index in the window, and a window holding NaN
    reports its first NaN (numpy argmax convention).  Non-overlapping
    windows (stride == window) are a reshape of the input to
    (B, T_out, window, F); other strides take a sliding-window view.
    """
    xb, single = _as_batch(x)
    b, t, f = xb.shape
    if window < 1 or window > t:
        raise ShapeMismatch(f"window {window} invalid for T={t}")
    if stride < 1:
        raise ShapeMismatch(f"stride must be >= 1, got {stride}")
    t_out = conv1d_out_len(t, window, stride)
    if stride == window:
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
    else:
        win = np.lib.stride_tricks.sliding_window_view(xb, window, axis=1)[:, ::stride]
        out = win.max(axis=-1)
        offset = win.argmax(axis=-1)
    starts = (np.arange(t_out) * stride)[None, :, None]
    argmax = offset + starts
    if single:
        return out[0], argmax[0]
    return out, argmax


def maxpool1d_backward(grad_out: np.ndarray, argmax: np.ndarray, input_len: int,
                       stride: int | None = None) -> np.ndarray:
    """Scatter each pooled gradient back to its recorded argmax position.

    When windows cannot overlap (stride >= window, recoverable from the
    argmax layout) the scatter is a vectorized assignment; otherwise it
    accumulates, since one input position may win several windows.
    """
    gb, single = _as_batch(grad_out)
    ab, _ = _as_batch(argmax)
    if gb.shape != ab.shape:
        raise ShapeMismatch(f"grad_out {grad_out.shape} != argmax {argmax.shape}")
    b, t_out, f = gb.shape
    grad_x = np.zeros((b, input_len, f), dtype=gb.dtype)
    if stride is not None and t_out > 0 and stride * (t_out - 1) + 1 <= input_len:
        offsets = ab - (np.arange(t_out) * stride)[None, :, None]
        if offsets.min() >= 0 and offsets.max() < stride:
            # non-overlapping windows: each input index wins at most once
            view = grad_x[:, :stride * t_out, :].reshape(b, t_out, stride, f)
            np.put_along_axis(view, offsets[:, :, None, :], gb[:, :, None, :], axis=2)
            return grad_x[0] if single else grad_x
    b_idx = np.arange(b)[:, None, None]
    f_idx = np.arange(f)[None, None, :]
    np.add.at(grad_x, (b_idx, ab, f_idx), gb)
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


def _lstm_operands(params: LSTMCellParams, dtype):
    """(W_x, W_h, b_x + b_h) in ``dtype``: what each step multiplies by and adds."""
    return (params.W_x.astype(dtype, copy=False), params.W_h.astype(dtype, copy=False),
            (params.b_x + params.b_h).astype(dtype, copy=False))


def _lstm_step(xw_t, h_prev, c_prev, wh, bias):
    """The gate math of one step, for any leading batch shape, given the
    input row already projected, ``xw_t = x_t W_x``:

        [i f g o] = xw_t + h_prev W_h + (b_x + b_h)   (pre-activations)
        i, f, o = sigmoid(.),  g = tanh(.)
        c = f * c_prev + i * g
        h = o * tanh(c)

    Returns (h, c, act, tanh(c)), where ``act`` holds i, f, g and o in the
    gate column blocks.
    """
    hsz = wh.shape[0]
    act = xw_t + h_prev @ wh
    act += bias
    act[..., :2 * hsz] = sigmoid(act[..., :2 * hsz])  # i, f
    np.tanh(act[..., 2 * hsz:3 * hsz], out=act[..., 2 * hsz:3 * hsz])  # g
    act[..., 3 * hsz:] = sigmoid(act[..., 3 * hsz:])  # o
    i, f, g, o = (act[..., k * hsz:(k + 1) * hsz] for k in range(4))
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, act, tc


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
    h_t, c, act, tc = _lstm_step(x_t @ params.W_x, h_prev, c_prev, params.W_h,
                                 params.b_x + params.b_h)
    i, f, g, o = np.split(act, 4, axis=-1)
    cache = (x_t, h_prev, c_prev, i, f, g, o, tc)
    return h_t, c, cache


def lstm_sequence(x: np.ndarray, params: LSTMCellParams,
                  h0: np.ndarray | None = None, c0: np.ndarray | None = None):
    """Run the cell over a full sequence; returns (h_seq, cache).

    h_seq holds every hidden state: (T, H) for a single sequence, (B, T, H)
    for a batch.  The input projection x W_x is one GEMM over all B*T rows;
    the states and gate activations are cached time-major.
    """
    params.check_shapes()
    xb, single = _as_batch(x)
    b, t, d = xb.shape
    if d != params.input_size:
        raise ShapeMismatch(f"input dim {d} != {params.input_size}")
    hsz = params.hidden_size
    dtype = xb.dtype
    h = np.zeros((b, hsz), dtype=dtype) if h0 is None else np.atleast_2d(h0).astype(dtype)
    c = np.zeros((b, hsz), dtype=dtype) if c0 is None else np.atleast_2d(c0).astype(dtype)
    if h.shape != (b, hsz) or c.shape != (b, hsz):
        raise ShapeMismatch("initial state shape mismatch")
    hs = np.empty((t + 1, b, hsz), dtype=dtype)  # hs[s] and cs[s] are step s's inputs
    cs = np.empty((t + 1, b, hsz), dtype=dtype)
    hs[0], cs[0] = h, c

    wx, wh, bias = _lstm_operands(params, dtype)
    xw = (xb.reshape(b * t, d) @ wx).reshape(b, t, 4 * hsz)
    acts = np.empty((t, b, 4 * hsz), dtype=dtype)
    tcs = np.empty((t, b, hsz), dtype=dtype)
    for step in range(t):
        hs[step + 1], cs[step + 1], acts[step], tcs[step] = _lstm_step(
            xw[:, step], hs[step], cs[step], wh, bias)

    cache = (xb, hs, cs, acts, tcs, single)
    h_seq = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    return (h_seq[0] if single else h_seq), cache


def lstm_sequence_backward(cache, params: LSTMCellParams, grad_h_seq: np.ndarray,
                           grad_h_last: np.ndarray | None = None,
                           grad_c_last: np.ndarray | None = None):
    """Backpropagation through time.

    Returns (grad_x, grad_params, grad_h0, grad_c0) where grad_params is a
    dict keyed like LSTMCellParams fields, in the same fused layout.  The
    loop carries only the recurrent gradient; grad_x and the weight
    gradients are one GEMM each over all B*T rows afterwards.
    """
    xb, hs, cs, acts, tcs, single = cache
    t, b, g4 = acts.shape
    hsz = g4 // 4
    gseq, gsingle = _as_batch(grad_h_seq)
    if gseq.shape != (b, t, hsz) or gsingle != single:
        raise ShapeMismatch(f"grad_h_seq shape {grad_h_seq.shape} mismatch")
    dtype = xb.dtype
    wx, wh, _ = _lstm_operands(params, dtype)
    wh_t = np.ascontiguousarray(wh.T)

    d_gates = np.empty_like(acts)
    dh = np.zeros((b, hsz), dtype=dtype) if grad_h_last is None else grad_h_last.astype(dtype)
    dc = np.zeros((b, hsz), dtype=dtype) if grad_c_last is None else grad_c_last.astype(dtype)
    h1, h2, h3 = hsz, 2 * hsz, 3 * hsz

    for step in range(t - 1, -1, -1):
        act, tc, d = acts[step], tcs[step], d_gates[step]
        i, f, g, o = act[:, :h1], act[:, h1:h2], act[:, h2:h3], act[:, h3:]
        dsig = act * (1.0 - act)  # sigmoid derivative of the i, f and o blocks
        dh = dh + gseq[:, step]
        dcc = dc + dh * o * (1.0 - tc * tc)
        d[:, :h1] = dcc * g * dsig[:, :h1]
        d[:, h1:h2] = dcc * cs[step] * dsig[:, h1:h2]
        d[:, h2:h3] = dcc * i * (1.0 - g * g)
        d[:, h3:] = dh * tc * dsig[:, h3:]
        dh = d @ wh_t
        dc = dcc * f

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


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @staticmethod
    def init(params: dict[str, np.ndarray], alpha: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0, alpha=alpha, beta1=beta1, beta2=beta2, epsilon=epsilon,
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState):
    """One Adam update; returns (new_params, new_state), inputs untouched."""
    if set(params) != set(grads):
        raise ShapeMismatch("params and grads must share keys")
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
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
        new_params[key] = p - state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)
        new_m[key] = m
        new_v[key] = v
    return new_params, replace(state, m=new_m, v=new_v, t=t)


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
