"""From-scratch layer primitives: forward passes and analytic backward passes.

Every operation here is written directly against its defining sums so it can
be checked against brute-force oracles and central finite differences.  Arrays
are plain numpy ndarrays; float64 is the reference precision, float32 is
supported for speed.  Time-major layouts: a single sequence is (T, D) and a
batch is (B, T, D).  Ops accept either and preserve which one they were given.
Only what the network uses is here: convolution is stride 1 with valid
padding, max pooling takes non-overlapping windows and reports each
maximum by its offset in its window, and an LSTM sequence starts from the
zero state.  Both conv ops multiply against the stored (F, k, D) kernels in
place, as one (D, F*k) view, and sum the taps from its filter-major
columns.  The first convolution also takes a ragged batch, a sequence of
(T_i, D) samples standing for the batch zero-padded to a common length
(``conv1d_ragged_forward`` and its parameter gradient): only each sample's
own rows are multiplied, and its taps are summed only over the output rows
that read them.
LSTM parameters are stored as the step reads them: W_x fused as one
(D, 4H) matrix, W_h gate-major as (4, H, H), one (H, H) block per gate.
``lstm_sequence`` is length-aware: given per-sample lengths it takes and
returns the packed form of the batch (``pack_index``, the layout of
PyTorch's ``pack_padded_sequence``), sorted longest first, and step t
multiplies only the rows of the samples still running, a prefix of step
t - 1's.  A batch without lengths runs as the packed batch of equal
lengths.  The whole input goes through W_x in one GEMM over the packed
rows before the time loop, so each step does only the recurrent product,
h W_h; the backward pass forms the input and weight gradients in one GEMM
each after the loop.  With one row a step (B = 1), h W_h is four GEMVs,
one per gate block, in reverse order on every other step, so the blocks
multiplied last are still in L2 when the next step starts (the gate-block
guard, ``_recurrent_operand``, says where); otherwise it is one product
with the fused (H, 4H) matrix, assembled once per call.  Inside the loop
the gates are gate-major, (4, n_t, H), so each gate is one contiguous
block and the element-wise work of all four gates runs as a few wide ops,
one tanh among them (sigmoid(z) = 0.5 tanh(z/2) + 0.5 on i, f and o).
Every value is formed by the same operations in the same order as with
the gates as column blocks of a (B, 4H) row, so the results are the same
bit for bit.  In a batch of two or more samples a step with one live row
is still a GEMM (``_matmul``), so a sample's states do not depend on its
batch.  ``lstm_cell`` and ``lstm_sequence`` share the single step
implementation ``_lstm_step``.
The first dense layer takes an LSTM's (B, R, H) outputs unflattened
(``dense_rows_forward``): its weight matrix stands for N >= R rows of H
values, and only the blocks that meet the R rows given are multiplied;
the others meet rows that count as zero.  The R products are added one
block at a time, in ascending order, so the zero rows that end a sample
add exact zeros, and R does not change its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, min_rows: int = 1):
    """``np.matmul(a, b, out=out)``, an ``a`` of fewer than ``min_rows`` rows
    multiplied with zero rows appended up to ``min_rows``.

    numpy hands a one-row product to GEMV, which sums in another order than
    GEMM, and OpenBLAS hands a small product to its small-matrix kernels,
    which may too; zero rows up to ``min_rows`` keep the product in the
    blocked GEMM, whose rows do not depend on how many there are.
    """
    if len(a) < min_rows:
        padded = np.zeros((min_rows, a.shape[1]), dtype=a.dtype)
        padded[:len(a)] = a
        out[...] = (padded @ b)[:len(a)]
    else:
        np.matmul(a, b, out=out)


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


# OpenBLAS multiplies a product of at most this many output cells whose
# right operand is transposed, as ``_taps`` is, in a small-matrix kernel
# that sums in another order than its blocked GEMM.
# Measured on OpenBLAS 0.3.31 (numpy's scipy-openblas wheel, DYNAMIC_ARCH),
# which ran its SkylakeX kernels there; another core may switch over
# elsewhere, and test_conv_rows_do_not_depend_on_how_many_rows_are_multiplied
# fails if so.
_SMALL_GEMM_CELLS = 1200


def _taps(kernels: np.ndarray, dtype) -> np.ndarray:
    """kernels (F, k, D_in) read in place as one (D_in, F*k) matrix, column
    f*k + a tap a of filter f: a view, no copy (unless ``dtype`` differs)."""
    f, k, d_in = kernels.shape
    return kernels.reshape(f * k, d_in).T.astype(dtype, copy=False)


def _tap_rows(taps: np.ndarray) -> int:
    """``_matmul``'s min_rows for a product with ``taps``: enough rows that
    OpenBLAS takes neither GEMV nor its small-matrix kernel, so that a row's
    product does not depend on how many rows there are."""
    return max(2, _SMALL_GEMM_CELLS // taps.shape[1] + 1)


def _sum_taps(y: np.ndarray, bias: np.ndarray, out: np.ndarray):
    """Writes out[b, t, f] = bias[f] + sum_a y[b, t + a, f, a], from the
    products y (B, T, F, k) of every input row with every tap."""
    t_out = out.shape[1]
    out[...] = bias
    for a in range(y.shape[3]):
        out += y[:, a:a + t_out, :, a]


def conv1d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out[t, f] = bias[f] + sum_{a, d} x[t + a, d] * kernels[f, a, d] (stride 1)."""
    _check_conv_shapes(x, kernels, bias)
    xb, single = _as_batch(x)
    f, k, d_in = kernels.shape
    b, t, _ = xb.shape
    # one GEMM against all taps of the stored kernels, then gather the shifted taps
    taps = _taps(kernels, xb.dtype)
    y = np.empty((b * t, f * k), dtype=xb.dtype)
    _matmul(xb.reshape(b * t, d_in), taps, y, _tap_rows(taps))
    out = np.empty((b, t - k + 1, f), dtype=xb.dtype)
    _sum_taps(y.reshape(b, t, f, k), bias, out)
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
    buffer, followed by the k - 1 zero rows (the product of a zero row) its
    last output rows read, and the taps are summed over the output rows
    that read one of its rows.  Every later output row reads zero rows
    only, so it is bias + 0.0 (the zero taps added turn a -0.0 into +0.0
    and change nothing else).  The padding is never built or multiplied.
    Every row of the GEMM is the one the padded batch's GEMM gives, so the
    output equals conv1d_forward on the zero-padded batch bit for bit.
    ``xs`` may also be a (B, T, D) array.
    """
    _check_ragged(xs, kernels, length)
    if bias.shape != (kernels.shape[0],):
        raise ShapeMismatch(f"bias shape {bias.shape} != ({kernels.shape[0]},)")
    f, k, d_in = kernels.shape
    dtype = xs[0].dtype
    taps = _taps(kernels, dtype)
    min_rows = _tap_rows(taps)
    t_out = length - k + 1
    rest = bias.astype(dtype) + dtype.type(0)
    out = np.empty((len(xs), t_out, f), dtype=dtype)
    y = np.empty((length, f * k), dtype=dtype)
    for row, x in zip(out, xs):
        n = len(x)
        live = min(n, t_out)  # the output rows that read one of the sample's rows
        _matmul(x, taps, y[:n], min_rows)
        y[n:live + k - 1] = 0
        _sum_taps(y[:live + k - 1].reshape(1, live + k - 1, f, k), bias, row[None, :live])
        row[live:] = rest
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
    """Returns (pooled, offsets) over non-overlapping windows (``stride`` must
    equal ``window``; rows past the last whole window are dropped).

    offsets[..., j, f] is the in-window position of window j's maximum, as
    uint8 for windows of up to 256 rows (the input row is j * window +
    offset); ties go to the first entry, and a window holding NaN reports
    its first NaN (numpy argmax convention).
    """
    xb, single = _as_batch(x)
    b, t, f = xb.shape
    if window < 1 or window > t:
        raise ShapeMismatch(f"window {window} invalid for T={t}")
    if stride != window:
        raise ShapeMismatch(f"stride {stride} != window {window}: windows must not overlap")
    t_out = t // window
    win = xb[:, :t_out * window].reshape(b, t_out, window, f)
    # slot by slot: a reduction over a middle axis of length 2 or 3 is slow in numpy
    out = win[:, :, 0].copy()
    for a in range(1, window):
        np.maximum(out, win[:, :, a], out=out)
    # the offset counts the window entries before the first hit
    offset = np.zeros(out.shape, dtype=np.min_scalar_type(window - 1))
    missed = np.ones(out.shape, dtype=bool)
    for a in range(window - 1):
        col = win[:, :, a]
        missed &= (col != out) & (col == col)
        offset += missed
    if single:
        return out[0], offset[0]
    return out, offset


def maxpool1d_backward(grad_out: np.ndarray, offsets: np.ndarray, input_len: int,
                       stride: int) -> np.ndarray:
    """Scatter each pooled gradient into zeros, at the input row
    ``maxpool1d_forward``'s offset selects in its window, rows j*stride to
    (j+1)*stride - 1; an offset outside 0 to stride - 1 is refused
    (ShapeMismatch).  Each input row wins at most once, so it is one
    assignment; a slot its window did not select keeps +0.0, whatever the
    gradient (inf and NaN too), and so do the rows past the last window.
    """
    gb, single = _as_batch(grad_out)
    ob, _ = _as_batch(offsets)
    if gb.shape != ob.shape:
        raise ShapeMismatch(f"grad_out {grad_out.shape} != offsets {offsets.shape}")
    b, t_out, f = gb.shape
    if stride * t_out > input_len:
        raise ShapeMismatch(f"{t_out} windows of {stride} do not fit {input_len} rows")
    if t_out and (ob.min() < 0 or ob.max() >= stride):
        raise ShapeMismatch("offset outside its pooling window")
    grad_x = np.zeros((b, input_len, f), dtype=gb.dtype)
    view = grad_x[:, :stride * t_out, :].reshape(b, t_out, stride, f)
    np.put_along_axis(view, ob[:, :, None, :], gb[:, :, None, :], axis=2)
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
    g2 = gz.reshape(-1, gz.shape[-1])
    x2 = x.reshape(len(g2), -1)  # -1 rows is ambiguous when x has 0 columns
    grad_w = x2.T @ g2
    grad_b = g2.sum(axis=0)
    grad_x = gz @ w.T
    return grad_x, grad_w, grad_b


def dense_rows_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                       activation: str | None = None):
    """``dense_forward`` of x (B, R, D) flattened to (B, R*D), against w
    (N*D, H) with N >= R standing as (N, D, H): b + sum_{r<R} x[:, r] @ w_r,
    w_r its (D, H) block r; returns (out, cache).  w's rows past R*D are
    not read; they stand for the rows of x past R, which count as zero.

    Each block's product is one matmul with K = D, into one reused (B, H)
    buffer, and the products are added in ascending r, one at a time.  So
    the rows of x past a sample's last non-zero one add an exact zero, and
    its output depends neither on R nor, for B >= 2, on the other samples
    of the batch (each product is a GEMM, whose rows do not depend on how
    many there are).  One GEMM of K = R*D would not do: BLAS picks its K
    blocks from K, so its sums would change with R.  Nor is there an
    (R, B, H) array of all the products: at B = 128 it is megabytes, and
    allocating it every step page-faults.
    """
    if x.ndim != 3:
        raise ShapeMismatch(f"x must be (B, R, D), got {x.shape}")
    n, r, d = x.shape
    if w.ndim != 2 or w.shape[0] % d or r * d > w.shape[0]:
        raise ShapeMismatch(f"x {x.shape} incompatible with w {w.shape}: "
                            f"need (N*{d}, H) with N >= {r}")
    if b.shape != (w.shape[1],):
        raise ShapeMismatch(f"bias {b.shape} != ({w.shape[1]},)")
    if activation not in (None, "tanh"):
        raise ValueError(f"unsupported activation {activation!r}")
    blocks = w[:r * d].reshape(r, d, w.shape[1])
    z = np.zeros((n, w.shape[1]), dtype=np.result_type(x, w))
    product = np.empty_like(z)
    for i in range(r):
        np.matmul(x[:, i], blocks[i], out=product)
        z += product
    z += b
    out = np.tanh(z) if activation == "tanh" else z
    return out, (x, w, out, activation)


def dense_rows_backward(cache, grad_out: np.ndarray):
    """Adjoint of ``dense_rows_forward``; returns (grad_x, grad_w, grad_b),
    grad_x (B, R, D) and grad_w in w's shape, zero in the rows past R*D."""
    x, w, out, activation = cache
    n, r, d = x.shape
    grad_x, grad_rows, grad_b = dense_backward((x.reshape(n, r * d), w[:r * d], out, activation),
                                               grad_out)
    grad_w = np.zeros(w.shape, dtype=grad_rows.dtype)
    grad_w[:r * d] = grad_rows
    return grad_x.reshape(n, r, d), grad_w, grad_b


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


@dataclass
class LSTMCellParams:
    """Gate parameters, each in the layout the step reads it in.

    W_x is (input, 4*hidden): column block k*hidden:(k+1)*hidden belongs to
    gate GATE_ORDER[k].  W_h is gate-major, (4, hidden, hidden): W_h[k] is
    gate k's recurrent block, so ``fused_w_h`` is W_h in W_x's column
    blocks.  b_x and b_h are (4*hidden,), in the same blocks; the two enter
    each gate as a sum.
    """

    W_x: np.ndarray
    W_h: np.ndarray
    b_x: np.ndarray
    b_h: np.ndarray

    GATE_ORDER = ("i", "f", "g", "o")

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[-1]

    @property
    def input_size(self) -> int:
        return self.W_x.shape[0]

    def check_shapes(self):
        h = self.hidden_size
        expected = {"W_x": (self.input_size, 4 * h), "W_h": (4, h, h),
                    "b_x": (4 * h,), "b_h": (4 * h,)}
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ShapeMismatch(f"{name} shape {getattr(self, name).shape} != {shape}")

    def fused_w_h(self, dtype) -> np.ndarray:
        """W_h as one new (hidden, 4*hidden) matrix in ``dtype``, column block
        k gate k's block."""
        h = self.hidden_size
        fused = np.empty((h, 4 * h), dtype=dtype)
        fused.reshape(h, 4, h)[...] = self.W_h.transpose(1, 0, 2)
        return fused

    @staticmethod
    def zeros(input_size: int, hidden_size: int, dtype=np.float64) -> "LSTMCellParams":
        g = 4 * hidden_size
        return LSTMCellParams(W_x=np.zeros((input_size, g), dtype=dtype),
                              W_h=np.zeros((4, hidden_size, hidden_size), dtype=dtype),
                              b_x=np.zeros(g, dtype=dtype), b_h=np.zeros(g, dtype=dtype))


# A one-row step multiplies h_prev by W_h's gate blocks, one GEMV each,
# where the hidden size is a multiple of GATE_BLOCK_WIDTH; elsewhere it
# multiplies the fused (H, 4H) matrix, assembled once per call.  At those
# widths each block's GEMV sums in the order the one GEMV over the fused
# matrix sums that column block (OpenBLAS 0.3.31, every multiple of 16 up
# to 1024, float32 and float64; at H = 4 or 100 in float32 it does not).
# The blocks are read where they are stored, and go in reverse order on
# every other step, so the blocks multiplied last are still in L2 when the
# next step starts: a GEMV over a whole W_h larger than L2 reads all of it
# from beyond L2 at every step.
GATE_BLOCK_WIDTH = 16
_GATE_ORDERS = ((0, 1, 2, 3), (3, 2, 1, 0))  # i f g o, then o g f i


def _recurrent_operand(params: LSTMCellParams, dtype, gemv: bool) -> np.ndarray:
    """W_h as the steps multiply by it, C-ordered in ``dtype``: the stored
    (4, H, H) gate blocks (not copied if already so) for a GEMV step whose
    width passes the gate-block guard, else the fused (H, 4H) matrix,
    assembled once for all steps."""
    if gemv and params.hidden_size % GATE_BLOCK_WIDTH == 0:
        return np.ascontiguousarray(params.W_h, dtype=dtype)
    return params.fused_w_h(dtype)


class _StepOperands(NamedTuple):
    """What every step of one batch shape multiplies by and adds, and its
    buffers."""

    products: tuple | None  # per step parity: (W_h gate block, hw gate block) pairs, in order
    wh: np.ndarray  # W_h as ``_recurrent_operand`` gives it
    hw: np.ndarray  # (*lead, 4H) buffer for h_prev W_h
    hw_gates: np.ndarray  # hw viewed gate-major, (4, *lead, H)
    bias: np.ndarray  # b_x + b_h, gate-major at the full step shape
    scale: np.ndarray
    shift: np.ndarray
    min_rows: int  # ``_matmul``'s, for h_prev W_h
    ig: np.ndarray  # (*lead, H) buffer for i * g


def _step_operands(params: LSTMCellParams, wh: np.ndarray, lead: tuple[int, ...],
                   min_rows: int = 1) -> _StepOperands:
    """The operands of every step of batch shape ``lead``, in wh's dtype.

    bias (b_x + b_h), scale and shift are gate-major at the full step shape:
    element-wise ops against a broadcast operand run several times slower
    than against a contiguous one of the same shape.
    """
    dtype = wh.dtype
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
    products = None
    if wh.ndim == 3:
        products = tuple(tuple((wh[k], hw_gates[k]) for k in order) for order in _GATE_ORDERS)
    return _StepOperands(products, wh, hw, hw_gates, bias, scale, shift, min_rows,
                         np.empty((*lead, hsz), dtype=dtype))


def _gate_major(rows: np.ndarray) -> np.ndarray:
    """(n, 4H) fused rows viewed gate-major, (4, n, H)."""
    return rows.reshape(len(rows), 4, -1).transpose(1, 0, 2)


def _lstm_step(xw, h_prev, c_prev, operands: _StepOperands, act, c, tc, h, parity: int = 0):
    """The gate math of one step, for any leading batch shape, given the
    input already projected, x_t W_x, as xw (4, *batch, H), gate k's
    columns in xw[k]:

        [i f g o] = x_t W_x + h_prev W_h + (b_x + b_h)   (pre-activations)
        i, f, o = sigmoid(.),  g = tanh(.)
        c = f * c_prev + i * g
        h = o * tanh(c)

    ``operands`` come from ``_step_operands``.  Writes the gate activations
    into ``act`` (4, *batch, H), each gate one contiguous (*batch, H) block,
    and c, tanh(c) and h into the last three arguments.  h_prev W_h is
    either four GEMVs, one per stored gate block, in the order of
    ``parity`` (i f g o on even steps, o g f i on odd ones), or the GEMM of
    the fused matrix, whose result one strided add moves gate-major; the
    two give the same bits where ``_recurrent_operand`` picks the blocks.
    All four gates then go through one tanh, act = scale * tanh(scale *
    act) + shift, which is ``sigmoid`` on i, f and o and tanh on g.  Each
    value comes from the same operations on the same operands, in the same
    order, as with the gates in the fused column blocks, so it is bit for
    bit the same.
    """
    products, wh, hw, hw_gates, bias, scale, shift, min_rows, ig = operands
    if products is None:
        _matmul(h_prev, wh, hw, min_rows)
    else:
        for block, out in products[parity]:
            np.matmul(h_prev, block, out=out)
    np.add(xw, hw_gates, out=act)
    act += bias
    act *= scale
    np.tanh(act, out=act)
    act *= scale
    act += shift
    np.multiply(act[1], c_prev, out=c)  # indexing: unpacking an ndarray costs more
    np.multiply(act[0], act[2], out=ig)
    c += ig
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
    xw = np.moveaxis((x_t @ params.W_x).reshape(*lead, 4, hsz), -2, 0)
    act = np.empty(xw.shape, dtype=xw.dtype)
    c, tc, h_t = (np.empty(h_prev.shape, dtype=xw.dtype) for _ in range(3))
    wh = _recurrent_operand(params, xw.dtype, gemv=math.prod(lead) == 1)
    _lstm_step(xw, h_prev, c_prev, _step_operands(params, wh, lead), act, c, tc, h_t)
    i, f, g, o = act
    cache = (x_t, h_prev, c_prev, i, f, g, o, tc)
    return h_t, c, cache


def pack_index(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(sample, step) of each row of the packed form of a batch whose sample
    i is lengths[i] steps long.

    The rows go step by step.  Within step t come the samples longer than
    t, longest first and ties in batch order, so each step's samples are a
    prefix of the step before's: PyTorch's ``pack_padded_sequence`` layout.
    ``x[sample, step]`` packs a (B, T, D) batch with T >= max(lengths), and
    ``out[sample, step] = packed`` unpacks into a zero-filled one.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or (lengths < 0).any():
        raise ShapeMismatch(f"lengths must be a 1-D array of counts, got {lengths}")
    order = np.argsort(-lengths, kind="stable")
    live = lengths[order][None, :] > np.arange(lengths.max(initial=0))[:, None]
    step, rank = np.nonzero(live)
    return order[rank], step


def _packed_steps(lengths) -> tuple[np.ndarray, int, list[tuple[int, int, int]]]:
    """(sample, n0, steps) of the packed batch of ``lengths``: ``pack_index``'s
    sample, the number n0 of samples of nonzero length, and per step its
    rows start:end and where its h_prev rows start in the state rows (n0
    zero start rows, then each packed row's output)."""
    sample, step = pack_index(lengths)
    ends = np.cumsum(np.bincount(step)).tolist()
    starts = [0] + ends[:-1]
    n0 = ends[0] if ends else 0
    prevs = [0] + [n0 + start for start in starts[:-1]]
    return sample, n0, list(zip(starts, ends, prevs))


def _step_views(xw, acts, hs, cs, tcs, n0: int, steps):
    """Per step of ``_packed_steps``: (x_t W_x gate-major, act, h_prev,
    c_prev, c, tanh(c), h), views of ``lstm_sequence``'s packed arrays.

    With one sample of nonzero length every step is one row, h_prev the row
    before h; its views come from iterating reshaped arrays, with no
    Python-level slicing per step.
    """
    n, hsz = tcs.shape
    if n0 == 1:
        hs1, cs1 = hs[:, None], cs[:, None]
        return zip(xw.reshape(n, 4, 1, hsz), acts.reshape(n, 4, 1, hsz), hs1[:-1], cs1[:-1],
                   cs1[1:], tcs[:, None], hs1[1:])
    return ((_gate_major(xw[start:end]), acts[start * 4 * hsz:end * 4 * hsz].reshape(4, -1, hsz),
             hs[prev:prev + end - start], cs[prev:prev + end - start], cs[n0 + start:n0 + end],
             tcs[start:end], hs[n0 + start:n0 + end]) for start, end, prev in steps)


def lstm_sequence(x: np.ndarray, params: LSTMCellParams, lengths=None):
    """Run the cell over each sequence from the zero state; returns
    (h_seq, cache).

    Without ``lengths``, x is one (T, D) sequence or a (B, T, D) batch of
    sequences T steps long, and h_seq holds every hidden state, (T, H) or
    (B, T, H).  With ``lengths``, sample i of a batch is lengths[i] steps
    long (0 allowed), and x and h_seq are packed: (sum(lengths), D) and
    (sum(lengths), H), row r being sample[r]'s step step[r] of
    ``pack_index(lengths)``.  A batch without lengths runs as the packed
    batch of equal lengths, its rows time-major.

    Step t multiplies only its live rows, a prefix of the previous step's.
    The input projection x W_x is one GEMM over all rows.  With two or more
    samples every product stays a GEMM (``_matmul``), so a sample's states
    do not depend on which samples share its batch.  The cache holds x as
    given and, over the packed rows, the states (after n_0 zero start rows,
    n_0 the samples of nonzero length), tanh(c) and the gate activations,
    step t's a gate-major (4, n_t, H) block of its own.
    """
    params.check_shapes()
    if lengths is None:
        xb, single = _as_batch(x)
        b, t, d = xb.shape
        xp = xb.transpose(1, 0, 2).reshape(t * b, d)
        lengths = np.full(b, t)
    else:
        single = None
        d = x.shape[-1]
        if x.ndim != 2 or len(x) != int(np.sum(lengths)):
            raise ShapeMismatch(f"packed input shape {x.shape} != (sum(lengths), D)")
        xp = x
    if d != params.input_size:
        raise ShapeMismatch(f"input dim {d} != {params.input_size}")
    _, n0, steps = _packed_steps(lengths)
    min_rows = 2 if len(lengths) > 1 else 1
    hsz = params.hidden_size
    dtype = xp.dtype
    n = len(xp)
    hs = np.empty((n0 + n, hsz), dtype=dtype)  # n0 zero start rows, then each step's output
    cs = np.empty((n0 + n, hsz), dtype=dtype)
    hs[:n0], cs[:n0] = 0, 0

    xw = np.empty((n, 4 * hsz), dtype=dtype)
    _matmul(xp, params.W_x.astype(dtype, copy=False), xw, min_rows)
    acts = np.empty(n * 4 * hsz, dtype=dtype)
    tcs = np.empty((n, hsz), dtype=dtype)
    wh = _recurrent_operand(params, dtype, gemv=min_rows == 1)
    operands, live = _step_operands(params, wh, (n0,), min_rows), n0
    for step, (xw_t, act, h_prev, c_prev, c, tc, h) in enumerate(
            _step_views(xw, acts, hs, cs, tcs, n0, steps)):
        if len(h) != live:
            live = len(h)
            operands = _step_operands(params, wh, (live,), min_rows)
        _lstm_step(xw_t, h_prev, c_prev, operands, act, c, tc, h, step & 1)

    cache = (x, hs, cs, acts, tcs, lengths, single)
    h_seq = hs[n0:]
    if single is not None:
        h_seq = np.ascontiguousarray(h_seq.reshape(t, b, hsz).transpose(1, 0, 2))
        if single:
            h_seq = h_seq[0]
    return h_seq, cache


def lstm_sequence_backward(cache, params: LSTMCellParams, grad_h_seq: np.ndarray):
    """Backpropagation through time.

    Returns (grad_x, grad_params, grad_h0, grad_c0) where grad_x has the
    shape of ``lstm_sequence``'s x (packed if it was), grad_params is a
    dict keyed like LSTMCellParams fields, each in its field's layout, and
    grad_h0, grad_c0 (B, H) are the gradients at the zero start state.
    The loop carries only the recurrent gradient over each step's live
    rows: each gate's gradient is formed from the contiguous gate blocks of
    the cache and written into its column block of the fused (n_t, 4H)
    gradient rows, so the recurrent GEMM (with W_h's transpose, assembled
    fused once per call) and, after the loop, grad_x and the weight
    gradients (one GEMM each over the packed rows) and the bias sum run on
    the fused layout and on live rows only; W_h's gradient is then
    rearranged gate-major.
    """
    x, hs, cs, acts, tcs, lengths, single = cache
    hsz = hs.shape[1]
    g4 = 4 * hsz
    sample, n0, steps = _packed_steps(lengths)
    n = len(tcs)
    min_rows = 2 if len(lengths) > 1 else 1
    if single is None:
        if grad_h_seq.shape != (n, hsz):
            raise ShapeMismatch(f"grad_h_seq shape {grad_h_seq.shape} != packed ({n}, {hsz})")
        gp = grad_h_seq
        xp = x
    else:
        gseq, gsingle = _as_batch(grad_h_seq)
        xb, _ = _as_batch(x)
        b, t, d = xb.shape
        if gseq.shape != (b, t, hsz) or gsingle != single:
            raise ShapeMismatch(f"grad_h_seq shape {grad_h_seq.shape} mismatch")
        gp = gseq.transpose(1, 0, 2).reshape(n, hsz)
        xp = xb.transpose(1, 0, 2).reshape(n, d)
    dtype = xp.dtype
    wx_t = params.W_x.astype(dtype, copy=False).T
    wh_t = np.ascontiguousarray(params.W_h.transpose(0, 2, 1), dtype=dtype).reshape(g4, hsz)

    d_gates = np.empty((n, g4), dtype=dtype)
    dh, dc = (np.zeros((n0, hsz), dtype=dtype) for _ in range(2))
    live = 0
    for start, end, prev in reversed(steps):
        m = end - start
        if m != live:
            dhm, dcm = dh[:m], dc[:m]
            dcc, tmp = (np.empty((m, hsz), dtype=dtype) for _ in range(2))
            deriv, first = (np.empty((4, m, hsz), dtype=dtype) for _ in range(2))
            live = m
        act = acts[start * g4:end * g4].reshape(4, m, hsz)
        tc = tcs[start:end]
        dhm += gp[start:end]
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dhm, act[3], out=dcc)
        dcc *= tmp
        dcc += dcm  # dc + dh * o * (1 - tanh(c)^2)
        # each gate's derivative: s * (1 - s) for i, f and o, 1 - g^2 for g
        np.subtract(1.0, act, out=deriv)
        deriv *= act
        np.multiply(act[2], act[2], out=deriv[2])
        np.subtract(1.0, deriv[2], out=deriv[2])
        # d_gate = first * derivative, with first = dcc g, dcc c_prev, dcc i, dh tanh(c)
        np.multiply(dcc, act[2], out=first[0])
        np.multiply(dcc, cs[prev:prev + m], out=first[1])
        np.multiply(dcc, act[0], out=first[2])
        np.multiply(dhm, tc, out=first[3])
        np.multiply(first, deriv, out=_gate_major(d_gates[start:end]))
        _matmul(d_gates[start:end], wh_t, dhm, min_rows)
        np.multiply(dcc, act[1], out=dcm)

    grad_x = np.empty((n, wx_t.shape[1]), dtype=dtype)
    _matmul(d_gates, wx_t, grad_x, min_rows)
    # each packed row's h_prev: its sample's row of the step before, or a zero start row
    h_prev = np.concatenate([hs[:0]] + [hs[prev:prev + end - start] for start, end, prev in steps])
    # the two bias vectors enter the gates as a sum, so they share a gradient
    gb = d_gates.sum(axis=0)  # (4H,)
    grad_wh = (h_prev.T @ d_gates).reshape(hsz, 4, hsz).transpose(1, 0, 2)
    grads = {"W_x": xp.T @ d_gates, "W_h": np.ascontiguousarray(grad_wh),
             "b_x": gb, "b_h": gb.copy()}
    grad_h0, grad_c0 = (np.zeros((len(lengths), hsz), dtype=dtype) for _ in range(2))
    grad_h0[sample[:n0]], grad_c0[sample[:n0]] = dh, dc
    if single is not None:
        grad_x = np.ascontiguousarray(grad_x.reshape(t, b, -1).transpose(1, 0, 2))
        if single:
            grad_x = grad_x[0]
    return grad_x, grads, grad_h0, grad_c0


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
