"""Work counts for the ``nn_ops`` kernels, computed from argument shapes.

These are computed, not measured.  ``gflop`` counts 2 operations per
multiply-add of the matrix products each kernel performs as implemented
(the convolution multiplies every input row, padding included), and one
operation per output element for element-wise kernels (pooling, dropout,
softmax, Adam).  ``mbytes`` is the size of every distinct array a call reads
or returns, each counted once.

``rows``/``useful_rows`` feed the useful-row fraction at ``conv1d_forward``
and ``lstm_sequence``: rows passed in that derive from real frames rather
than from the zero padding up to ``t_max``.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from aslchamp import nn_ops


def _arrays(obj, seen: dict[int, int]):
    if isinstance(obj, np.ndarray):
        seen.setdefault(id(obj), obj.nbytes)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _arrays(item, seen)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            _arrays(getattr(obj, name), seen)


def _mbytes(bound: dict, result) -> float:
    seen: dict[int, int] = {}
    _arrays(tuple(bound.values()), seen)
    _arrays(result, seen)
    return sum(seen.values()) / 1e6


def _btd(x: np.ndarray) -> tuple[int, int, int]:
    return (1, *x.shape) if x.ndim == 2 else x.shape


class RowTracker:
    """Lengths of the real rows in the batch currently flowing through the net.

    At the network input (last dim = feature_dim) padding rows are all zero,
    so each row's length is read off the data.  Deeper layers see the same
    batch after each conv+pool stage halved it, so their lengths follow by
    ceiling division by pool per stage.
    """

    def __init__(self, feature_dim: int, pool: int):
        self.feature_dim = feature_dim
        self.pool = pool
        self.lengths: np.ndarray | None = None
        self.t_input = 0

    def count(self, x: np.ndarray) -> tuple[int, int]:
        b, t, d = _btd(x)
        xb = x.reshape(b, t, d)
        if d == self.feature_dim:
            real = xb.any(axis=2)
            last = t - np.argmax(real[:, ::-1], axis=1)
            self.lengths = np.where(real.any(axis=1), last, 0)
            self.t_input = t
            return b * t, int(self.lengths.sum())
        if self.lengths is None or len(self.lengths) != b:
            return b * t, b * t
        stage = round(math.log(self.t_input / t, self.pool))
        useful = np.minimum(t, -(-self.lengths // self.pool ** stage))
        return b * t, int(useful.sum())


def _counter(fn, flops, row_arg=None):
    sig = inspect.signature(fn)

    def count(rows: RowTracker, args, kwargs, result) -> dict[str, float]:
        bound = sig.bind(*args, **kwargs).arguments
        out = {"gflop": flops(bound, result) / 1e9, "mbytes": _mbytes(bound, result)}
        if row_arg is not None:
            out["rows"], out["useful_rows"] = rows.count(bound[row_arg])
        return out
    return count


def _conv_fwd(a, out):
    b, t, d = _btd(a["x"])
    f, k, _ = a["kernels"].shape
    return 2 * b * t * d * k * f


def _conv_bwd(a, out):
    b, t, d = _btd(a["x"])
    f, k, _ = a["kernels"].shape
    gemms = 2 if a.get("need_input_grad", True) else 1
    return gemms * 2 * b * t * d * k * f


def _lstm_fwd(a, out):
    b, t, d = _btd(a["x"])
    h = a["params"].hidden_size
    return 2 * b * t * (d + h) * 4 * h


def _lstm_bwd(a, out):
    xb = a["cache"][0]
    b, t, d = _btd(xb)
    h = a["params"].hidden_size
    return 4 * b * t * (d + h) * 4 * h


def _dense_fwd(a, out):
    n, m = a["w"].shape
    return 2 * (a["x"].size // n) * n * m


def _dense_bwd(a, out):
    x, w = a["cache"][0], a["cache"][1]
    n, m = w.shape
    return 4 * (x.size // n) * n * m


def _elements_out(a, out):
    first = out[0] if isinstance(out, tuple) else out
    return first.size


def _dropout(a, out):
    return out[0].size if out[1] is not None else 0


def _adam(a, out):
    return 3 * sum(p.size for p in out[0].values())  # params, m, v


COUNTERS = {
    name: _counter(getattr(nn_ops, name), flops, row_arg)
    for name, flops, row_arg in (
        ("conv1d_forward", _conv_fwd, "x"),
        ("conv1d_backward", _conv_bwd, None),
        ("maxpool1d_forward", _elements_out, None),
        ("maxpool1d_backward", _elements_out, None),
        ("lstm_sequence", _lstm_fwd, "x"),
        ("lstm_sequence_backward", _lstm_bwd, None),
        ("dense_forward", _dense_fwd, None),
        ("dense_backward", _dense_bwd, None),
        ("dropout_forward", _dropout, None),
        ("softmax_xent_batch", lambda a, out: a["logits"].size, None),
        ("adam_step", _adam, None),
    )
}
