"""The sequence recognizer: two tanh conv+pool stages, two stacked LSTM
layers, then three tanh dense layers with dropout and a softmax output.

Published widths (conv 512/256, LSTM 512/256, dense 512/256/128) are the
defaults; ``scale_factor`` shrinks every width uniformly so the same shape
trains in desk time, and the dense dropout rate with it.  The output layer
starts at zero, so an untrained network predicts the exactly uniform
distribution and loss ln(K); ``train`` draws it when training starts.

Parameters live in ``ChampNet.params`` under "<layer>/<name>" keys, each in
the layout its kernel reads it in: a conv layer's kernels are ``K (F, k,
D)``, multiplied in place; an LSTM layer is ``W_x (D, 4H)``, ``b_x (4H,)``
and ``b_h (4H,)`` with gate column blocks i, f, g, o, and ``W_h (4, H,
H)``, one (H, H) block per gate in the same order.  All inference
(``forward``, ``predict``, the validation pass, and
``evaluation.evaluate``) runs through ``infer``.

The network's input is t_max rows long, but a sample may hold fewer: a
batch is a sequence of per-sample (T_i, D) feature matrices, T_i <= t_max,
each standing for itself zero-padded to t_max.  ``EncodedDataset.batch``
returns views of the samples' own matrices, with no copy and no padding,
and ``predict`` passes a sample unpadded; a (B, T, D) array is such a
sequence too.  A sample's frames end at its last non-zero row: trailing
all-zero rows (padding, or frames with both hands absent) count as
padding.  Each conv stage computes only the rows the layer above it
reads, and the first multiplies only each sample's own rows among them,
which changes no output bit.

Both LSTMs step each sample only over the pooled rows its frames reach,
ceil(n / pool) per conv + pool stage (``_stage_reach``), packed from lstm1
into lstm2; its LSTM outputs after those rows are zero.  dense1 reads the
flattened LSTM outputs only up to the batch's longest reach R: its output
is the sum, in ascending row order, of each pooled row r < R times its
(H2, H) block of ``dense1/W`` (``nn_ops.dense_rows_forward``).  The
stored ``dense1/W`` keeps all ``pooled_len(2)`` blocks, so the parameter
shapes are those of the published model.  So a sample's probabilities
depend neither on its padding nor on the other samples of its batch.
Repeating the last output over the padding instead (Keras-style masking)
lost signer-held-out accuracy; see README.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import nn_ops
from .gesture import (
    CANONICAL_NAMES,
    FEATURE_DIM,
    GestureDataset,
    GestureSample,
    SignClass,
    encode_features,
    sign_class,
)
from .nn_ops import (
    AdamState,
    LSTMCellParams,
    NonFiniteValue,
    ShapeMismatch,
    adam_step,
    conv1d_forward,
    conv1d_backward,
    conv1d_ragged_backward,
    conv1d_ragged_forward,
    dense_backward,
    dense_forward,
    dense_rows_backward,
    dense_rows_forward,
    dropout_backward,
    dropout_forward,
    lstm_sequence,
    lstm_sequence_backward,
    maxpool1d_backward,
    maxpool1d_forward,
    pack_index,
    softmax,
    softmax_xent_batch,
    tanh_backward,
)


class InvalidConfig(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


class ClassMismatch(ValueError):
    pass


class DivergenceDetected(RuntimeError):
    """Loss went non-finite; carries the last good network and report."""

    def __init__(self, message, net=None, report=None):
        super().__init__(message)
        self.net = net
        self.report = report


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetConfig:
    t_max: int = 651
    feature_dim: int = FEATURE_DIM
    conv1_filters: int = 512
    conv2_filters: int = 256
    kernel_size: int = 3
    pool: int = 2
    lstm1_units: int = 512
    lstm2_units: int = 256
    dense_units: tuple[int, int, int] = (512, 256, 128)
    dropout_rate: float = 0.6
    n_classes: int = 9
    classes: tuple[str, ...] = CANONICAL_NAMES
    scale_factor: Fraction = Fraction(1)
    dtype: str = "float64"

    def __post_init__(self):
        object.__setattr__(self, "scale_factor", Fraction(self.scale_factor))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "dense_units", tuple(self.dense_units))
        s = self.scale_factor
        if not 0 < s <= 1:
            raise InvalidConfig(f"scale_factor must be in (0, 1], got {s}")
        if self.n_classes < 2:
            raise InvalidConfig("n_classes must be >= 2")
        if len(self.classes) != self.n_classes:
            raise InvalidConfig(f"{len(self.classes)} class names != n_classes {self.n_classes}")
        positives = (self.t_max, self.feature_dim, self.conv1_filters, self.conv2_filters,
                     self.kernel_size, self.pool, self.lstm1_units, self.lstm2_units,
                     *self.dense_units, self.n_classes)
        if any(type(v) is not int or v < 1 for v in positives):
            raise InvalidConfig("all size fields must be positive integers")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.dtype not in ("float32", "float64"):
            raise InvalidConfig(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.pooled_len(2) < 1:
            raise InvalidConfig(f"t_max {self.t_max} too short for two conv+pool stages")

    def _scaled(self, width: int) -> int:
        return max(1, int(width * self.scale_factor))

    @property
    def conv1_width(self) -> int:
        return self._scaled(self.conv1_filters)

    @property
    def conv2_width(self) -> int:
        return self._scaled(self.conv2_filters)

    @property
    def lstm1_width(self) -> int:
        return self._scaled(self.lstm1_units)

    @property
    def lstm2_width(self) -> int:
        return self._scaled(self.lstm2_units)

    @property
    def dense_widths(self) -> tuple[int, int, int]:
        return tuple(self._scaled(d) for d in self.dense_units)

    def pooled_len(self, stages: int) -> int:
        t = self.t_max
        for _ in range(stages):
            t -= self.kernel_size - 1
            if t < self.pool:
                return 0
            t //= self.pool
        return t

    @property
    def flat_dim(self) -> int:
        return self.pooled_len(2) * self.lstm2_width

    @property
    def dense_dropout(self) -> float:
        """``dropout_rate`` is the rate at the published widths; it scales with them."""
        return self.dropout_rate * self.scale_factor

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_obj(self) -> dict:
        """Every field in declaration order, as JSON values: tuples become
        lists and the scale factor its string."""
        def plain(v):
            return list(v) if isinstance(v, tuple) else str(v) if isinstance(v, Fraction) else v
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_obj(obj: dict) -> "NetConfig":
        """The inverse of ``to_obj``: ``__post_init__`` restores the types."""
        return NetConfig(**{f.name: obj[f.name] for f in fields(NetConfig)})


@dataclass
class ChampNet:
    """Configuration plus the full parameter set, keyed by layer/name."""

    config: NetConfig
    params: dict[str, np.ndarray]
    seed: int


def _lstm_layers(cfg: NetConfig) -> tuple[tuple[str, int, int], ...]:
    """(name, input size, hidden size) of each LSTM layer, bottom first."""
    return (("lstm1", cfg.conv2_width, cfg.lstm1_width),
            ("lstm2", cfg.lstm1_width, cfg.lstm2_width))


def _param_shapes(cfg: NetConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    shapes["conv1/K"] = (cfg.conv1_width, cfg.kernel_size, cfg.feature_dim)
    shapes["conv1/b"] = (cfg.conv1_width,)
    shapes["conv2/K"] = (cfg.conv2_width, cfg.kernel_size, cfg.conv1_width)
    shapes["conv2/b"] = (cfg.conv2_width,)
    for layer, d_in, h in _lstm_layers(cfg):
        shapes[f"{layer}/W_x"] = (d_in, 4 * h)
        shapes[f"{layer}/W_h"] = (4, h, h)
        shapes[f"{layer}/b_x"] = (4 * h,)
        shapes[f"{layer}/b_h"] = (4 * h,)
    d_prev = cfg.flat_dim
    for i, width in enumerate(cfg.dense_widths, start=1):
        shapes[f"dense{i}/W"] = (d_prev, width)
        shapes[f"dense{i}/b"] = (width,)
        d_prev = width
    shapes["out/W"] = (d_prev, cfg.n_classes)
    shapes["out/b"] = (cfg.n_classes,)
    return shapes


def param_count(cfg: NetConfig) -> int:
    """Total learnable parameters, derived from the config alone."""
    return sum(int(np.prod(s)) for s in _param_shapes(cfg).values())


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def build_network(cfg: NetConfig, seed: int = 0) -> ChampNet:
    """Deterministic initialization from the seed.

    Conv and dense weights are plain uniform Glorot, +-sqrt(6/(fan_in +
    fan_out)); LSTM input weights are uniform +-sqrt(6/(fan_in+hidden)),
    recurrent weights +-sqrt(1/hidden); the input-side forget bias (the
    forget block of ``b_x``) starts at +1 and the output layer at zero (so an
    untrained network is exactly uniform; ``train`` draws it).  Each LSTM
    gate's block is drawn as an (H, D) and an (H, H) matrix, gate by gate in
    the order i, f, g, o, and stored transposed: into its column block of
    W_x, and as its (H, H) block of W_h.

    Plain Glorot keeps the tanh stack out of saturation: on 128 desk
    samples at scale 1/16 no conv or dense unit starts at |y| > 0.99.
    Glorot bounds multiplied by 2 (conv) and 4 (dense) started 33% of the
    dense2 and 48% of the dense3 units there, and under plain Adam the
    direction task then sat at loss ln 2 and accuracy 0.50 from epoch 2
    to 24.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dtype = cfg.np_dtype
    shapes = _param_shapes(cfg)
    params = {name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()}

    for name in ("conv1/K", "conv2/K"):
        f, k, d = shapes[name]
        params[name] = _glorot(rng, shapes[name], k * d, f, dtype)
    for layer, d, h in _lstm_layers(cfg):
        wx, wh = params[f"{layer}/W_x"], params[f"{layer}/W_h"]
        bound = np.sqrt(1.0 / h)
        for idx in range(len(LSTMCellParams.GATE_ORDER)):
            block = slice(idx * h, (idx + 1) * h)
            wx[:, block] = _glorot(rng, (h, d), d, h, dtype).T
            wh[idx] = rng.uniform(-bound, bound, size=(h, h)).astype(dtype).T
        params[f"{layer}/b_x"][h:2 * h] = 1.0  # forget gate
    for i in range(1, len(cfg.dense_widths) + 1):
        params[f"dense{i}/W"] = _glorot(rng, shapes[f"dense{i}/W"], *shapes[f"dense{i}/W"], dtype)
    return ChampNet(config=cfg, params=params, seed=seed)


def param_checksum(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(params[key].astype("<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _lstm(p: dict[str, np.ndarray], layer: str) -> LSTMCellParams:
    """The stored arrays of one LSTM layer, as the cell parameters they are."""
    return LSTMCellParams(W_x=p[f"{layer}/W_x"], W_h=p[f"{layer}/W_h"],
                          b_x=p[f"{layer}/b_x"], b_h=p[f"{layer}/b_h"])


def _coerce_batch(net: ChampNet, batch) -> np.ndarray:
    cfg = net.config
    x = np.asarray(batch)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or not 1 <= x.shape[1] <= cfg.t_max or x.shape[2] != cfg.feature_dim:
        raise ShapeMismatch(f"batch shape {x.shape} != (B, T <= {cfg.t_max}, {cfg.feature_dim})")
    return x.astype(cfg.np_dtype, copy=False)


def _stage_reach(n: int, length: int, k: int, pool: int) -> int:
    """The pooled rows of a conv + tanh + pool stage over ``length`` rows
    that its first ``n`` input rows reach: ceil(n / pool), capped at the
    pooled length.  Conv row j reads input rows j to j + k - 1, so it
    depends on the first n rows for j < n, and pooled row p on conv rows
    p * pool to p * pool + pool - 1."""
    return min(-(-n // pool), (length - k + 1) // pool)


def _reach_back(rows: int, k: int, pool: int) -> int:
    """The input rows of a conv + tanh + pool stage that its first ``rows``
    pooled rows read: pooled row p reads conv rows p * pool to p * pool +
    pool - 1, and conv row j input rows j to j + k - 1."""
    return pool * rows + k - 1


def _frames(x: np.ndarray) -> int:
    """The rows of a (T, D) sample up to its last non-zero one: trailing
    all-zero rows are padding."""
    if len(x) and x[-1].any():
        return len(x)
    live = np.flatnonzero(x.any(axis=1))
    return int(live[-1]) + 1 if len(live) else 0


def _lstm_lengths(cfg: NetConfig, frames: Sequence[int]) -> np.ndarray:
    """The pooled rows each sample's frames reach, which its LSTM steps run
    over."""
    k, pool = cfg.kernel_size, cfg.pool
    return np.array([_stage_reach(_stage_reach(n, cfg.t_max, k, pool), cfg.pooled_len(1), k, pool)
                     for n in frames], dtype=np.intp)


def _forward_full(net: ChampNet, xs: Sequence[np.ndarray], train: bool,
                  rng: np.random.Generator | None):
    """Returns (logits, probs, cache).  The softmax is computed in float64.

    ``xs`` is a sequence of B (T_i, D) feature matrices with T_i <= t_max,
    or a (B, T, D) array; rows T_i to t_max count as zero, and so do a
    sample's trailing all-zero rows (``_frames``).  Both LSTMs step each
    sample only over the pooled rows its frames reach, packed
    (``nn_ops.pack_index``); its LSTM outputs after them are zero, and
    dense1 reads the (B, R, H2) outputs up to the batch's longest reach R
    only (``nn_ops.dense_rows_forward``), a row past a sample's own reach
    adding an exact zero.  So each conv stage computes only the rows above
    it that are read (``_reach_back``): stage 2 the first R pooled rows (one
    if R is 0) from the first P1 = pool * R + k - 1 of stage 1, and stage 1
    those P1 from the first P1 * pool + k - 1 input rows.  As R is at most
    ``pooled_len(2)``, P1 is at most ``pooled_len(1)``.  Stage 1 multiplies
    each sample's own rows among them only (``conv1d_ragged_forward``), and
    a sample's later rows are cut, as no computed row reads them.  So the
    result equals that of the zero-padded (B, t_max, D) batch bit for bit.
    """
    cfg = net.config
    p = net.params
    cache: dict[str, object] = {}
    k, pool = cfg.kernel_size, cfg.pool

    frames = [_frames(x) for x in xs]
    lengths = _lstm_lengths(cfg, frames)
    reach = int(lengths.max())
    need1 = _reach_back(_reach_back(max(reach, 1), k, pool), k, pool)
    xs = [x[:min(n, need1)] for x, n in zip(xs, frames)]
    t1 = conv1d_ragged_forward(xs, p["conv1/K"], p["conv1/b"], need1)
    np.tanh(t1, out=t1)
    x2, off1 = maxpool1d_forward(t1, pool, pool)
    t2 = conv1d_forward(x2, p["conv2/K"], p["conv2/b"])
    np.tanh(t2, out=t2)
    pool2, off2 = maxpool1d_forward(t2, pool, pool)
    packed = pack_index(lengths)
    h1, lstm1_cache = lstm_sequence(pool2[packed], _lstm(p, "lstm1"), lengths)
    h2, lstm2_cache = lstm_sequence(h1, _lstm(p, "lstm2"), lengths)
    seq = np.zeros((len(xs), reach, h2.shape[1]), dtype=h2.dtype)
    seq[packed] = h2

    cache.update(xs=xs, t1=t1, off1=off1, x2=x2, t2=t2, off2=off2, packed=packed,
                 lstm1=lstm1_cache, lstm2=lstm2_cache)

    act = seq
    for i in range(1, 4):
        dense = dense_rows_forward if i == 1 else dense_forward
        act, dcache = dense(act, p[f"dense{i}/W"], p[f"dense{i}/b"], activation="tanh")
        mode = "train" if train else "infer"
        act, mask = dropout_forward(act, cfg.dense_dropout, mode, rng)
        cache[f"dense{i}"] = dcache
        cache[f"drop{i}"] = mask
    logits, out_cache = dense_forward(act, p["out/W"], p["out/b"])
    cache["out"] = out_cache
    probs = softmax(logits.astype(np.float64), axis=-1)
    return logits, probs, cache


def _backward_full(net: ChampNet, cache: dict, grad_logits: np.ndarray):
    """Parameter gradients of the batch ``_forward_full`` cached.

    dense1's input gradient is (B, R, H2), up to the batch's longest reach
    R, and its weight gradient is zero in the blocks of ``dense1/W`` past
    R.  The LSTM gradients run packed, over each sample's own pooled rows.
    Stage 2 read stage 1's pooled rows whole, so conv2's input gradient is
    theirs as it is, and conv1's kernel gradient sums each sample's own rows
    that stage 1 read only (``conv1d_ragged_backward``): the same sums as
    the full-length pass, less its zero terms, added in another order.
    """
    cfg = net.config
    p = net.params
    grads: dict[str, np.ndarray] = {}

    g, grads["out/W"], grads["out/b"] = dense_backward(cache["out"],
                                                       grad_logits.astype(cfg.np_dtype))
    for i in range(3, 0, -1):
        g = dropout_backward(g, cache[f"drop{i}"], cfg.dense_dropout)
        dense = dense_rows_backward if i == 1 else dense_backward
        g, grads[f"dense{i}/W"], grads[f"dense{i}/b"] = dense(cache[f"dense{i}"], g)

    packed = cache["packed"]
    g = g[packed]
    for layer in ("lstm2", "lstm1"):
        g, lstm_grads, _, _ = lstm_sequence_backward(cache[layer], _lstm(p, layer), g)
        grads.update((f"{layer}/{name}", val) for name, val in lstm_grads.items())

    g_pool2 = np.zeros(cache["off2"].shape, dtype=g.dtype)
    g_pool2[packed] = g
    g = maxpool1d_backward(g_pool2, cache["off2"], cache["t2"].shape[1], stride=cfg.pool)
    g = tanh_backward(cache["t2"], g)
    g, grads["conv2/K"], grads["conv2/b"] = conv1d_backward(
        cache["x2"], p["conv2/K"], g)
    g = maxpool1d_backward(g, cache["off1"], cache["t1"].shape[1], stride=cfg.pool)
    g = tanh_backward(cache["t1"], g)
    grads["conv1/K"], grads["conv1/b"] = conv1d_ragged_backward(cache["xs"], p["conv1/K"], g)
    return grads


def infer(net: ChampNet, chunks: Iterable[Sequence[np.ndarray]]) -> np.ndarray:
    """Inference-mode class probabilities (float64), one row per sample, for
    batches taken one chunk at a time: each a sequence of (T_i, D) feature
    matrices or a (B, T, D) array (T_i <= t_max, rows T_i to t_max count as
    zero).  The one inference path: ``forward``, ``predict``,
    validation and ``evaluate`` all end here.  Does not check for non-finite
    values (``forward`` does).
    """
    return np.concatenate([_forward_full(net, x, train=False, rng=None)[1] for x in chunks])


def forward(net: ChampNet, batch) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1 within 1e-9.

    ``batch`` is a (B, T, D) or (T, D) array of features with 1 <= T <=
    t_max; rows T to t_max count as zero, so a batch trimmed to its longest
    sample gives the same probabilities as the batch zero-padded to t_max.
    Inference mode: dropout is off (training runs through ``train``).
    """
    probs = infer(net, [_coerce_batch(net, batch)])
    if not np.isfinite(probs).all():
        raise NonFiniteValue("forward produced non-finite probabilities")
    return probs


# ---------------------------------------------------------------------------
# Encoded datasets and training
# ---------------------------------------------------------------------------


EVAL_CHUNK = 256  # samples per inference batch in ``evaluate`` and validation


@dataclass
class EncodedDataset:
    """Per-sample feature matrices (unpadded) with integer class targets.

    A batch of it is a list of the samples' own matrices (views, cut at
    t_max), which the network reads as they are: no batch is ever padded.
    """

    features: list[np.ndarray]
    y: np.ndarray

    def __len__(self):
        return len(self.features)

    def chunks(self, t_max: int, dtype, size: int = EVAL_CHUNK) -> Iterator[list[np.ndarray]]:
        """Every sample in order, as ``batch`` gives them, ``size`` per batch."""
        n = len(self)
        for start in range(0, n, size):
            yield self.batch(range(start, min(start + size, n)), t_max, dtype)

    def batch(self, indices, t_max: int, dtype) -> list[np.ndarray]:
        """The samples at ``indices``, each its first min(T_i, t_max) rows:
        views of the stored matrices (copies only if ``dtype`` differs).
        The network counts rows T_i to t_max as zero."""
        return [self.features[i][:t_max].astype(dtype, copy=False) for i in indices]


def _check_feature_dim(cfg: NetConfig) -> None:
    """A network that reads samples must take ``encode_features``' width."""
    if cfg.feature_dim != FEATURE_DIM:
        raise InvalidConfig(f"sample features are {FEATURE_DIM} wide, not {cfg.feature_dim}")


def encode_gesture_dataset(ds: GestureDataset, cfg: NetConfig) -> EncodedDataset:
    """Encode every sample and map labels to positions in cfg.classes."""
    if len(ds.samples) == 0:
        raise EmptyDataset("no samples to encode")
    label_index = {name: i for i, name in enumerate(cfg.classes)}
    _check_feature_dim(cfg)
    feats, ys = [], []
    for s in ds.samples:
        if s.label.name not in label_index:
            raise ClassMismatch(f"sample label {s.label.name} not in network classes")
        feats.append(encode_features(s).astype(cfg.np_dtype))
        ys.append(label_index[s.label.name])
    return EncodedDataset(features=feats, y=np.array(ys, dtype=np.int64))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 512
    learning_rate: float = 1e-3
    shuffle_seed: int = 0
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.early_stop_patience is not None and self.early_stop_patience < 0:
            raise InvalidConfig(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")


@dataclass
class TrainingReport:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float | None] = field(default_factory=list)
    val_accuracy: list[float | None] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    nonmonotone_epochs: list[int] = field(default_factory=list)
    start_epoch: int = 0
    epochs_run: int = 0
    param_checksum: str = ""

    def to_obj(self, include_timings: bool = True) -> dict:
        """Every field in declaration order; without timings the epoch
        seconds read 0.0."""
        obj = asdict(self)
        if not include_timings:
            obj["epoch_seconds"] = [0.0] * len(self.epoch_seconds)
        return obj


@dataclass
class TrainState:
    """Optimizer progress persisted alongside a checkpoint for exact resume."""

    epoch: int
    adam: AdamState


def _eval_encoded(net: ChampNet, data: EncodedDataset):
    """Mean loss and accuracy in inference mode."""
    cfg = net.config
    n = len(data)
    probs = infer(net, data.chunks(cfg.t_max, cfg.np_dtype))
    nll = -np.log(np.clip(probs[np.arange(n), data.y], 1e-12, 1.0))
    total_loss = sum(float(nll[start:start + EVAL_CHUNK].sum())
                     for start in range(0, n, EVAL_CHUNK))
    return total_loss / n, int((probs.argmax(axis=1) == data.y).sum()) / n


def train(net: ChampNet, train_set: EncodedDataset, val_set: EncodedDataset | None,
          tc: TrainConfig, resume: TrainState | None = None):
    """Mini-batch Adam with the fused softmax cross-entropy.

    Returns (trained_net, report, train_state).  Without ``resume``, an
    all-zero output layer is first drawn from uniform Glorot: from a zero
    head, Adam merges classes early for good (see README).  Deterministic
    given the shuffle seed and ``net.seed``; raises DivergenceDetected
    (carrying the last finite-loss network) if the loss goes non-finite.
    The step size is ``tc.learning_rate``, on a resumed run too: ``resume``
    carries Adam's moments and step count, not its rate.
    """
    cfg = net.config
    if len(train_set) == 0:
        raise EmptyDataset("empty training set")
    if train_set.y.max() >= cfg.n_classes or train_set.y.min() < 0:
        raise ClassMismatch("training targets out of range for the configured classes")

    params = dict(net.params)
    last_good = dict(params)  # until an epoch finishes, the caller's network
    if resume is None and not params["out/W"].any():
        w = params["out/W"]
        rng = np.random.default_rng(np.random.SeedSequence((net.seed, 1)))  # its own stream
        params["out/W"] = _glorot(rng, w.shape, *w.shape, w.dtype)
    adam = resume.adam if resume is not None else AdamState.init(params)
    start_epoch = resume.epoch if resume is not None else 0
    report = TrainingReport(start_epoch=start_epoch)

    n = len(train_set)
    best_val = np.inf
    stall = 0

    for epoch in range(start_epoch + 1, start_epoch + tc.epochs + 1):
        t0 = time.perf_counter()
        order = np.random.default_rng(
            np.random.SeedSequence((tc.shuffle_seed, epoch))).permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for b_start in range(0, n, tc.batch_size):
            batch_idx = order[b_start:b_start + tc.batch_size]
            x = train_set.batch(batch_idx, cfg.t_max, cfg.np_dtype)
            targets = train_set.y[batch_idx]
            drop_rng = np.random.default_rng(
                np.random.SeedSequence((tc.shuffle_seed, epoch, b_start, 1)))
            live = ChampNet(config=cfg, params=params, seed=net.seed)
            logits, probs, cache = _forward_full(live, x, train=True, rng=drop_rng)
            loss, grad_logits = softmax_xent_batch(logits.astype(np.float64), targets)
            if not np.isfinite(loss):
                good_net = ChampNet(config=cfg, params=last_good, seed=net.seed)
                report.param_checksum = param_checksum(last_good)
                raise DivergenceDetected(
                    f"non-finite loss at epoch {epoch}", net=good_net, report=report)
            epoch_loss += loss * len(batch_idx)
            epoch_correct += int((probs.argmax(axis=1) == targets).sum())
            grads = _backward_full(live, cache, grad_logits)
            params, adam = adam_step(params, grads, adam, tc.learning_rate)

        last_good = dict(params)
        train_loss = epoch_loss / n
        report.train_loss.append(train_loss)
        report.train_accuracy.append(epoch_correct / n)
        if len(report.train_loss) > 10 and train_loss > report.train_loss[-11]:
            report.nonmonotone_epochs.append(epoch)

        stop = False
        if val_set is not None and len(val_set) > 0:
            v_loss, v_acc = _eval_encoded(ChampNet(config=cfg, params=params, seed=net.seed),
                                          val_set)
            report.val_loss.append(v_loss)
            report.val_accuracy.append(v_acc)
            if tc.early_stop_patience is not None:
                if v_loss < best_val - 1e-12:
                    best_val = v_loss
                    stall = 0
                else:
                    stall += 1
                    stop = stall > tc.early_stop_patience
        else:
            report.val_loss.append(None)
            report.val_accuracy.append(None)
        report.epoch_seconds.append(time.perf_counter() - t0)
        if stop:
            break

    report.epochs_run = len(report.train_loss)
    report.param_checksum = param_checksum(params)
    trained = ChampNet(config=cfg, params=params, seed=net.seed)
    state = TrainState(epoch=start_epoch + report.epochs_run, adam=adam)
    return trained, report, state


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


class Prediction(NamedTuple):
    label: SignClass
    confidence: float
    distribution: np.ndarray


def predict(net: ChampNet, sample: GestureSample) -> Prediction:
    """Encode, truncate to t_max, and classify one sample; argmax ties go
    to the lowest class code (numpy argmax picks the first maximum and
    cfg.classes is ordered)."""
    cfg = net.config
    _check_feature_dim(cfg)
    probs = forward(net, encode_features(sample)[:cfg.t_max])[0]
    idx = int(np.argmax(probs))
    return Prediction(label=sign_class(cfg.classes[idx]),
                      confidence=float(probs[idx]),
                      distribution=probs)
