"""Binary checkpoint files.

The file is one ``framing`` frame (all integers little-endian):

    bytes  0..12   magic "ASLCHAMP-CKPT"
    u32            format version (2)
    u32            header length in bytes
    header         UTF-8 JSON: config, seed, dtype, array manifest
                   (name + shape per array), optional train_state
    payload        arrays concatenated in manifest order, little-endian,
                   32- or 64-bit floats as declared by the header dtype
    u64 tail       first 8 bytes of SHA-256 over the payload

The arrays are the network parameters under their ``net.params`` names, in
sorted order, then with a train_state the Adam moments as ``adam.m/<name>``
and ``adam.v/<name>``.  Version 2 stores each LSTM layer as the four fused
arrays ``W_x (D, 4H)``, ``W_h (H, 4H)``, ``b_x (4H,)`` and ``b_h (4H,)``;
version 1 files (16 per-gate arrays per layer) are refused.

Loading verifies magic, version, and checksum, that the config's classes
are distinct ``gesture.VOCABULARY`` signs, and that the manifest names
exactly the arrays, with the shapes, that the header's config implies (the
header is outside the checksum); a round-trip preserves every parameter bit,
so predictions after load are identical.
"""

from __future__ import annotations

import os

import numpy as np

from .framing import FrameReader, write_frame
from .gesture import VOCABULARY
from .net import ChampNet, NetConfig, TrainState, _param_shapes
from .nn_ops import AdamState

MAGIC = b"ASLCHAMP-CKPT"
FORMAT_VERSION = 2


class CheckpointError(Exception):
    pass


class VersionMismatch(CheckpointError):
    pass


class ChecksumMismatch(CheckpointError):
    pass


def _le_dtype(dtype: str) -> np.dtype:
    return np.dtype("<f4" if dtype == "float32" else "<f8")


def save_checkpoint(net: ChampNet, path: str | os.PathLike,
                    train_state: TrainState | None = None) -> None:
    cfg = net.config
    le = _le_dtype(cfg.dtype)
    arrays: list[tuple[str, np.ndarray]] = [(k, net.params[k]) for k in sorted(net.params)]
    if train_state is not None:
        for group, tensors in (("adam.m", train_state.adam.m), ("adam.v", train_state.adam.v)):
            arrays.extend((f"{group}/{k}", tensors[k]) for k in sorted(tensors))

    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    header = {
        "config": cfg.to_obj(),
        "seed": net.seed,
        "dtype": cfg.dtype,
        "arrays": manifest,
        "train_state": None if train_state is None else {
            "epoch": train_state.epoch,
            "t": train_state.adam.t,
            "alpha": train_state.adam.alpha,
            "beta1": train_state.adam.beta1,
            "beta2": train_state.adam.beta2,
            "epsilon": train_state.adam.epsilon,
        },
    }
    with open(path, "wb") as fh:
        write_frame(fh, MAGIC, FORMAT_VERSION, header,
                    (np.ascontiguousarray(arr, dtype=le) for _, arr in arrays))


def load_checkpoint_full(path: str | os.PathLike):
    """Returns (ChampNet, TrainState | None)."""
    with open(path, "rb") as fh:
        frame = FrameReader(fh, MAGIC, FORMAT_VERSION,
                            wrong_kind=VersionMismatch, corrupt=ChecksumMismatch)
        header = frame.header
        le = _le_dtype(header["dtype"])
        dims = [tuple(entry["shape"]) for entry in header["arrays"]]
        frame.expect_payload(sum(int(np.prod(shape)) for shape in dims) * le.itemsize)
        raw = [frame.read_array(shape, le) for shape in dims]
        frame.verify()

    cfg = NetConfig.from_obj(header["config"])
    if cfg.dtype != header["dtype"]:
        raise VersionMismatch("header dtype disagrees with config dtype")
    unknown = set(cfg.classes) - {s.name for s in VOCABULARY}
    if unknown:
        raise VersionMismatch(f"config names classes outside the vocabulary: {sorted(unknown)}")
    if len(set(cfg.classes)) != len(cfg.classes):
        raise VersionMismatch("config names a class more than once")
    shapes = _param_shapes(cfg)
    expected = [(name, list(shape)) for name, shape in shapes.items()]
    if header.get("train_state") is not None:
        expected += [(f"{group}/{name}", list(shape)) for group in ("adam.m", "adam.v")
                     for name, shape in shapes.items()]
    if sorted(expected) != sorted((e["name"], e["shape"]) for e in header["arrays"]):
        raise VersionMismatch("array manifest disagrees with the network config")
    arrays = {entry["name"]: arr.astype(cfg.np_dtype, copy=False)
              for entry, arr in zip(header["arrays"], raw)}

    params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    net = ChampNet(config=cfg, params=params, seed=int(header["seed"]))

    ts_obj = header.get("train_state")
    train_state = None
    if ts_obj is not None:
        moments_m = {k[len("adam.m/"):]: a for k, a in arrays.items()
                     if k.startswith("adam.m/")}
        moments_v = {k[len("adam.v/"):]: a for k, a in arrays.items()
                     if k.startswith("adam.v/")}
        adam = AdamState(m=moments_m, v=moments_v, t=int(ts_obj["t"]), alpha=ts_obj["alpha"],
                         beta1=ts_obj["beta1"], beta2=ts_obj["beta2"],
                         epsilon=ts_obj["epsilon"])
        train_state = TrainState(epoch=int(ts_obj["epoch"]), adam=adam)
    return net, train_state


def load_checkpoint(path: str | os.PathLike) -> ChampNet:
    net, _ = load_checkpoint_full(path)
    return net
