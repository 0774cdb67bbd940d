"""Binary checkpoint files.

Layout (all integers little-endian):

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

Loading verifies magic, version, and checksum, and that the manifest names
exactly the arrays, with the shapes, that the header's config implies (the
header is outside the checksum); a round-trip preserves every parameter bit,
so predictions after load are identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

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


def _payload_checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:8]


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
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(arr).astype(le).tobytes() for _, arr in arrays)

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(_payload_checksum(payload))


def _read_exact(data: bytes, offset: int, size: int, what: str) -> bytes:
    if offset + size > len(data):
        raise ChecksumMismatch(f"truncated checkpoint: missing {what}")
    return data[offset:offset + size]


def load_checkpoint_full(path: str | os.PathLike):
    """Returns (ChampNet, TrainState | None)."""
    with open(path, "rb") as fh:
        data = fh.read()

    magic = _read_exact(data, 0, len(MAGIC), "magic")
    if magic != MAGIC:
        raise VersionMismatch(f"not a checkpoint file (magic {magic!r})")
    version, header_len = struct.unpack("<II", _read_exact(data, len(MAGIC), 8, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {version}")
    offset = len(MAGIC) + 8
    header_bytes = _read_exact(data, offset, header_len, "header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ChecksumMismatch(f"corrupt header: {e}") from e
    offset += header_len

    le = _le_dtype(header["dtype"])
    sizes = [int(np.prod(entry["shape"])) if entry["shape"] else 1
             for entry in header["arrays"]]
    payload_len = sum(sizes) * le.itemsize
    payload = _read_exact(data, offset, payload_len, "payload")
    tail = _read_exact(data, offset + payload_len, 8, "checksum")
    if len(data) != offset + payload_len + 8:
        raise ChecksumMismatch("trailing bytes after checksum")
    if _payload_checksum(payload) != tail:
        raise ChecksumMismatch("payload checksum mismatch")

    cfg = NetConfig.from_obj(header["config"])
    if cfg.dtype != header["dtype"]:
        raise VersionMismatch("header dtype disagrees with config dtype")
    shapes = _param_shapes(cfg)
    expected = [(name, list(shape)) for name, shape in shapes.items()]
    if header.get("train_state") is not None:
        expected += [(f"{group}/{name}", list(shape)) for group in ("adam.m", "adam.v")
                     for name, shape in shapes.items()]
    if sorted(expected) != sorted((e["name"], e["shape"]) for e in header["arrays"]):
        raise VersionMismatch("array manifest disagrees with the network config")
    arrays: dict[str, np.ndarray] = {}
    pos = 0
    for entry, size in zip(header["arrays"], sizes):
        raw = np.frombuffer(payload, dtype=le, count=size, offset=pos * le.itemsize)
        arrays[entry["name"]] = raw.astype(cfg.np_dtype).reshape(entry["shape"]).copy()
        pos += size

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
