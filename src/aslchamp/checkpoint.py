"""Binary checkpoint files.

The file is one ``framing`` frame (all integers little-endian):

    bytes  0..12   magic "ASLCHAMP-CKPT"
    u32            format version (5)
    u32            header length in bytes
    header         UTF-8 JSON: {"config": ..., "seed": ..., "train_state":
                   null or {"epoch", "t"}}
    payload        the network parameters under their ``net.params`` names,
                   in sorted order, each C-ordered, then with a train_state
                   the Adam moments m and v in the same order; 32- or 64-bit
                   little-endian floats as the config's dtype says
    u64 tail       first 8 bytes of SHA-256 over every byte before it

The config fixes every array's shape and dtype, so the header lists none.
An LSTM layer is the arrays ``W_x (D, 4H)``, ``b_x (4H,)`` and ``b_h
(4H,)``, with gate column blocks i, f, g, o, and the gate-major ``W_h (4,
H, H)``.  Files of earlier versions are refused with ``VersionMismatch``;
there is no converter, so retrain.  Version 5 came with the gate-major
``W_h``: a version 4 file stores it as one (H, 4H) matrix, the same bytes
in another order.  Version 4 came with the packed LSTMs: a version 3 file
holds parameters of the same shapes, but its network stepped every sample
over all pooled rows, so the same bytes would now predict differently.
The train state holds no learning rate: a resumed run takes it from its
``TrainConfig``, and a key it does not read is ignored.

Loading verifies magic, version and checksum before it reads the header,
then that the config is valid, that its classes are distinct
``gesture.VOCABULARY`` signs, and that the payload is the size the config
implies.  The parameters are views of the verified payload, so a round trip
preserves every bit and predictions after load are identical.
"""

from __future__ import annotations

import os

import numpy as np

from .framing import read_frame, write_frame
from .gesture import VOCABULARY
from .net import ChampNet, NetConfig, TrainState, _param_shapes
from .nn_ops import AdamState

MAGIC = b"ASLCHAMP-CKPT"
FORMAT_VERSION = 5


class CheckpointError(Exception):
    pass


class VersionMismatch(CheckpointError):
    pass


class ChecksumMismatch(CheckpointError):
    pass


def save_checkpoint(net: ChampNet, path: str | os.PathLike,
                    train_state: TrainState | None = None) -> None:
    cfg = net.config
    le = np.dtype(cfg.np_dtype).newbyteorder("<")
    groups = [net.params]
    if train_state is not None:
        groups += [train_state.adam.m, train_state.adam.v]
    header = {
        "config": cfg.to_obj(),
        "seed": net.seed,
        "train_state": None if train_state is None else {
            "epoch": train_state.epoch,
            "t": train_state.adam.t,
        },
    }
    with open(path, "wb") as fh:
        write_frame(fh, MAGIC, FORMAT_VERSION, header,
                    (np.ascontiguousarray(group[k], dtype=le)
                     for group in groups for k in sorted(group)))


def load_checkpoint_full(path: str | os.PathLike):
    """Returns (ChampNet, TrainState | None)."""
    with open(path, "rb") as fh:
        header, payload = read_frame(fh, MAGIC, FORMAT_VERSION,
                                     wrong_kind=VersionMismatch, corrupt=ChecksumMismatch)
    try:
        cfg = NetConfig.from_obj(header["config"])
        seed = int(header["seed"])
        ts_obj = header.get("train_state")
        if ts_obj is not None:
            epoch, t = int(ts_obj["epoch"]), int(ts_obj["t"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:  # InvalidConfig too
        raise VersionMismatch(f"header does not describe a network: {e!r}") from e
    unknown = set(cfg.classes) - {s.name for s in VOCABULARY}
    if unknown:
        raise VersionMismatch(f"config names classes outside the vocabulary: {sorted(unknown)}")
    if len(set(cfg.classes)) != len(cfg.classes):
        raise VersionMismatch("config names a class more than once")

    le = np.dtype(cfg.np_dtype).newbyteorder("<")
    shapes = sorted(_param_shapes(cfg).items())
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    groups = 1 if ts_obj is None else 3  # the parameters, then Adam's m and v
    nbytes = groups * sum(sizes) * le.itemsize
    if payload.size != nbytes:
        raise VersionMismatch(f"the config implies a {nbytes}-byte payload, "
                              f"file holds {payload.size}")
    offsets = np.cumsum(sizes)[:-1]
    arrays = [{name: part.reshape(shape)
               for (name, shape), part in zip(shapes, np.split(row, offsets))}
              for row in payload.view(le).reshape(groups, -1)]

    net = ChampNet(config=cfg, params=arrays[0], seed=seed)
    if ts_obj is None:
        return net, None
    adam = AdamState(m=arrays[1], v=arrays[2], t=t)
    return net, TrainState(epoch=epoch, adam=adam)


def load_checkpoint(path: str | os.PathLike) -> ChampNet:
    net, _ = load_checkpoint_full(path)
    return net
