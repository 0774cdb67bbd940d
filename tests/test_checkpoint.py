import json
import struct
from fractions import Fraction

import numpy as np
import pytest

from aslchamp.checkpoint import (
    ChecksumMismatch,
    VersionMismatch,
    load_checkpoint,
    load_checkpoint_full,
    save_checkpoint,
)
from aslchamp.net import (
    EncodedDataset,
    NetConfig,
    TrainConfig,
    build_network,
    forward,
    train,
)

CFG = NetConfig(t_max=40, feature_dim=12, scale_factor=Fraction(1, 32), n_classes=9)


def test_round_trip_preserves_every_parameter_bit(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    assert loaded.seed == net.seed
    assert set(loaded.params) == set(net.params)
    for key in net.params:
        assert loaded.params[key].tobytes() == net.params[key].tobytes()


def test_round_trip_forward_outputs_identical(tmp_path, rng):
    net = build_network(CFG, seed=3)
    net.params["out/W"] = rng.standard_normal(net.params["out/W"].shape)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    for _ in range(10):
        x = rng.standard_normal((2, 40, 12))
        np.testing.assert_array_equal(forward(net, x), forward(loaded, x))


def test_float32_round_trip(tmp_path):
    cfg = NetConfig(t_max=40, feature_dim=12, scale_factor=Fraction(1, 32),
                    dtype="float32")
    net = build_network(cfg, seed=1)
    path = tmp_path / "net32.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config.dtype == "float32"
    for key in net.params:
        assert loaded.params[key].dtype == np.float32
        assert loaded.params[key].tobytes() == net.params[key].tobytes()


def test_scaled_config_survives_round_trip(tmp_path):
    net = build_network(CFG, seed=5)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config.scale_factor == Fraction(1, 32)
    assert loaded.config.conv1_width == 16


def test_truncated_file_raises_checksum_mismatch(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    for cut in (len(raw) - 3, len(raw) // 2, 40):
        path.write_bytes(raw[:cut])
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)


def test_corrupted_payload_byte_raises_checksum_mismatch(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


def test_bad_magic_raises_version_mismatch(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOT-A-CHECKPOINT-FILE" + b"\x00" * 64)
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_unsupported_version_raises(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[13] = 99  # version field follows the 13-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the parsed JSON header and write it back; the header
    is outside the payload checksum, so only the manifest check can object."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[17:21])
    header = json.loads(raw[21:21 + header_len])
    edit(header)
    new = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(raw[:17] + struct.pack("<I", len(new)) + new + raw[21 + header_len:])


def _entry(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


@pytest.mark.parametrize("edit", [
    lambda h: _entry(h, "lstm1/W_x").update(name="lstm1/W_y"),
    lambda h: _entry(h, "dense1/W").update(shape=_entry(h, "dense1/W")["shape"][::-1]),
    lambda h: h["config"].update(lstm1_units=h["config"]["lstm1_units"] * 2),
    lambda h: h.update(train_state={"epoch": 1, "t": 1, "alpha": 1e-3, "beta1": 0.9,
                                    "beta2": 0.999, "epsilon": 1e-8}),
    lambda h: h["config"].update(classes=["FOO", *h["config"]["classes"][1:]]),
    lambda h: h["config"].update(classes=["COFFEE", *h["config"]["classes"][:-1]]),
], ids=["renamed-array", "transposed-shape", "config-widths", "train-state-without-moments",
        "unknown-class", "repeated-class"])
def test_manifest_disagreeing_with_config_raises_version_mismatch(tmp_path, edit):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    _rewrite_header(path, edit)
    with pytest.raises(VersionMismatch):
        load_checkpoint_full(path)


def test_train_state_round_trip_enables_exact_resume(tmp_path):
    rng = np.random.default_rng(0)
    cfg = NetConfig(t_max=40, feature_dim=12, scale_factor=Fraction(1, 32),
                    n_classes=2, classes=("COFFEE", "TEA"), dropout_rate=0.0)
    feats = [rng.standard_normal((40, 12)) * 0.2 + (0.5 if i % 2 == 0 else -0.5)
             for i in range(20)]
    data = EncodedDataset(features=feats, y=np.array([i % 2 for i in range(20)]),
                          signer_ids=["x"] * 20)
    net = build_network(cfg, seed=2)
    tc = TrainConfig(epochs=3, batch_size=10, shuffle_seed=7)
    straight_net, _, _ = train(net, data, None,
                               TrainConfig(epochs=6, batch_size=10, shuffle_seed=7))

    half_net, _, state = train(net, data, None, tc)
    path = tmp_path / "half.ckpt"
    save_checkpoint(half_net, path, train_state=state)
    loaded_net, loaded_state = load_checkpoint_full(path)
    assert loaded_state is not None
    assert loaded_state.epoch == 3
    assert loaded_state.adam.t == state.adam.t
    resumed_net, report, _ = train(loaded_net, data, None, tc, resume=loaded_state)
    assert report.start_epoch == 3
    for key in straight_net.params:
        np.testing.assert_array_equal(straight_net.params[key], resumed_net.params[key])


def test_checkpoint_without_train_state_loads_none(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    _, state = load_checkpoint_full(path)
    assert state is None
