from fractions import Fraction

import numpy as np
import pytest

from aslchamp.checkpoint import (
    MAGIC,
    CheckpointError,
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
    TrainState,
    build_network,
    forward,
    train,
)
from aslchamp.nn_ops import AdamState

from conftest import frame, frame_parts

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
    # version 2 kept the header outside the checksum; version 3 networks
    # stepped their LSTMs over every pooled row
    for version in (2, 3, 99):
        raw[13] = version  # version field follows the 13-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch, match=f"version {version}"):
            load_checkpoint(path)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the parsed JSON header and frame the file again with
    a correct checksum, so the checks behind the checksum see the edit."""
    version, header, payload = frame_parts(path.read_bytes(), MAGIC)
    edit(header)
    path.write_bytes(frame(MAGIC, version, header, payload))


@pytest.mark.parametrize("edit", [
    lambda h: h["config"].update(lstm1_units=h["config"]["lstm1_units"] * 2),
    lambda h: h.update(train_state={"epoch": 1, "t": 1}),
    lambda h: h["config"].update(classes=["FOO", *h["config"]["classes"][1:]]),
    lambda h: h["config"].update(classes=["COFFEE", *h["config"]["classes"][:-1]]),
    lambda h: h["config"].update(scale_factor="1/0"),
    lambda h: h["config"].pop("t_max"),
    lambda h: h.update(train_state=[1]),
    lambda h: h["config"].update(t_max=40.0),
    lambda h: h["config"].update(n_classes=9.0),
], ids=["config-widths", "train-state-without-moments", "unknown-class", "repeated-class",
        "invalid-config", "missing-config-field", "train-state-not-object", "float-size",
        "float-class-count"])
def test_manifest_disagreeing_with_config_raises_version_mismatch(tmp_path, edit):
    """A signed header that does not describe the payload is refused."""
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    _rewrite_header(path, edit)
    with pytest.raises(VersionMismatch):
        load_checkpoint_full(path)


def test_header_is_config_seed_and_train_state_only(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path, train_state=TrainState(epoch=2, adam=AdamState.init(net.params)))
    version, header, payload = frame_parts(path.read_bytes(), MAGIC)
    assert version == 4
    assert sorted(header) == ["config", "seed", "train_state"]
    assert header["train_state"] == {"epoch": 2, "t": 0}
    assert len(payload) == 3 * 8 * sum(p.size for p in net.params.values())


def test_truncated_or_bit_flipped_checkpoint_is_refused(tmp_path):
    """Every truncation and a one-bit flip at every byte (header included)
    raises a CheckpointError; nothing else escapes and nothing loads."""
    cfg = NetConfig(t_max=16, feature_dim=4, scale_factor=Fraction(1, 64), n_classes=2,
                    classes=("COFFEE", "TEA"), dtype="float32")
    net = build_network(cfg, seed=1)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path, train_state=TrainState(epoch=1, adam=AdamState.init(net.params)))
    data = path.read_bytes()
    broken = tmp_path / "broken.ckpt"

    def refused(blob):
        broken.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint_full(broken)

    for cut in range(len(data)):
        refused(data[:cut])
    bits = np.random.default_rng(0).integers(0, 8, size=len(data))
    for offset, bit in enumerate(bits):
        flipped = bytearray(data)
        flipped[offset] ^= 1 << int(bit)
        refused(bytes(flipped))


def test_train_state_round_trip_enables_exact_resume(tmp_path):
    rng = np.random.default_rng(0)
    cfg = NetConfig(t_max=40, feature_dim=12, scale_factor=Fraction(1, 32),
                    n_classes=2, classes=("COFFEE", "TEA"), dropout_rate=0.0)
    feats = [rng.standard_normal((40, 12)) * 0.2 + (0.5 if i % 2 == 0 else -0.5)
             for i in range(20)]
    data = EncodedDataset(features=feats, y=np.array([i % 2 for i in range(20)]))
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


def test_train_state_alpha_of_older_files_is_ignored(tmp_path):
    """A train state key the loader does not read ("alpha" here) is
    ignored: the file loads and resumes at the TrainConfig's rate."""
    cfg = NetConfig(t_max=16, feature_dim=4, scale_factor=Fraction(1, 64), n_classes=2,
                    classes=("COFFEE", "TEA"), dropout_rate=0.0)
    rng = np.random.default_rng(1)
    data = EncodedDataset(features=[rng.standard_normal((16, 4)) for _ in range(8)],
                          y=np.arange(8) % 2)
    tc = TrainConfig(epochs=1, batch_size=4, learning_rate=2e-3, shuffle_seed=3)
    net, _, state = train(build_network(cfg, seed=1), data, None, tc)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path, train_state=state)
    before_net, before_state = load_checkpoint_full(path)
    want, _, _ = train(before_net, data, None, tc, resume=before_state)
    _rewrite_header(path, lambda h: h["train_state"].update(alpha=0.5))
    loaded_net, loaded_state = load_checkpoint_full(path)
    assert (loaded_state.epoch, loaded_state.adam.t) == (state.epoch, state.adam.t)
    got, _, _ = train(loaded_net, data, None, tc, resume=loaded_state)
    for key in want.params:
        np.testing.assert_array_equal(got.params[key], want.params[key])


def test_checkpoint_without_train_state_loads_none(tmp_path):
    net = build_network(CFG, seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    _, state = load_checkpoint_full(path)
    assert state is None
