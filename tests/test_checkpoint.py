"""Binary checkpoint format: bit-exact round trips and corruption errors."""

import numpy as np
import pytest

from snda.checkpoint import (MAGIC, VERSION, CheckpointError, load_checkpoint,
                             save_checkpoint)


def _assert_round_trip(model, path):
    save_checkpoint(model, path, step=17, seed=5)
    loaded, step, seed = load_checkpoint(path)
    assert (step, seed) == (17, 5)
    assert loaded.config == model.config
    for (k, a), (_, b) in zip(model.params.items(), loaded.params.items()):
        assert a.data.dtype == b.data.dtype
        assert np.array_equal(a.data, b.data), k


def test_round_trip_bit_exact(tiny_model, tmp_path):
    _assert_round_trip(tiny_model, str(tmp_path / "m.ckpt"))


def test_float64_round_trip_bit_exact(micro_model, tmp_path):
    assert micro_model.config.dtype == "float64"
    _assert_round_trip(micro_model, str(tmp_path / "m.ckpt"))


def test_two_saves_are_identical_bytes(tiny_model, tmp_path):
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(tiny_model, p1, step=3, seed=0)
    save_checkpoint(tiny_model, p2, step=3, seed=0)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_magic_and_version(tiny_model, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(tiny_model, path)
    raw = open(path, "rb").read()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == VERSION

    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bumped = str(tmp_path / "v.ckpt")
    open(bumped, "wb").write(MAGIC + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bumped)


def test_truncated_payload_rejected(tiny_model, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(tiny_model, path)
    raw = open(path, "rb").read()
    cut = str(tmp_path / "cut.ckpt")
    open(cut, "wb").write(raw[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(cut)


def test_trailing_garbage_rejected(tiny_model, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(tiny_model, path)
    raw = open(path, "rb").read()
    fat = str(tmp_path / "fat.ckpt")
    open(fat, "wb").write(raw + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(fat)


def test_round_trip_preserves_forward(tiny_model, tmp_path):
    from snda.model import denoise_logits
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(tiny_model, path)
    loaded, _, _ = load_checkpoint(path)
    x = np.random.default_rng(0).integers(0, 8, size=(2, 8))
    assert np.array_equal(denoise_logits(tiny_model, x).data,
                          denoise_logits(loaded, x).data)


def test_oversized_header_rejected_before_allocation(tiny_model, tmp_path, monkeypatch):
    import json
    import struct

    from snda import checkpoint, model

    path = str(tmp_path / "m.ckpt")
    save_checkpoint(tiny_model, path)
    raw = open(path, "rb").read()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + meta_len])
    meta["model_config"].update(d_model=4096, d_ff=16384, layers=64)
    big = json.dumps(meta, sort_keys=True).encode("utf-8")
    hostile = str(tmp_path / "hostile.ckpt")
    open(hostile, "wb").write(raw[:8] + struct.pack("<Q", len(big)) + big + raw[16 + meta_len:])

    def no_init(*args, **kwargs):
        raise AssertionError("init_model called while loading")

    monkeypatch.setattr(model, "init_model", no_init)
    monkeypatch.setattr(checkpoint, "init_model", no_init, raising=False)
    with pytest.raises(CheckpointError, match="implies"):
        load_checkpoint(hostile)
    loaded, _, _ = load_checkpoint(path)  # a sound file still loads without init_model
    assert np.array_equal(loaded.params["tok_emb"].data, tiny_model.params["tok_emb"].data)
