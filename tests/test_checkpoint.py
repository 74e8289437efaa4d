"""Binary checkpoint format: bit-exact round trips and corruption errors."""

import json
import struct

import numpy as np
import pytest

from snda.checkpoint import (MAGIC, VERSION, CheckpointError, load_checkpoint,
                             read_checkpoint, save_checkpoint)


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


def _edit_metadata(path, out, edit):
    """Write to `out` the checkpoint at `path` with its metadata passed
    through `edit` and the parameter block unchanged."""
    raw = open(path, "rb").read()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    new = json.dumps(meta, sort_keys=True).encode("utf-8")
    open(out, "wb").write(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + meta_len:])


def _swap_first_two(meta):
    layout = meta["layout"]
    layout[0][0], layout[1][0] = layout[1][0], layout[0][0]


def _transpose_first(meta):
    meta["layout"][0][1].reverse()


def _drop_layout(meta):
    del meta["layout"]


@pytest.mark.parametrize("edit", [_swap_first_two, _transpose_first, _drop_layout],
                         ids=["swapped-names", "changed-shape", "no-layout"])
def test_layout_that_differs_from_config_rejected(tiny_model, tmp_path, edit):
    path, bad = str(tmp_path / "m.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(tiny_model, path)
    _edit_metadata(path, bad, edit)  # the parameter block keeps its size
    with pytest.raises(CheckpointError, match="layout"):
        load_checkpoint(bad)


def test_version_2_refused(tiny_model, tmp_path):
    path, old = str(tmp_path / "m.ckpt"), str(tmp_path / "v2.ckpt")
    save_checkpoint(tiny_model, path)
    raw = open(path, "rb").read()
    open(old, "wb").write(MAGIC + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(old)


@pytest.mark.parametrize("n", [0, 3, 4, 8, 15])
def test_file_shorter_than_header_rejected(tiny_model, tmp_path, n):
    path, short = str(tmp_path / "m.ckpt"), str(tmp_path / "short.ckpt")
    save_checkpoint(tiny_model, path)
    open(short, "wb").write(open(path, "rb").read()[:n])
    with pytest.raises(CheckpointError):
        load_checkpoint(short)


@pytest.mark.parametrize("dtype", ["float16", "int32"])
def test_metadata_dtype_the_tape_cannot_hold_rejected(tiny_model, tmp_path, dtype):
    path, bad = str(tmp_path / "m.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(tiny_model, path)
    _edit_metadata(path, bad, lambda meta: meta["model_config"].update(dtype=dtype))
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(bad)


def test_task_record_round_trip(tiny_encdec, tmp_path):
    path, plain = str(tmp_path / "task.ckpt"), str(tmp_path / "plain.ckpt")
    save_checkpoint(tiny_encdec, path, step=4, seed=5, task=("reverse_cipher", (2, 6)))
    save_checkpoint(tiny_encdec, plain, step=4, seed=5)
    ckpt = read_checkpoint(path)
    assert ckpt.task == ("reverse_cipher", (2, 6)) and (ckpt.step, ckpt.seed) == (4, 5)
    # the record is an optional key of the same format version
    raw = open(path, "rb").read()
    assert int.from_bytes(raw[4:8], "little") == VERSION
    assert load_checkpoint(path)[1:] == (4, 5)
    assert read_checkpoint(plain).task is None
    assert b'"task"' not in open(plain, "rb").read()


@pytest.mark.parametrize("record", [
    "copy", {"kind": "copy"}, {"kind": 3, "len_range": [2, 6]},
    {"kind": "copy", "len_range": [2]}, {"kind": "copy", "len_range": [2, 6.5]},
], ids=["string", "no-range", "kind-int", "short-range", "float-range"])
def test_malformed_task_record_rejected(tiny_encdec, tmp_path, record):
    path, bad = str(tmp_path / "m.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(tiny_encdec, path)
    _edit_metadata(path, bad, lambda meta: meta.update(task=record))
    with pytest.raises(CheckpointError, match="metadata"):
        read_checkpoint(bad)


@pytest.mark.parametrize("kind", [float, lambda _: True, str], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", ["v", "N", "layers", "d_model", "heads", "d_ff", "N_source",
                                  "d_LP", "length_downsample"])
def test_metadata_dimension_that_is_not_an_integer_rejected(tiny_model, tmp_path, name, kind):
    path, bad = str(tmp_path / "m.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(tiny_model, path)
    _edit_metadata(path, bad, lambda meta: meta["model_config"].update(
        {name: kind(meta["model_config"][name])}))
    with pytest.raises(CheckpointError, match=f"metadata: {name} must be an integer"):
        read_checkpoint(bad)
