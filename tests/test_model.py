"""Denoiser architecture: shapes, masking, conditioning, length classes."""

import hashlib

import numpy as np
import pytest

from snda.model import (ModelConfig, build_conditioning, denoise_logits,
                        init_model, length_class)
from snda.numerics import (Tensor, attention, concat, ffn, grad_check, linear, no_grad,
                           softmax_array)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(v=8, N=8, d_model=30, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(v=8, N=8, mode="decoder_only")
    # the tape holds float32 and float64 only; any other dtype would cut
    # the parameters off ParamSet.flat
    for dtype in ("float16", "int32", "banana", "float128"):
        with pytest.raises(ValueError, match="dtype"):
            ModelConfig(v=8, N=8, dtype=dtype)
    cfg = ModelConfig(v=8, N=10, length_downsample=3)
    assert cfg.N_source == 10
    assert cfg.N_d == 4


DIMENSIONS = ("v", "N", "layers", "d_model", "heads", "d_ff", "N_source", "d_LP",
              "length_downsample")


@pytest.mark.parametrize("value", [8.0, True, "8", 0], ids=["float", "bool", "str", "zero"])
@pytest.mark.parametrize("name", DIMENSIONS)
def test_config_dimensions_must_be_positive_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        ModelConfig(**{"v": 8, "N": 8, name: value})


def test_config_dimensions_take_numpy_integers_as_ints():
    # as SamplerConfig and TrainConfig do, so that a checkpoint can write them
    cfg = ModelConfig(v=np.int64(8), N=np.int32(8), N_source=np.int64(6))
    assert (cfg.v, cfg.N, cfg.N_source) == (8, 8, 6)
    assert all(type(x) is int for x in (cfg.v, cfg.N, cfg.N_source))


def test_init_is_deterministic_and_head_zero():
    cfg = ModelConfig(v=8, N=8, layers=1, d_model=16, heads=2, d_ff=32)
    a = init_model(cfg, np.random.default_rng(0))
    b = init_model(cfg, np.random.default_rng(0))
    for (k, ta), (_, tb) in zip(a.params.items(), b.params.items()):
        assert np.array_equal(ta.data, tb.data), k
    # zero head: every position's logits are exactly uniform
    logits = denoise_logits(a, np.zeros(8, dtype=np.int64)).data
    assert np.allclose(logits, logits[0, 0])


def test_logits_shapes_single_and_batched(tiny_model):
    x1 = np.random.default_rng(0).integers(0, 8, size=8)
    out1 = denoise_logits(tiny_model, x1).data
    assert out1.shape == (8, 8)
    xb = np.stack([x1, x1[::-1]])
    outb = denoise_logits(tiny_model, xb).data
    assert outb.shape == (2, 8, 8)
    # a [N] input is exactly row 0 of the batched forward
    assert np.allclose(out1, outb[0], atol=1e-6)


def test_forward_is_deterministic_in_eval_mode(tiny_model):
    x = np.random.default_rng(1).integers(0, 8, size=(3, 8))
    a = denoise_logits(tiny_model, x).data
    b = denoise_logits(tiny_model, x).data
    assert np.array_equal(a, b)


def test_causal_flag_blocks_future_positions(tiny_model):
    rng = np.random.default_rng(2)
    x = rng.integers(0, 8, size=8)
    y = x.copy()
    y[5:] = (y[5:] + 1) % 8
    a = denoise_logits(tiny_model, x, causal=True).data
    b = denoise_logits(tiny_model, y, causal=True).data
    assert np.allclose(a[:5], b[:5], atol=1e-5)
    # without the causal mask the early positions do see the change
    a2 = denoise_logits(tiny_model, x).data
    b2 = denoise_logits(tiny_model, y).data
    assert not np.allclose(a2[:5], b2[:5], atol=1e-5)


def test_length_class_values():
    assert length_class(1, 2) == 0
    assert length_class(2, 2) == 0
    assert length_class(3, 2) == 1
    assert np.array_equal(length_class(np.array([4, 5, 12]), 2),
                          np.array([1, 2, 5]))


def test_build_conditioning_masks_padding(tiny_encdec):
    src = np.array([[2, 3, 4, 0, 0, 0, 0, 0]])
    cond, _ = build_conditioning(tiny_encdec, src, [3])
    # memory: the length row, then one encoding per source position
    assert cond.memory.data.shape == (1, 1 + 8, 16)
    assert cond.key_mask.tolist() == [[True] + [True] * 3 + [False] * 5]
    # what stands in the padding reaches neither the length nor the decoder
    other, _ = build_conditioning(tiny_encdec, np.array([[2, 3, 4, 7, 6, 5, 7, 6]]), [3])
    x = np.random.default_rng(0).integers(0, 8, size=8)
    assert np.allclose(denoise_logits(tiny_encdec, x, cond).data,
                       denoise_logits(tiny_encdec, x, other).data, atol=1e-6)


def test_length_logits_shapes_and_classes(tiny_encdec):
    src = np.array([[2, 3, 4, 5, 0, 0, 0, 0]])
    cond, logits = build_conditioning(tiny_encdec, src, np.array([4]))
    probs = softmax_array(logits.data)
    assert probs.shape == (1, tiny_encdec.config.N_d)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
    predicted = probs.argmax(axis=-1)
    assert 0 <= predicted[0] < tiny_encdec.config.N_d
    # without a target length the memory's length row embeds the argmax
    assert np.array_equal(cond.memory.data[0, 0],
                          tiny_encdec.params["len_emb"].data[predicted[0]])


def test_build_conditioning_teacher_forced_vs_predicted(tiny_encdec):
    src = np.array([[2, 3, 4, 0, 0, 0, 0, 0]])
    forced, forced_logits = build_conditioning(tiny_encdec, src, [3], target_length=[3])
    free, free_logits = build_conditioning(tiny_encdec, src, [3])
    assert forced.memory.data.shape == free.memory.data.shape
    assert np.array_equal(forced.memory.data[:, 1:], free.memory.data[:, 1:])
    assert np.array_equal(forced_logits.data, free_logits.data)
    assert np.array_equal(forced.memory.data[0, 0],
                          tiny_encdec.params["len_emb"].data[length_class(3, 2)])
    x = np.random.default_rng(0).integers(0, 8, size=8)
    out = denoise_logits(tiny_encdec, x, forced).data
    assert out.shape == (8, 8)


def test_conditioning_changes_decoder_output(tiny_encdec):
    x = np.random.default_rng(4).integers(0, 8, size=8)
    c1, _ = build_conditioning(tiny_encdec, np.array([[2, 3, 0, 0, 0, 0, 0, 0]]), [2])
    c2, _ = build_conditioning(tiny_encdec, np.array([[5, 6, 7, 2, 0, 0, 0, 0]]), [4])
    a = denoise_logits(tiny_encdec, x, c1).data
    b = denoise_logits(tiny_encdec, x, c2).data
    assert not np.allclose(a, b, atol=1e-5)


def test_build_conditioning_rejects_malformed_input(tiny_encdec, tiny_model):
    src = np.array([[2, 3, 4, 0, 0, 0, 0, 0]])
    for args, kwargs in [((src[0], [3]), {}),                     # a 1-D source
                         ((src, 3), {}),                          # a scalar length
                         ((src, [3, 3]), {}),                     # two lengths, one source
                         ((src, [0]), {}),                        # empty source
                         ((src, [3]), {"target_length": [0]}),    # below range
                         ((src, [3]), {"target_length": [9]}),    # beyond N
                         ((src, [3]), {"target_length": [3, 3]})]:
        with pytest.raises(ValueError):
            build_conditioning(tiny_encdec, *args, **kwargs)
    with pytest.raises(ValueError):
        build_conditioning(tiny_model, src, [3])


def test_conditioned_forward_is_pinned(tiny_encdec):
    # batched decoder logits under predicted and teacher-forced conditioning:
    # however the memory is built, these stay bit-identical
    rng = np.random.default_rng(3)
    lens = rng.integers(1, 9, size=5)
    src = np.where(np.arange(8) < lens[:, None], rng.integers(2, 8, size=(5, 8)), 0)
    x = rng.integers(0, 8, size=(5, 8))
    h = hashlib.sha256()
    for target in (None, np.array([1, 3, 5, 8, 2])):
        cond, _ = build_conditioning(tiny_encdec, src, lens, target_length=target)
        h.update(denoise_logits(tiny_encdec, x, cond).data.astype("<f4").tobytes())
    assert h.hexdigest()[:16] == "30afbb3c2a7d6bc8"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("fixture", ["tiny_model", "tiny_encdec"])
def test_logits_at_positions_equal_the_full_logits_there(request, fixture, B, dtype):
    # tiny_encdec has one layer, so its last layer is also its first, and it
    # cross-attends a padded source through a key mask
    model = request.getfixturevalue(fixture).astype(dtype)
    rng = np.random.default_rng(B)
    x = rng.integers(0, 8, size=(B, 8))
    cond = None
    if fixture == "tiny_encdec":
        lens = rng.integers(1, 8, size=B)
        src = np.where(np.arange(8) < lens[:, None], rng.integers(2, 8, size=(B, 8)), 0)
        cond, _ = build_conditioning(model, src, lens)
        assert not cond.key_mask.all()
    with no_grad():
        full = denoise_logits(model, x, cond).data
        for k in (1, 2, 5, 8):
            # each row its own positions, unsorted, once with a repeat
            pos = np.stack([rng.choice(8, k, replace=False) for _ in range(B)])
            if k == 5:
                pos[:, -1] = pos[:, 0]
            part = denoise_logits(model, x, cond, positions=pos).data
            assert part.dtype == np.dtype(dtype) and part.shape == (B, k, 8)
            assert np.array_equal(part, np.take_along_axis(full, pos[..., None], axis=1))
        one = denoise_logits(model, x[0], None if cond is None else cond.take([0]),
                             positions=pos[0]).data
        assert np.array_equal(one, part[0])


def test_positions_are_checked(tiny_model):
    x = np.zeros((2, 8), dtype=np.int64)
    with no_grad():
        for bad in ([[0, 8], [1, 2]], [[-1, 0], [1, 2]], [[0, 1]], [[[0], [1]]], [0, 1],
                    [[0.0, 1.0], [1.0, 2.0]]):
            with pytest.raises(ValueError, match="positions"):
                denoise_logits(tiny_model, x, positions=np.array(bad))
        with pytest.raises(ValueError, match="inference only"):
            denoise_logits(tiny_model, x, causal=True, positions=[[0], [1]])
        with pytest.raises(ValueError, match="inference only"):
            denoise_logits(tiny_model, x, train_mode=True, rng=np.random.default_rng(0),
                           positions=[[0], [1]])
    # outside no_grad the forward records a tape
    with pytest.raises(ValueError, match="inference only"):
        denoise_logits(tiny_model, x, positions=[[0], [1]])


def test_astype_round_trip(tiny_model):
    m64 = tiny_model.astype(np.float64)
    assert m64.config.dtype == "float64"
    for _, t in m64.params.items():
        assert t.data.dtype == np.float64
    x = np.random.default_rng(0).integers(0, 8, size=8)
    a = denoise_logits(tiny_model, x).data
    b = denoise_logits(m64, x).data
    assert np.allclose(a, b, atol=1e-5)


# ---- the sublayer nodes against float64 finite differences ------------
# Each loss squares the node's output so that every output gets its own
# gradient; the tolerance is criterion 01's float64 one.

def _node_check(build_loss, shapes, seed=0):
    rng = np.random.default_rng(seed)
    params = {name: Tensor(0.5 * rng.standard_normal(shape), requires_grad=True)
              for name, shape in shapes.items()}
    assert grad_check(lambda: build_loss(params), params, step=1e-5, full=True) <= 1e-6


_ATTN = {"wq": (4, 4), "wk": (4, 4), "wv": (4, 4), "wo": (4, 4), "bo": (4,)}


def _attend(p, x, mem, mask):
    return attention(x, mem, p["wq"], p["wk"], p["wv"], p["wo"], p["bo"], 2, mask)


def test_self_attention_node_grads():
    # x is query, key and value at once: its gradient sums all three paths
    def loss(p):
        y = _attend(p, p["x"], p["x"], None)
        return (y * y).sum()
    _node_check(loss, {"x": (2, 3, 4), **_ATTN})


def test_causal_self_attention_node_grads():
    causal = np.tril(np.ones((3, 3), dtype=bool))

    def loss(p):
        y = _attend(p, p["x"], p["x"], causal)
        return (y * y).sum()
    _node_check(loss, {"x": (2, 3, 4), **_ATTN})


def test_cross_attention_node_grads_with_padded_keys():
    # the memory is built as build_conditioning and _stack build it: a
    # length row concatenated before the encodings, read through a view
    key_mask = np.array([[True, True, True, False], [True, True, False, False]])

    def loss(p):
        memory = concat([p["len"], p["enc"]], axis=1)
        y = _attend(p, p["x"], memory.reshape(memory.shape), key_mask[:, None, None, :])
        return (y * y).sum()
    _node_check(loss, {"x": (2, 2, 4), "len": (2, 1, 4), "enc": (2, 3, 4), **_ATTN})

    # what stands in a padded key reaches neither the output nor a gradient
    rng = np.random.default_rng(1)
    p = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in _ATTN.items()}
    x = Tensor(rng.standard_normal((2, 2, 4)))
    mem = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    y = _attend(p, x, mem, key_mask[:, None, None, :])
    (y * y).sum().backward()
    assert np.all(mem.grad[~key_mask] == 0) and np.all(mem.grad[key_mask] != 0)
    mem.data[~key_mask] += 5.0
    assert np.allclose(_attend(p, x, mem, key_mask[:, None, None, :]).data, y.data)


def test_ffn_node_grads():
    def loss(p):
        y = ffn(p["x"], p["w1"], p["b1"], p["w2"], p["b2"])
        return (y * y).sum()
    _node_check(loss, {"x": (2, 3, 4), "w1": (4, 6), "b1": (6,), "w2": (6, 4), "b2": (4,)})


def test_linear_node_grads():
    def loss(p):
        y = linear(p["x"], p["w"], p["b"])
        return (y * y).sum()
    _node_check(loss, {"x": (2, 3, 4), "w": (4, 5), "b": (5,)})
