"""The denoiser network: a non-causal transformer over full sequences.

Per-position token logits are conditionally independent given the input
sequence, so one forward pass scores every position at once — there is no
causal mask in the decoder. In encoder-decoder mode a source encoder and
a target-length classifier are added; the predicted-length embedding is
prepended to the source encodings as cross-attention memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import (ParamSet, Tensor, concat, dropout, embedding,
                       layer_norm, softmax, softmax_array)

NEG_INF = -1e9


@dataclass
class ModelConfig:
    v: int
    N: int
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    d_ff: int = 256
    dropout: float = 0.1
    mode: str = "unconditional"       # or "encoder_decoder"
    N_source: int | None = None
    d_LP: int = 128
    length_downsample: int = 2
    dtype: str = "float32"

    def __post_init__(self):
        if self.mode not in ("unconditional", "encoder_decoder"):
            raise ValueError(f"unknown mode: {self.mode}")
        if min(self.v, self.N, self.layers, self.d_model, self.heads,
               self.d_ff, self.d_LP, self.length_downsample) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.N_source is None:
            self.N_source = self.N

    @property
    def N_d(self) -> int:
        return math.ceil(self.N / self.length_downsample)


@dataclass
class DenoiserModel:
    config: ModelConfig
    params: ParamSet

    def astype(self, dtype) -> "DenoiserModel":
        name = np.dtype(dtype).name
        return DenoiserModel(replace(self.config, dtype=name), self.params.astype(dtype))


@dataclass
class LengthPrediction:
    """Distribution over downsampled-length classes (class k => l_d = k+1)."""

    probs: np.ndarray
    logits: Tensor

    @property
    def predicted_class(self):
        return np.argmax(self.probs, axis=-1)


@dataclass
class Conditioning:
    encodings: Tensor           # [B, N_source, d]
    length_embedding: Tensor    # [B, d]
    source_mask: np.ndarray     # [B, N_source] bool, True = real token

    def take(self, rows) -> "Conditioning":
        """The conditioning of the given batch rows, for inference: no
        gradient flows back through the copy."""
        return Conditioning(Tensor(self.encodings.data[rows]),
                            Tensor(self.length_embedding.data[rows]),
                            self.source_mask[rows])


def length_class(content_len, downsample: int) -> np.ndarray:
    """0-based class of a target length: ceil(l / downsample) - 1."""
    return -(-np.asarray(content_len) // downsample) - 1


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    s = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape).astype(dtype)


def init_model(config: ModelConfig, rng: np.random.Generator | int) -> DenoiserModel:
    """Scaled-uniform init, zero output head (untrained logits are uniform)."""
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    dt = np.dtype(config.dtype)
    d, ff, v = config.d_model, config.d_ff, config.v
    p = ParamSet()

    def linear(name, d_in, d_out, zero=False):
        if zero:
            p.add(f"{name}.w", np.zeros((d_in, d_out), dtype=dt))
        else:
            p.add(f"{name}.w", _uniform(rng, (d_in, d_out), d_in, dt))
        p.add(f"{name}.b", np.zeros(d_out, dtype=dt))

    def ln(name):
        p.add(f"{name}.g", np.ones(d, dtype=dt))
        p.add(f"{name}.b", np.zeros(d, dtype=dt))

    def attn(name):
        for part in ("wq", "wk", "wv", "wo"):
            p.add(f"{name}.{part}", _uniform(rng, (d, d), d, dt))
        p.add(f"{name}.bo", np.zeros(d, dtype=dt))

    def block(name, cross: bool):
        ln(f"{name}.ln1")
        attn(f"{name}.self")
        if cross:
            ln(f"{name}.lnx")
            attn(f"{name}.cross")
        ln(f"{name}.ln2")
        linear(f"{name}.ff1", d, ff)
        linear(f"{name}.ff2", ff, d)

    p.add("tok_emb", _uniform(rng, (v, d), d, dt))
    p.add("pos_emb", _uniform(rng, (config.N, d), d, dt))
    cross = config.mode == "encoder_decoder"
    for i in range(config.layers):
        block(f"dec{i}", cross)
    ln("dec_ln")
    linear("head", d, v, zero=True)

    if cross:
        p.add("src_pos_emb", _uniform(rng, (config.N_source, d), d, dt))
        for i in range(config.layers):
            block(f"enc{i}", cross=False)
        ln("enc_ln")
        dlp, nd = config.d_LP, config.N_d
        linear("lp.pool", d, dlp)
        p.add("lp.srclen", _uniform(rng, (config.N_source, dlp), dlp, dt))
        for i in range(6):
            linear(f"lp.block{i}.fc1", dlp, dlp)
            linear(f"lp.block{i}.fc2", dlp, dlp)
        linear("lp.head", dlp, nd)
        p.add("len_emb", _uniform(rng, (nd, d), d, dt))

    return DenoiserModel(config, p)


def _linear(p: ParamSet, name: str, x: Tensor) -> Tensor:
    return x @ p[f"{name}.w"] + p[f"{name}.b"]


def _attention(p: ParamSet, name: str, x: Tensor, mem: Tensor, heads: int,
               key_mask: np.ndarray | None, causal: bool = False) -> Tensor:
    B, Tq, d = x.shape
    Tk = mem.shape[1]
    hd = d // heads

    def split(t, T):
        return t.reshape(B, T, heads, hd).transpose(0, 2, 1, 3)

    q = split(x @ p[f"{name}.wq"], Tq)
    k = split(mem @ p[f"{name}.wk"], Tk)
    v = split(mem @ p[f"{name}.wv"], Tk)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(hd))
    bias = None
    if key_mask is not None:
        bias = np.where(key_mask[:, None, None, :], 0.0, NEG_INF)
    if causal:
        tri = np.where(np.tril(np.ones((Tq, Tk), dtype=bool)), 0.0, NEG_INF)
        bias = tri if bias is None else bias + tri
    if bias is not None:
        scores = scores + Tensor(bias.astype(x.dtype))
    w = softmax(scores, 1.0)
    out = (w @ v).transpose(0, 2, 1, 3).reshape(B, Tq, d)
    return out @ p[f"{name}.wo"] + p[f"{name}.bo"]


def _ffn(p: ParamSet, name: str, x: Tensor) -> Tensor:
    return _linear(p, f"{name}.ff2", _linear(p, f"{name}.ff1", x).relu())


def _maybe_drop(x: Tensor, rate: float, train: bool, rng) -> Tensor:
    if train and rate > 0:
        if rng is None:
            raise ValueError("train_mode dropout requires an rng")
        return dropout(x, rate, rng)
    return x


def _stack(model: DenoiserModel, prefix: str, x: Tensor, heads: int,
           layers: int, self_mask, cond: Conditioning | None,
           train: bool, rng, causal: bool = False) -> Tensor:
    p, rate = model.params, model.config.dropout
    for i in range(layers):
        name = f"{prefix}{i}"
        h = layer_norm(x, p[f"{name}.ln1.g"], p[f"{name}.ln1.b"])
        x = x + _maybe_drop(
            _attention(p, f"{name}.self", h, h, heads, self_mask, causal),
            rate, train, rng)
        if cond is not None:
            mem = concat([cond.length_embedding.reshape(-1, 1, model.config.d_model),
                          cond.encodings], axis=1)
            ones = np.ones((cond.source_mask.shape[0], 1), dtype=bool)
            key_mask = np.concatenate([ones, cond.source_mask], axis=1)
            h = layer_norm(x, p[f"{name}.lnx.g"], p[f"{name}.lnx.b"])
            x = x + _maybe_drop(
                _attention(p, f"{name}.cross", h, mem, heads, key_mask),
                rate, train, rng)
        h = layer_norm(x, p[f"{name}.ln2.g"], p[f"{name}.ln2.b"])
        x = x + _maybe_drop(_ffn(p, name, h), rate, train, rng)
    return x


def denoise_logits(model: DenoiserModel, x, cond: Conditioning | None = None,
                   train_mode: bool = False, rng: np.random.Generator | None = None,
                   causal: bool = False) -> Tensor:
    """Full [*, N, v] logits for input token ids [*, N]."""
    cfg = model.config
    ids = np.asarray(x, dtype=np.int64)
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    if ids.shape[1] != cfg.N:
        raise ValueError(f"expected sequence length {cfg.N}, got {ids.shape[1]}")
    if cfg.mode == "encoder_decoder" and cond is None:
        raise ValueError("encoder_decoder mode requires conditioning")
    p = model.params
    h = embedding(p["tok_emb"], ids) + p["pos_emb"]
    h = _maybe_drop(h, cfg.dropout, train_mode, rng)
    h = _stack(model, "dec", h, cfg.heads, cfg.layers, None, cond,
               train_mode, rng, causal=causal)
    h = layer_norm(h, p["dec_ln.g"], p["dec_ln.b"])
    logits = _linear(p, "head", h)
    return logits.reshape(cfg.N, cfg.v) if single else logits


def encode_source(model: DenoiserModel, src, src_content_len=None,
                  train_mode: bool = False,
                  rng: np.random.Generator | None = None) -> tuple[Tensor, np.ndarray]:
    """Encoder stack output and the non-PAD key mask."""
    cfg = model.config
    if cfg.mode != "encoder_decoder":
        raise ValueError("encode_source requires encoder_decoder mode")
    ids = np.asarray(src, dtype=np.int64)
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    if ids.shape[1] != cfg.N_source:
        raise ValueError(f"expected source length {cfg.N_source}, got {ids.shape[1]}")
    if src_content_len is None:
        lens = (ids != 0).sum(axis=1)
    else:
        lens = np.atleast_1d(np.asarray(src_content_len, dtype=np.int64))
    mask = np.arange(cfg.N_source)[None, :] < lens[:, None]
    p = model.params
    h = embedding(p["tok_emb"], ids) + p["src_pos_emb"]
    h = _maybe_drop(h, cfg.dropout, train_mode, rng)
    h = _stack(model, "enc", h, cfg.heads, cfg.layers, mask, None, train_mode, rng)
    h = layer_norm(h, p["enc_ln.g"], p["enc_ln.b"])
    return h, mask


def predict_length(model: DenoiserModel, encodings: Tensor,
                   src_content_len) -> LengthPrediction:
    """Classify the downsampled target length from pooled source encodings.

    The length loss never reaches the encoder: pooling consumes detached
    encodings.
    """
    cfg = model.config
    if cfg.mode != "encoder_decoder":
        raise ValueError("predict_length requires encoder_decoder mode")
    lens = np.atleast_1d(np.asarray(src_content_len, dtype=np.int64))
    if lens.min() < 1 or lens.max() > cfg.N_source:
        raise ValueError(f"source length out of range [1, {cfg.N_source}]")
    p = model.params
    enc = encodings.detach()
    if len(enc.shape) == 2:
        enc = enc.reshape(1, *enc.shape)
    mask = (np.arange(cfg.N_source)[None, :] < lens[:, None]).astype(enc.dtype)
    pooled = (enc * Tensor(mask[:, :, None])).sum(axis=1) * Tensor(
        (1.0 / lens).astype(enc.dtype).reshape(-1, 1))
    vx = _linear(p, "lp.pool", pooled) + embedding(p["lp.srclen"], lens - 1)
    h = vx
    for i in range(6):
        inner = _linear(p, f"lp.block{i}.fc2",
                        _linear(p, f"lp.block{i}.fc1", h).relu())
        h = h + inner
    logits = _linear(p, "lp.head", h)
    probs = softmax_array(logits.data, 1.0)
    if np.asarray(src_content_len).ndim == 0:
        probs = probs[0]
    return LengthPrediction(probs=probs, logits=logits)


def length_embedding(model: DenoiserModel, l_d_class) -> Tensor:
    """Row lookup in the target-length embedding table (0-based class)."""
    cls = np.asarray(l_d_class, dtype=np.int64)
    if cls.min() < 0 or cls.max() >= model.config.N_d:
        raise ValueError(f"length class out of range [0, {model.config.N_d})")
    return embedding(model.params["len_emb"], cls)


def build_conditioning(model: DenoiserModel, src, src_content_len=None,
                       target_length=None, train_mode: bool = False,
                       rng=None) -> Conditioning:
    """Encode sources and attach a length embedding.

    With target_length given the ground-truth class is embedded (teacher
    forcing); otherwise the argmax of the length classifier is used.
    """
    enc, mask = encode_source(model, src, src_content_len, train_mode, rng)
    if src_content_len is None:
        lens = mask.sum(axis=1)
    else:
        lens = np.atleast_1d(np.asarray(src_content_len, dtype=np.int64))
    if target_length is not None:
        cls = length_class(np.atleast_1d(target_length), model.config.length_downsample)
    else:
        cls = np.atleast_1d(predict_length(model, enc, lens).predicted_class)
    if len(enc.shape) == 2:
        enc = enc.reshape(1, *enc.shape)
    return Conditioning(encodings=enc, length_embedding=length_embedding(model, cls),
                        source_mask=mask)
