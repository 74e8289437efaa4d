"""The denoiser network: a non-causal transformer over full sequences.

Per-position token logits are conditionally independent given the input
sequence, so one forward pass scores every position at once — there is no
causal mask in the decoder. In encoder-decoder mode a source encoder and
a target-length classifier are added; the predicted-length embedding is
prepended to the source encodings as cross-attention memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (ParamSet, Tensor, attention, check_number_fields, concat, dropout,
                       embedding, ffn, layer_norm, linear, recording, softmax_array)


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
        check_number_fields(self)
        for name in ("v", "N", "layers", "d_model", "heads", "d_ff", "N_source",
                     "d_LP", "length_downsample"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
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
class Conditioning:
    """Decoder cross-attention memory: the target-length embedding row, then
    the source encodings, with the key mask that hides source padding."""

    memory: Tensor              # [B, 1 + N_source, d]
    key_mask: np.ndarray        # [B, 1 + N_source] bool, True = attended

    def take(self, rows) -> "Conditioning":
        """The conditioning of the given batch rows, for inference: no
        gradient flows back through the copy."""
        return Conditioning(Tensor(self.memory.data[rows]), self.key_mask[rows])


def length_class(content_len, downsample: int) -> np.ndarray:
    """0-based class of a target length: ceil(l / downsample) - 1."""
    return -(-np.asarray(content_len) // downsample) - 1


def param_layout(config: ModelConfig) -> list[tuple[str, tuple, object]]:
    """(name, shape, init) of every parameter, in ParamSet and checkpoint
    order, which is also the order init_model draws in. init is "zeros",
    "ones" or the fan-in of a scaled-uniform draw."""
    d, ff, v = config.d_model, config.d_ff, config.v
    out = []

    def linear(name, d_in, d_out, zero=False):
        out.append((f"{name}.w", (d_in, d_out), "zeros" if zero else d_in))
        out.append((f"{name}.b", (d_out,), "zeros"))

    def ln(name):
        out.append((f"{name}.g", (d,), "ones"))
        out.append((f"{name}.b", (d,), "zeros"))

    def attn(name):
        for part in ("wq", "wk", "wv", "wo"):
            out.append((f"{name}.{part}", (d, d), d))
        out.append((f"{name}.bo", (d,), "zeros"))

    def block(name, cross: bool):
        ln(f"{name}.ln1")
        attn(f"{name}.self")
        if cross:
            ln(f"{name}.lnx")
            attn(f"{name}.cross")
        ln(f"{name}.ln2")
        linear(f"{name}.ff1", d, ff)
        linear(f"{name}.ff2", ff, d)

    out.append(("tok_emb", (v, d), d))
    out.append(("pos_emb", (config.N, d), d))
    cross = config.mode == "encoder_decoder"
    for i in range(config.layers):
        block(f"dec{i}", cross)
    ln("dec_ln")
    linear("head", d, v, zero=True)

    if cross:
        out.append(("src_pos_emb", (config.N_source, d), d))
        for i in range(config.layers):
            block(f"enc{i}", cross=False)
        ln("enc_ln")
        dlp, nd = config.d_LP, config.N_d
        linear("lp.pool", d, dlp)
        out.append(("lp.srclen", (config.N_source, dlp), dlp))
        for i in range(6):
            linear(f"lp.block{i}.fc1", dlp, dlp)
            linear(f"lp.block{i}.fc2", dlp, dlp)
        linear("lp.head", dlp, nd)
        out.append(("len_emb", (nd, d), d))
    return out


_FILL = {"zeros": 0.0, "ones": 1.0}


def init_model(config: ModelConfig, rng: np.random.Generator | int) -> DenoiserModel:
    """Scaled-uniform init, zero output head (untrained logits are uniform)."""
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    layout = param_layout(config)
    params = ParamSet(layout, np.empty(sum(math.prod(shape) for _, shape, _ in layout),
                                       dtype=config.dtype))
    for (_, shape, init), (_, t) in zip(layout, params.items()):
        if init in _FILL:
            t.data[...] = _FILL[init]
        else:
            s = 1.0 / math.sqrt(init)
            t.data[...] = rng.uniform(-s, s, size=shape)
    return DenoiserModel(config, params)


def _linear(p: ParamSet, name: str, x: Tensor) -> Tensor:
    return linear(x, p[f"{name}.w"], p[f"{name}.b"])


def _attention(p: ParamSet, name: str, x: Tensor, mem: Tensor, heads: int,
               mask: np.ndarray | None) -> Tensor:
    """Multi-head attention of x over mem, one tape node; `mask` (bool,
    True = attended) broadcasts against the [B, heads, Tq, Tk] scores."""
    return attention(x, mem, *(p[f"{name}.{part}"] for part in ("wq", "wk", "wv", "wo", "bo")),
                     heads, mask)


def _ffn(p: ParamSet, first: str, second: str, x: Tensor) -> Tensor:
    """The linear layers `first` and `second` with a ReLU between, one tape node."""
    return ffn(x, p[f"{first}.w"], p[f"{first}.b"], p[f"{second}.w"], p[f"{second}.b"])


def _maybe_drop(x: Tensor, rate: float, train: bool, rng) -> Tensor:
    if train and rate > 0:
        if rng is None:
            raise ValueError("train_mode dropout requires an rng")
        return dropout(x, rate, rng)
    return x


def _stack(model: DenoiserModel, prefix: str, x: Tensor, self_mask,
           cond: Conditioning | None, train: bool, rng,
           positions: np.ndarray | None = None) -> Tensor:
    """The `prefix` layers over x [B, T, d]. With `positions` [B, k] (no
    tape), the last layer's self-attention takes keys and values from every
    position and everything else in it runs at those positions only, row by
    row as before; the result is then [B, k, d]."""
    cfg, p = model.config, model.params
    rate = cfg.dropout
    for i in range(cfg.layers):
        name = f"{prefix}{i}"
        h = q = layer_norm(x, p[f"{name}.ln1.g"], p[f"{name}.ln1.b"])
        if positions is not None and i == cfg.layers - 1:
            rows = np.arange(len(positions))[:, None]
            x, q = Tensor(x.data[rows, positions]), Tensor(h.data[rows, positions])
        x = x + _maybe_drop(
            _attention(p, f"{name}.self", q, h, cfg.heads, self_mask),
            rate, train, rng)
        if cond is not None:
            # Each layer reads the memory through its own view, so backward
            # adds up a layer's key and value gradients before adding the
            # layers. Seeded training depends on that order: summing all of
            # them in one pass moves gradients by ~1e-8, and that alone took
            # criterion 05's s=2 model from exact match 1.00 to 0.84.
            mem = cond.memory.reshape(cond.memory.shape)
            h = layer_norm(x, p[f"{name}.lnx.g"], p[f"{name}.lnx.b"])
            x = x + _maybe_drop(
                _attention(p, f"{name}.cross", h, mem, cfg.heads,
                           cond.key_mask[:, None, None, :]),
                rate, train, rng)
        h = layer_norm(x, p[f"{name}.ln2.g"], p[f"{name}.ln2.b"])
        x = x + _maybe_drop(_ffn(p, f"{name}.ff1", f"{name}.ff2", h), rate, train, rng)
    return x


def _transformer(model: DenoiserModel, prefix: str, ids: np.ndarray, pos_emb: str,
                 self_mask, cond: Conditioning | None, train: bool, rng,
                 positions: np.ndarray | None = None) -> Tensor:
    """Token + position embedding, the `prefix` layer stack and its final
    layer norm: the decoder ("dec") or the source encoder ("enc")."""
    p = model.params
    h = embedding(p["tok_emb"], ids) + p[pos_emb]
    h = _maybe_drop(h, model.config.dropout, train, rng)
    h = _stack(model, prefix, h, self_mask, cond, train, rng, positions)
    return layer_norm(h, p[f"{prefix}_ln.g"], p[f"{prefix}_ln.b"])


def denoise_logits(model: DenoiserModel, x, cond: Conditioning | None = None,
                   train_mode: bool = False, rng: np.random.Generator | None = None,
                   causal: bool = False, positions=None) -> Tensor:
    """Full [*, N, v] logits for input token ids [*, N]. `causal` lets each
    position attend only to itself and earlier ones (bench's greedy baseline).

    With `positions` [*, k] (inference only: no tape, no train mode, not
    causal), the logits [*, k, v] at those positions of each row: the last
    layer runs its queries, FFN, final layer norm and head at those
    positions only. They equal the full logits there bit for bit wherever
    the BLAS computes a row of a product the same whatever the number of
    rows, as chains batched with other chains already require.
    """
    cfg = model.config
    ids = np.asarray(x, dtype=np.int64)
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    if ids.shape[1] != cfg.N:
        raise ValueError(f"expected sequence length {cfg.N}, got {ids.shape[1]}")
    if cfg.mode == "encoder_decoder" and cond is None:
        raise ValueError("encoder_decoder mode requires conditioning")
    one_row = False
    if positions is not None:
        positions = np.asarray(positions)
        if single:
            positions = positions[None]
        if recording() or train_mode or causal:
            raise ValueError("positions are for inference only: under no_grad, "
                             "without train_mode or causal")
        if (positions.ndim != 2 or len(positions) != len(ids)
                or positions.dtype.kind not in "iu"):
            raise ValueError(f"expected integer positions of shape [{len(ids)}, k], "
                             f"got {positions.dtype} {positions.shape}")
        if positions.size and not (positions.min() >= 0 and positions.max() < cfg.N):
            raise ValueError(f"positions out of range [0, {cfg.N})")
        # numpy multiplies a one-row matrix by gemv, whose sums may differ
        # from the gemm that a full forward's rows take: repeat the position
        one_row = positions.shape[1] == 1 and cfg.N > 1
        if one_row:
            positions = np.repeat(positions, 2, axis=1)
    self_mask = np.tril(np.ones((cfg.N, cfg.N), dtype=bool)) if causal else None
    h = _transformer(model, "dec", ids, "pos_emb", self_mask, cond, train_mode, rng,
                     positions)
    logits = _linear(model.params, "head", h)
    if one_row:
        logits = Tensor(logits.data[:, :1])
    return logits.reshape(logits.shape[1:]) if single else logits


def _length_logits(model: DenoiserModel, enc: np.ndarray, lens: np.ndarray,
                   mask: np.ndarray) -> Tensor:
    """Downsampled-length class logits [B, N_d] (class k => l_d = k+1) from
    mean-pooled source encodings. They read the encodings as raw values,
    so the length loss never reaches the encoder."""
    p = model.params
    pooled = (enc * mask[:, :, None].astype(enc.dtype)).sum(axis=1) * (
        (1.0 / lens).astype(enc.dtype).reshape(-1, 1))
    h = _linear(p, "lp.pool", Tensor(pooled)) + embedding(p["lp.srclen"], lens - 1)
    for i in range(6):
        h = h + _ffn(p, f"lp.block{i}.fc1", f"lp.block{i}.fc2", h)
    return _linear(p, "lp.head", h)


def build_conditioning(model: DenoiserModel, src, src_lens, target_length=None,
                       train_mode: bool = False,
                       rng: np.random.Generator | None = None) -> tuple[Conditioning, Tensor]:
    """Encode sources [B, N_source] of content lengths src_lens [B], classify
    their target lengths, and build the decoder's cross-attention memory.

    With target_length [B] given, its class is embedded (teacher forcing);
    otherwise the classifier's argmax is. Returns the conditioning and the
    length-class logits [B, N_d].
    """
    cfg = model.config
    if cfg.mode != "encoder_decoder":
        raise ValueError("build_conditioning requires encoder_decoder mode")
    ids = np.asarray(src, dtype=np.int64)
    lens = np.asarray(src_lens, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != cfg.N_source:
        raise ValueError(f"expected sources of shape [B, {cfg.N_source}], got {ids.shape}")
    if lens.shape != ids.shape[:1]:
        raise ValueError(f"expected {len(ids)} source lengths, got shape {lens.shape}")
    if lens.min() < 1 or lens.max() > cfg.N_source:
        raise ValueError(f"source length out of range [1, {cfg.N_source}]")
    mask = np.arange(cfg.N_source)[None, :] < lens[:, None]
    enc = _transformer(model, "enc", ids, "src_pos_emb", mask[:, None, None, :], None,
                       train_mode, rng)
    logits = _length_logits(model, enc.data, lens, mask)
    if target_length is None:
        cls = softmax_array(logits.data, 1.0).argmax(axis=-1)
    else:
        target = np.asarray(target_length, dtype=np.int64)
        if target.shape != lens.shape:
            raise ValueError(f"expected {len(ids)} target lengths, got shape {target.shape}")
        if target.min() < 1 or target.max() > cfg.N:
            raise ValueError(f"target length out of range [1, {cfg.N}]")
        cls = length_class(target, cfg.length_downsample)
    memory = concat([embedding(model.params["len_emb"], cls[:, None]), enc], axis=1)
    key_mask = np.concatenate([np.ones((len(ids), 1), dtype=bool), mask], axis=1)
    return Conditioning(memory, key_mask), logits
