"""Training: unrolled denoising loss, optimizer loop, checkpoint averaging.

The loss corrupts each example (independent proportion per example),
reconstructs, then feeds the model's own samples back in for further
reconstruction terms. Gradients never flow through the sampled tokens;
each additional term only contributes through its own forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corruption import corrupt_batch
from .data import PairBatch
from .model import DenoiserModel, build_conditioning, denoise_logits, length_class
from .numerics import (NumericError, ParamSet, Tensor, check_number_fields, cross_entropy,
                       seed_value, softmax_array)

# Values per AdamW slice, so that the update's temporaries stay in cache. At
# the desk encoder-decoder layout (292,824 float32 values) the whole-array
# update took 3.1 ms and 16,384-value slices 1.3 ms (medians of 200
# alternating repeats on one core of a shared 2-core host), bit-identical.
ADAM_SLICE = 16_384


@dataclass
class TrainConfig:
    unroll_terms: int = 2
    batch_size: int = 32
    total_steps: int = 1000
    warmup_steps: int = 100
    lr_start: float = 1e-7
    lr_peak: float = 1e-4
    lr_min: float = 1e-5
    label_smoothing: float = 0.1
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-6
    ckpt_average_window: int = 10
    snapshot_interval: int | None = None   # default: total_steps // 20
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if self.unroll_terms < 1:
            raise ValueError("unroll_terms must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        seed_value("seed", self.seed)
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        if min(self.lr_start, self.lr_peak, self.lr_min) <= 0:
            raise ValueError("learning rates must be positive")
        if self.snapshot_interval is None:
            self.snapshot_interval = max(1, self.total_steps // 20)
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if self.ckpt_average_window < 0:    # 0 keeps the final parameters as they are
            raise ValueError(f"ckpt_average_window must be >= 0, got {self.ckpt_average_window}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")


@dataclass
class TrainState:
    """A training run's model, AdamW moments, step count and rng, and the
    checkpoint average: a float64 running sum of the params.flat snapshots
    the final window keeps (the last `ckpt_average_window` multiples of
    `snapshot_interval` up to `total_steps`), added oldest first, and their
    count. In float64, identical snapshots average to themselves bit for
    bit. The window is fixed by total_steps, so no step runs past it."""
    model: DenoiserModel
    cfg: TrainConfig
    m: np.ndarray               # AdamW moments, in params.flat order
    v: np.ndarray
    step: int
    rng: np.random.Generator
    snapshot_sum: np.ndarray | None = None
    snapshot_count: int = 0


def make_train_state(model: DenoiserModel, cfg: TrainConfig) -> TrainState:
    return TrainState(
        model=model, cfg=cfg,
        m=np.zeros_like(model.params.flat), v=np.zeros_like(model.params.flat),
        step=0, rng=np.random.default_rng(cfg.seed),
    )


def inverse_cdf(logits: np.ndarray, u: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Per position of logits [..., v], the token whose interval of the
    cumulative softmax(logits / temperature) holds the uniform draw u
    [..., 1]; the last token where rounding leaves the total below u."""
    cdf = np.cumsum(softmax_array(logits, temperature), axis=-1)
    return np.minimum((u > cdf).sum(axis=-1), cdf.shape[-1] - 1)


def sample_tokens(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sample per position from softmax(logits)."""
    return inverse_cdf(logits, rng.random(np.shape(logits)[:-1] + (1,)))


def loss_unrolled(model: DenoiserModel, batch, s: int,
                  rng: np.random.Generator, train_mode: bool = False,
                  label_smoothing: float = 0.0) -> tuple[Tensor, list[float]]:
    """Mean of s chain-reconstruction terms (+ length loss when conditional).

    batch is either an [B, N] id array (unconditional) or a PairBatch.
    The chain is sampled at temperature 1 with gradients severed at the
    sampled tokens.
    """
    if s < 1:
        raise ValueError("unroll term count must be >= 1")
    cfg = model.config
    cond = None
    length_loss = None
    if isinstance(batch, PairBatch):
        if cfg.mode != "encoder_decoder":
            raise ValueError("PairBatch requires encoder_decoder mode")
        cond, length_logits = build_conditioning(model, batch.sources, batch.source_lengths,
                                                 target_length=batch.target_lengths,
                                                 train_mode=train_mode, rng=rng)
        labels = length_class(batch.target_lengths, cfg.length_downsample)
        length_loss = cross_entropy(length_logits, labels)
        targets = batch.targets
    else:
        targets = np.asarray(batch, dtype=np.int64)

    x_t = corrupt_batch(targets, cfg.v, rng)
    terms = []
    total = None
    for t in range(s):
        if t > 0:
            x_t = sample_tokens(logits.data, rng)  # severed: raw array in, no graph
        logits = denoise_logits(model, x_t, cond, train_mode, rng)
        term = cross_entropy(logits, targets, label_smoothing)
        terms.append(term.item())
        total = term if total is None else total + term
    loss = total * (1.0 / s)
    if length_loss is not None:
        loss = loss + length_loss
    return loss, terms


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_peak, then cosine decay to lr_min."""
    if step <= cfg.warmup_steps:
        if cfg.warmup_steps == 0:
            return cfg.lr_peak
        frac = step / cfg.warmup_steps
        return cfg.lr_start + (cfg.lr_peak - cfg.lr_start) * frac
    progress = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.lr_min + 0.5 * (cfg.lr_peak - cfg.lr_min) * (1.0 + math.cos(math.pi * progress))


def train_step(state: TrainState, batch) -> tuple[float, list[float]]:
    """One optimizer step: unrolled loss, then one AdamW update (Adam with
    decoupled weight decay) of the flat parameter array, ADAM_SLICE values
    at a time.

    Returns the step's loss and its per-term reconstruction losses."""
    cfg = state.cfg
    if state.step >= cfg.total_steps:
        raise RuntimeError(f"the run has taken all its total_steps ({cfg.total_steps})")
    params = state.model.params
    params.zero_grad()
    loss, terms = loss_unrolled(state.model, batch, cfg.unroll_terms, state.rng,
                                train_mode=True, label_smoothing=cfg.label_smoothing)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss at step {state.step}")
    loss.backward()

    state.step += 1
    lr = lr_schedule(state.step, cfg)
    t = state.step
    flat, grads = params.flat, params.grads()
    for lo in range(0, flat.size, ADAM_SLICE):
        part = slice(lo, lo + ADAM_SLICE)
        p, g, m, v = flat[part], grads[part], state.m[part], state.v[part]
        m *= cfg.beta1
        m += (1 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1 - cfg.beta2) * g * g
        mhat = m / (1 - cfg.beta1 ** t)
        vhat = v / (1 - cfg.beta2 ** t)
        p -= (lr * (mhat / (np.sqrt(vhat) + cfg.adam_eps) + cfg.weight_decay * p)).astype(p.dtype)

    k = cfg.snapshot_interval     # is this a snapshot the final window keeps?
    if t % k == 0 and t > cfg.total_steps // k * k - cfg.ckpt_average_window * k:
        if state.snapshot_sum is None:
            state.snapshot_sum = np.zeros(flat.shape, np.float64)
        state.snapshot_sum += flat
        state.snapshot_count += 1
    return value, terms


def metrics_line(state: TrainState, loss: float, terms: list[float]) -> str:
    lr = lr_schedule(state.step, state.cfg)
    parts = [f"step={state.step}", f"loss={loss:.6f}", f"lr={lr:.10g}"]
    parts += [f"term{i + 1}={t:.6f}" for i, t in enumerate(terms)]
    return " ".join(parts)


def train_loop(state: TrainState, batch_fn, log_every: int = 50, log_fn=None):
    """Run total_steps steps, passing the metrics line of every log_every-th
    step and of the last to log_fn; batch_fn(step, rng) must be
    seed-deterministic."""
    batch_rng = np.random.default_rng(state.cfg.seed + 1)
    for _ in range(state.cfg.total_steps):
        batch = batch_fn(state.step, batch_rng)
        loss, terms = train_step(state, batch)
        if log_fn and (state.step % log_every == 0 or state.step == state.cfg.total_steps):
            log_fn(metrics_line(state, loss, terms))


def averaged_model(state: TrainState) -> DenoiserModel:
    """Evaluation model: the mean of the snapshots summed so far, cast back
    to the parameters' dtype (a copy of the current parameters before the
    final window's first snapshot, or with a window of 0). It is the final
    window's average only once the run has taken all its total_steps;
    mid-run it is not the mean of the latest snapshots."""
    params = state.model.params
    flat = ((state.snapshot_sum / state.snapshot_count).astype(params.flat.dtype)
            if state.snapshot_count else params.flat.copy())
    return DenoiserModel(state.model.config, ParamSet(params.layout, flat))
