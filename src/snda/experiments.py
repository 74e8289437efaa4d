"""Desk-scale experiment runs shared by the CLI, the benchmark and the tests.

Budgets here are sized for CPU minutes: small transformers on synthetic
sequence-to-sequence tasks and a toy character language model.
"""

from __future__ import annotations

import time

import numpy as np

from .data import (PairBatch, Vocab, encode, make_batch, pairs_to_batch,
                   synth_task_gen, toy_char_corpus)
from .evaluation import exact_match
from .model import ModelConfig, DenoiserModel, denoise_logits, init_model
from .numerics import no_grad
from .sampling import SamplerConfig, sample_chains
from .training import TrainConfig, averaged_model, make_train_state, train_loop


def desk_model_config(v: int, N: int, mode: str, **overrides) -> ModelConfig:
    kwargs = dict(v=v, N=N, layers=2, d_model=64, heads=4, d_ff=256,
                  dropout=0.0, mode=mode, d_LP=64)
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def desk_train_config(total_steps: int, batch_size: int = 32, seed: int = 0,
                      unroll_terms: int = 2, **overrides) -> TrainConfig:
    # paper-recipe shape, learning rates rescaled for minutes-long runs
    kwargs = dict(unroll_terms=unroll_terms, batch_size=batch_size,
                  total_steps=total_steps, warmup_steps=min(100, total_steps),
                  lr_start=1e-7, lr_peak=2e-3, lr_min=2e-4,
                  label_smoothing=0.1, weight_decay=0.01, seed=seed)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# Training steps of a task run and of a language model run, unless set;
# the CLI checks --train.* against the configs these budgets make.
TASK_TRAIN_STEPS = 1200
LM_TRAIN_STEPS = 800


# A task run seeded `seed` fixes its cipher permutation with seed + offset;
# its training batches draw from seeds in [0, 2**31), its held-out pairs
# from one seed above that range.
_PERM_SEED_OFFSET = 10_000
_HELDOUT_DRAW_SEED = 2**31 + 17


def _train(v: int, N: int, mode: str, model_overrides: dict | None, batch_fn,
           seed: int, total_steps: int, batch_size: int, log_fn,
           log_every: int = 50, **train_overrides) -> DenoiserModel:
    """Desk-config model (dropout off unless overridden), trained and averaged."""
    mcfg = desk_model_config(v, N, mode, **(model_overrides or {}))
    model = init_model(mcfg, np.random.default_rng(seed))
    tcfg = desk_train_config(total_steps, batch_size, seed, **train_overrides)
    state = make_train_state(model, tcfg)
    train_loop(state, batch_fn, log_every=log_every, log_fn=log_fn)
    return averaged_model(state)


def heldout_pairs(kind: str, seed: int, count: int, len_range, v_task: int,
                  N: int) -> list:
    """The held-out pairs of the task run seeded `seed`: its cipher, and
    draws that none of its training batches make."""
    return synth_task_gen(seed + _PERM_SEED_OFFSET, _HELDOUT_DRAW_SEED, count, kind,
                          len_range, v_task, N)


def train_synthetic(kind: str, unroll_terms: int = 2, length_pred: bool = True,
                    seed: int = 0, v_task: int = 14, len_range=(4, 12),
                    N: int = 16, total_steps: int = TASK_TRAIN_STEPS, batch_size: int = 32,
                    log_fn=None, model_overrides: dict | None = None,
                    **train_overrides) -> tuple[DenoiserModel, list]:
    """Train an encoder-decoder denoiser on copy / reverse_cipher.

    With length_pred off every batch carries a constant target length of 1
    so the length embedding is uninformative. Returns (averaged model,
    100 held-out pairs).
    """
    def batch_fn(step, rng):
        draw = int(rng.integers(0, 2**31))
        batch = pairs_to_batch(synth_task_gen(seed + _PERM_SEED_OFFSET, draw, batch_size,
                                              kind, len_range, v_task, N))
        if not length_pred:
            batch = PairBatch(batch.sources, batch.targets,
                              batch.source_lengths,
                              np.ones_like(batch.target_lengths))
        return batch

    model = _train(v_task + 2, N, "encoder_decoder", model_overrides, batch_fn, seed,
                   total_steps, batch_size, log_fn, unroll_terms=unroll_terms,
                   **train_overrides)
    return model, heldout_pairs(kind, seed, 100, len_range, v_task, N)


def train_lm(lines: list[str], vocab: Vocab, seed: int = 0, N: int = 32,
             total_steps: int = LM_TRAIN_STEPS, batch_size: int = 32, log_every: int = 50,
             log_fn=None, model_overrides: dict | None = None,
             **train_overrides) -> DenoiserModel:
    """Unconditional denoiser on text, one document per line.

    Documents are cropped to 8N tokens when encoded; each batch row is a
    random N-token window of one document.
    """
    corpus = [encode(ln, vocab, 8 * N) for ln in lines]

    def batch_fn(step, rng):
        return make_batch(corpus, batch_size, N, rng)

    return _train(vocab.size, N, "unconditional", model_overrides, batch_fn, seed,
                  total_steps, batch_size, log_fn, log_every, **train_overrides)


def train_toy_lm(seed: int = 0, total_steps: int = LM_TRAIN_STEPS, batch_size: int = 32,
                 N: int = 32, log_fn=None, **train_overrides):
    """Character-level toy language model on 2000 template-grammar documents."""
    lines = toy_char_corpus(seed + 5, 2000)
    vocab = Vocab.from_corpus(lines, kind="char")
    model = train_lm(lines, vocab, seed, N, total_steps, batch_size, log_fn=log_fn,
                     **train_overrides)
    return model, vocab, lines


# the ablations decode with four reranked low-temperature chains
ABLATION_SAMPLER = SamplerConfig(T=10, temperature=0.3, rerank_width=4)


def ablation_report(task: str, variants: list[dict], train_kwargs: dict | None = None,
                    sampler_cfg: SamplerConfig | None = None,
                    seed: int = 0) -> tuple[str, list[str]]:
    """Train each variant with identical seeds/budgets; report exact match.

    Variants are dicts with keys `s` (unroll terms) and `length_pred`.
    Returns (text table, machine-readable lines `variant= metric= value=`).
    """
    rows = []
    for var in variants:
        s = var.get("s", 2)
        lp = var.get("length_pred", True)
        model, heldout = train_synthetic(task, unroll_terms=s, length_pred=lp, seed=seed,
                                         **(train_kwargs or {}))
        acc = exact_match(model, heldout, sampler_cfg or ABLATION_SAMPLER,
                          use_length_pred=lp)
        rows.append((f"s={s},length_pred={'on' if lp else 'off'}", acc))

    width = max(len(name) for name, _ in rows)
    table = [f"{'variant':<{width}}  exact_match"]
    table += [f"{name:<{width}}  {acc:.4f}" for name, acc in rows]
    machine = [f"variant={name} metric=exact_match value={acc:.6f}"
               for name, acc in rows]
    return "\n".join(table), machine


def bench_report(model: DenoiserModel, T_values: list[int], batch: int = 32,
                 seed: int = 0) -> tuple[str, list[dict]]:
    """Decoding-cost comparison: chain steps vs a causal greedy baseline.

    The forward-pass ratio is N / T: a chain's T steps against the
    baseline's one forward per position. The wall clock is measured for
    both on the same network: the chains through `sample_chains`, `batch`
    of them in lockstep, the baseline tape-free like them. The timed chains
    are not reranked, so they run T forwards and no scoring one. Each side
    is timed as the median of 5 calls, run round by round (the baseline,
    then each T) so that drift in the host's speed reaches every side
    alike. Paper reference gains are printed alongside, never asserted.
    """
    N = model.config.N
    ids = np.random.default_rng(seed).integers(0, model.config.v, size=(batch, N))

    @no_grad()
    def ar_decode():
        y = ids.copy()
        for pos in range(N):
            logits = denoise_logits(model, y, causal=True).data
            y[:, pos] = logits[:, pos].argmax(axis=-1)

    def chain_decode(T):
        # full-update low-temperature chains that run all T steps
        sample_chains(model, SamplerConfig(T=T, temperature=0.5, early_stop=False),
                      seeds=range(seed, seed + batch))

    chain_decode(1)  # warm caches before timing
    sides = [ar_decode] + [lambda T=T: chain_decode(T) for T in T_values]
    times = [[] for _ in sides]
    for _ in range(5):
        for fn, side_times in zip(sides, times):
            t0 = time.perf_counter()
            fn()
            side_times.append(time.perf_counter() - t0)
    ar_time, *chain_times = [float(np.median(side_times)) for side_times in times]

    paper_gain = {4: "4.7x", 8: "2.6x", 10: "2.2x", 16: "1.4x"}
    rows = []
    for T, chain_time in zip(T_values, chain_times):
        rows.append({
            "N": N, "T": T,
            "forward_pass_ratio": N / T,
            "wallclock_gain": ar_time / chain_time,
            "paper_reported": paper_gain.get(T, "-"),
        })

    lines = [f"{'N':>4} {'T':>4} {'fwd-pass ratio':>15} {'wall-clock gain':>16} {'paper':>7}"]
    for r in rows:
        lines.append(f"{r['N']:>4} {r['T']:>4} {r['forward_pass_ratio']:>15.2f} "
                     f"{r['wallclock_gain']:>16.2f} {r['paper_reported']:>7}")
    return "\n".join(lines), rows
