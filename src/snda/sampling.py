"""Markov-chain generation from the denoiser.

Chains start from uniform-random tokens (or a clamped template) and apply
the denoiser repeatedly: stochastic low-temperature steps, a deterministic
argmax variant that re-unrolls the least-certain positions, partial-token
updates with a triangular schedule, and model-score reranking over
parallel chains. Chains run batched in lockstep, one forward per step with
no autodiff tape: over the distinct (conditioning, state) rows of all of
them where the step resamples every position, and over one row per chain,
its last layer at the resampled positions only, where it resamples fewer.
Tiny instances get an exact enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Conditioning, DenoiserModel, denoise_logits
from .numerics import (NumericError, check_number_fields, log_softmax_array, nll_array,
                       no_grad, row_max, seed_value, softmax_array)
from .training import inverse_cdf


@dataclass
class SamplerConfig:
    T: int = 10
    temperature: float = 0.3
    strategy: str = "low_temp"          # or "argmax_unrolled"
    update_fraction: float = 1.0
    schedule: str = "constant"          # or "triangular"
    rerank_width: int = 1
    uncertain_share: float = 0.5
    early_stop: bool = True
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if not isinstance(self.early_stop, bool):
            raise ValueError(f"early_stop must be true or false, got {self.early_stop!r}")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        seed_value("seed", self.seed)
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.strategy not in ("low_temp", "argmax_unrolled"):
            raise ValueError(f"unknown strategy: {self.strategy}")
        if self.schedule not in ("constant", "triangular"):
            raise ValueError(f"unknown schedule: {self.schedule}")
        if not 0.0 < self.update_fraction <= 1.0:
            raise ValueError(f"update_fraction must be in (0, 1], got {self.update_fraction}")
        if self.rerank_width < 1:
            raise ValueError("rerank_width must be >= 1")
        if not 0.0 <= self.uncertain_share <= 1.0:
            raise ValueError("uncertain_share must be in [0, 1]")


@dataclass
class ChainTrace:
    states: list        # token arrays x_0 .. x_T (shorter on early stop)
    changed: list       # changed-position count per step
    final_score: float | None = None    # model_score of states[-1]; None unless rerank_width > 1


@dataclass
class Template:
    tokens: np.ndarray      # [N] ids
    clamp_mask: np.ndarray  # [N], 1 = fixed context token

    def __post_init__(self):
        tokens, clamp = np.asarray(self.tokens), np.asarray(self.clamp_mask)
        if tokens.dtype.kind not in "iu":
            raise ValueError(f"template tokens must be integer ids, got {tokens.dtype}")
        if not ((clamp == 0) | (clamp == 1)).all():
            raise ValueError("template clamp_mask entries must be 0/1 or boolean")
        self.tokens, self.clamp_mask = tokens.astype(np.int64), clamp.astype(bool)
        if self.tokens.shape != self.clamp_mask.shape:
            raise ValueError("template tokens and clamp mask differ in length")


def triangular_count(t: int, T: int, N: int) -> int:
    """floor(2N * min(t/T, 1 - t/T)): linear ramp-up then linear decay."""
    return math.floor(2 * N * min(t / T, 1 - t / T))


def _draw_positions(free: np.ndarray, count: int,
                    rngs: list[np.random.Generator]) -> np.ndarray:
    """Per rng, min(count, len(free)) distinct positions of `free`, [len(rngs), k]."""
    k = min(count, len(free))
    sel = np.empty((len(rngs), k), dtype=np.int64)
    if k:
        for b, rng in enumerate(rngs):
            sel[b] = rng.choice(free, size=k, replace=False)
    return sel


def _resample(y: np.ndarray, sel: np.ndarray, logits: np.ndarray, tau: float,
              rngs: list[np.random.Generator]) -> np.ndarray:
    """y [B, N] with the positions sel [B, k] of each row redrawn at
    temperature tau from their logits [B, k, v], by uniforms row b draws
    from rngs[b]; y itself is overwritten."""
    if sel.shape[1]:
        u = np.empty(sel.shape + (1,))
        for b, rng in enumerate(rngs):
            u[b] = rng.random((sel.shape[1], 1))
        y[np.arange(len(y))[:, None], sel] = inverse_cdf(logits, u, tau)
    return y


def argmax_unrolled_step(model: DenoiserModel, lam: np.ndarray, y_prev: np.ndarray,
                         lam_prev: np.ndarray, rho: float,
                         cond: Conditioning | None,
                         clamp_mask: np.ndarray | None = None) -> np.ndarray:
    """Deterministic step on states y_prev ([N], or [B, N] rows) whose
    denoiser logits are lam: argmax everywhere, then one extra unroll at
    each row's ceil(rho*N) least-certain unclamped positions.

    Certainty is the maximum per-position log-probability of the previous
    step's logits lam_prev. The unroll is one forward over all rows.
    Non-finite logits lam raise NumericError.
    """
    if lam_prev is None:
        raise ValueError("argmax_unrolled_step requires the previous step's logits")
    y_prev = np.asarray(y_prev, dtype=np.int64)
    N = y_prev.shape[-1]
    free = np.flatnonzero(~clamp_mask) if clamp_mask is not None else np.arange(N)

    if not np.all(np.isfinite(lam)):
        raise NumericError("argmax: non-finite logits")
    predicted = lam.argmax(axis=-1)
    y = y_prev.copy()
    y[..., free] = predicted[..., free]

    n_unc = min(math.ceil(rho * N), len(free))
    if n_unc > 0:
        certainty = row_max(log_softmax_array(lam_prev))[..., 0]
        order = free[np.argsort(certainty[..., free], axis=-1, kind="stable")]
        uncertain = order[..., :n_unc]
        z = y_prev.copy()
        np.put_along_axis(z, uncertain, np.take_along_axis(predicted, uncertain, -1), -1)
        unrolled = denoise_logits(model, z, cond).data.argmax(axis=-1)
        np.put_along_axis(y, uncertain, np.take_along_axis(unrolled, uncertain, -1), -1)
    return y


def _step_count(cfg: SamplerConfig, t: int, N: int) -> int:
    if cfg.schedule == "triangular":
        return triangular_count(t, cfg.T, N)
    return math.ceil(cfg.update_fraction * N)


def _chain_scores(logits: np.ndarray, y: np.ndarray) -> list[float]:
    """model_score of each row of y [B, N] from its logits [B, N, v], with
    one log-softmax over every row."""
    nll, _ = nll_array(logits, y)
    return (nll.sum(axis=-1) / logits.dtype.type(y.shape[-1])).tolist()


def _cond_groups(cond: Conditioning | None, B: int) -> list[int]:
    """Per chain, the index of its conditioning row among the distinct ones,
    in order of first appearance. Byte-equal rows give identical forward
    inputs; without conditioning every chain is in group 0."""
    if cond is None:
        return [0] * B
    seen = {}
    return [seen.setdefault(memory.tobytes() + mask.tobytes(), len(seen))
            for memory, mask in zip(cond.memory.data, cond.key_mask)]


def _take(cond: Conditioning | None, chains: np.ndarray) -> Conditioning | None:
    return cond if cond is None or len(chains) == len(cond.key_mask) else cond.take(chains)


def _distinct_logits(model: DenoiserModel, x: np.ndarray, chains: np.ndarray,
                     cond: Conditioning | None, groups: list[int]) -> np.ndarray:
    """Denoiser logits [len(chains), N, v] of the states x of the given
    chains (distinct, ascending), from one full forward over the distinct
    (conditioning group, state) rows among them. Rows of the forward are
    independent, so each chain gets the logits it would get alone. Only
    forwards whose every position is read merge rows: a step that resamples
    fewer than N positions runs one row per chain instead."""
    slots, pick, inverse = {}, [], []
    for k, (b, row) in enumerate(zip(chains, x)):
        j = slots.setdefault((groups[b], row.tobytes()), len(pick))
        if j == len(pick):
            pick.append(k)
        inverse.append(j)
    if len(pick) < len(x):
        return denoise_logits(model, x[pick], _take(cond, chains[pick])).data[inverse]
    return denoise_logits(model, x, _take(cond, chains)).data


@no_grad()
def sample_chains(model: DenoiserModel, cfg: SamplerConfig, seeds,
                  init: Template | None = None,
                  cond: Conditioning | None = None) -> list[ChainTrace]:
    """Unroll one chain per seed for up to T steps, all chains in lockstep,
    from the uniform prior or a template.

    Chain b draws from its own rng seeded seeds[b], so it equals the chain
    that runs alone with that seed. Each step is one denoiser forward over
    the chains still running and, for low_temp, one tempered softmax over
    the positions they resample; only the rng draws run chain by chain. A
    step picks its forward by one rule. One that resamples all N positions
    (and every argmax_unrolled step) runs a full forward over the distinct
    (conditioning row, state) pairs, whose logits chains with equal pairs
    share. A low_temp step that resamples fewer than N positions draws each
    chain's positions before its forward, which takes one row per chain and
    runs its last layer at those positions only, and their uniforms after
    it. Chains that stop early leave the batch.

    Chains are scored (ChainTrace.final_score) only when cfg.rerank_width
    is 2 or more, since `rerank` alone reads the scores; scoring changes no
    chain state. Scored chains that stop on a full-forward step are scored
    with the logits that step computed, since their final states are its
    inputs; every other chain is scored in one full forward at the end,
    over the distinct pairs too. `cond` holds one row per chain; no seeds
    give no traces. A template must have the model's length N, and its
    clamped ids must lie in [0, v).
    """
    mcfg = model.config
    if mcfg.mode == "encoder_decoder" and cond is None:
        raise ValueError("encoder_decoder mode requires conditioning")
    clamp = init.clamp_mask if init is not None else None
    free = np.arange(mcfg.N)
    if clamp is not None:
        if init.tokens.shape != (mcfg.N,):
            raise ValueError(f"template of shape {init.tokens.shape} for a model of "
                             f"sequence length {mcfg.N}")
        fixed = init.tokens[clamp]
        if len(fixed) and not (fixed.min() >= 0 and fixed.max() < mcfg.v):
            bad = np.unique(fixed[(fixed < 0) | (fixed >= mcfg.v)]).tolist()
            raise ValueError(f"clamped template ids {bad} out of range [0, {mcfg.v})")
        free = np.flatnonzero(~clamp)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    B = len(rngs)
    if cond is not None and len(cond.key_mask) != B:
        raise ValueError("conditioning needs one row per chain")
    groups = _cond_groups(cond, B)
    x = np.array([rng.integers(0, mcfg.v, size=mcfg.N) for rng in rngs],
                 dtype=np.int64).reshape(B, mcfg.N)
    if clamp is not None:
        x[:, clamp] = fixed
    traces = [ChainTrace(states=[row.copy()], changed=[]) for row in x]
    active = np.arange(B)
    scored = cfg.rerank_width > 1   # rerank reads the scores, and only of two or more chains
    lam = None          # argmax_unrolled: every chain's latest step logits
    for t in range(1, cfg.T + 1):
        rows = x[active]
        logits = None   # the step's full logits, which score the chains that stop on it
        if cfg.strategy == "argmax_unrolled":
            logits = _distinct_logits(model, rows, active, cond, groups)
            if lam is None:
                lam = np.zeros((B,) + logits.shape[1:], dtype=logits.dtype)
            # the first step is plain argmax denoising: no earlier logits to rank by
            rho = cfg.uncertain_share if t > 1 else 0.0
            y = argmax_unrolled_step(model, logits, rows, lam[active], rho,
                                     _take(cond, active), clamp)
            lam[active] = logits
            resampled = True
        else:
            step_rngs = [rngs[b] for b in active]
            sel = _draw_positions(free, _step_count(cfg, t, mcfg.N), step_rngs)
            resampled = sel.shape[1] > 0
            y = rows
            if resampled:
                if sel.shape[1] < mcfg.N:   # the last layer runs at sel only
                    picked = denoise_logits(model, rows, _take(cond, active),
                                            positions=sel).data
                else:
                    logits = _distinct_logits(model, rows, active, cond, groups)
                    picked = logits[np.arange(len(rows))[:, None], sel]
                y = _resample(rows.copy(), sel, picked, cfg.temperature, step_rngs)
        n_changed = (y != rows).sum(axis=1)
        x[active] = y
        for k, b in enumerate(active):
            traces[b].states.append(y[k])     # each step's y is fresh and never written again
            traces[b].changed.append(int(n_changed[k]))
        # a step that resampled nothing (triangular, T > 2N) says nothing of convergence
        if cfg.early_stop and resampled:
            stopped = n_changed == 0
            if scored and logits is not None and stopped.any():
                for b, score in zip(active[stopped], _chain_scores(logits[stopped], y[stopped])):
                    traces[b].final_score = score
            active = active[~stopped]
            if not len(active):
                break
    unscored = np.flatnonzero([trace.final_score is None for trace in traces])
    if scored and len(unscored):
        logits = _distinct_logits(model, x[unscored], unscored, cond, groups)
        for b, score in zip(unscored, _chain_scores(logits, x[unscored])):
            traces[b].final_score = score
    return traces


def sample_chain(model: DenoiserModel, cfg: SamplerConfig,
                 init: Template | None = None,
                 cond: Conditioning | None = None) -> ChainTrace:
    """Unroll the chain seeded cfg.seed for T steps from the uniform prior
    or a template; the chain is scored only at a rerank_width of 2 or more."""
    return sample_chains(model, cfg, [cfg.seed], init, cond)[0]


@no_grad()
def model_score(model: DenoiserModel, y: np.ndarray,
                cond: Conditioning | None = None) -> float:
    """A chain's final score of y [N], its self-reconstruction cross-entropy;
    lower is better."""
    y = np.asarray(y, dtype=np.int64)
    return _chain_scores(denoise_logits(model, y, cond).data, y)


def rerank_seeds(seed: int, width: int) -> list[int]:
    """Seeds of the `width` reranked chains of a decode seeded `seed`."""
    return [seed + 1000003 * i for i in range(width)]


def rerank(traces: list[ChainTrace]):
    """A copy of the final state of the chain with the lowest final score (ties
    break at the lowest index; a copy holds no step array), and every score.
    A single chain is the best whether or not it was scored; two or more
    must have been sampled at a rerank_width of 2 or more."""
    scores = [trace.final_score for trace in traces]
    if len(traces) > 1 and None in scores:
        raise ValueError("rerank needs chain scores: sample the chains with rerank_width >= 2")
    return traces[int(np.argmin(scores))].states[-1].copy(), scores


def _all_states(v: int, N: int) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(v)] * N, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def transition_matrix(model: DenoiserModel,
                      cond: Conditioning | None = None) -> np.ndarray:
    """Exact one-step transition matrix over all v^N sequences (tiny only)."""
    cfg = model.config
    states = _all_states(cfg.v, cfg.N)
    S = len(states)
    logits = denoise_logits(model, states, cond).data
    probs = softmax_array(logits.astype(np.float64), 1.0)
    M = np.ones((S, S), dtype=np.float64)
    for pos in range(cfg.N):
        M *= probs[:, pos, states[:, pos]]
    return M


MAX_EXACT_STATES = 4096     # v**N past one step: a 134 MB float64 matrix, v=4 N=6


def exact_chain_prob(model: DenoiserModel, x0: np.ndarray, x: np.ndarray,
                     t: int, cond: Conditioning | None = None) -> float:
    """p_t(x | x0) by exact enumeration over intermediate sequences: the
    row of x0 in the transition matrix, times the matrix t - 1 times."""
    cfg = model.config
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > 1 and cfg.v ** cfg.N > MAX_EXACT_STATES:
        raise ValueError(f"instance too large for exact enumeration: {cfg.v ** cfg.N} "
                         f"sequences, at most {MAX_EXACT_STATES} past one step")
    x0 = np.asarray(x0, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if t == 1:
        logits = denoise_logits(model, x0, cond).data.astype(np.float64)
        probs = softmax_array(logits, 1.0)
        return float(np.prod(probs[np.arange(cfg.N), x]))
    M = transition_matrix(model, cond)
    powers = np.asarray([cfg.v ** (cfg.N - 1 - i) for i in range(cfg.N)])
    i0 = int((x0 * powers).sum())
    i1 = int((x * powers).sum())
    row = M[i0]
    for _ in range(t - 1):
        row = row @ M
    return float(row[i1])
