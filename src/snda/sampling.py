"""Markov-chain generation from the denoiser.

Chains start from uniform-random tokens (or a clamped template) and apply
the denoiser repeatedly: stochastic low-temperature steps, a deterministic
argmax variant that re-unrolls the least-certain positions, partial-token
updates with a triangular schedule, and model-score reranking over
parallel chains. Chains run batched in lockstep, one forward per step for
all of them, with no autodiff tape. Tiny instances get an exact
enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Conditioning, DenoiserModel, denoise_logits
from .numerics import (check_finite_fields, log_softmax_array, nll_array, no_grad, row_max,
                       seed_value, softmax_array)
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
        check_finite_fields(self)
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
        if self.schedule == "constant" and not 0.0 < self.update_fraction <= 1.0:
            raise ValueError("update_fraction must be in (0, 1]")
        if self.rerank_width < 1:
            raise ValueError("rerank_width must be >= 1")
        if not 0.0 <= self.uncertain_share <= 1.0:
            raise ValueError("uncertain_share must be in [0, 1]")


@dataclass
class ChainTrace:
    states: list        # token arrays x_0 .. x_T (shorter on early stop)
    changed: list       # changed-position count per step
    final_score: float | None = None


@dataclass
class Template:
    tokens: np.ndarray      # [N] ids
    clamp_mask: np.ndarray  # [N], 1 = fixed context token

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.clamp_mask = np.asarray(self.clamp_mask).astype(bool)
        if self.tokens.shape != self.clamp_mask.shape:
            raise ValueError("template tokens and clamp mask differ in length")


def triangular_count(t: int, T: int, N: int) -> int:
    """floor(2N * min(t/T, 1 - t/T)): linear ramp-up then linear decay."""
    return math.floor(2 * N * min(t / T, 1 - t / T))


def sample_step_low_temp(logits: np.ndarray, y_prev: np.ndarray, tau: float,
                         update_count: int, clamp_mask: np.ndarray | None,
                         rngs: list[np.random.Generator]) -> np.ndarray:
    """Resample `update_count` random unclamped positions of each chain's
    state, the rows of y_prev [B, N], at temperature tau from their denoiser
    logits [B, N, v].

    Row b draws its positions and then their uniforms from rngs[b]; one
    tempered softmax and one inverse-CDF lookup serve the drawn positions
    of every row.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    y = np.array(y_prev, dtype=np.int64)
    if len(rngs) != len(y):
        raise ValueError(f"{len(y)} chains need {len(y)} rngs, got {len(rngs)}")
    free = np.flatnonzero(~clamp_mask) if clamp_mask is not None else np.arange(y.shape[1])
    k = min(update_count, len(free))
    if k == 0:
        return y
    sel = np.empty((len(y), k), dtype=np.int64)
    u = np.empty((len(y), k, 1))
    for b, rng in enumerate(rngs):
        sel[b] = rng.choice(free, size=k, replace=False)
        u[b] = rng.random((k, 1))
    rows = np.arange(len(y))[:, None]
    y[rows, sel] = inverse_cdf(logits[rows, sel], u, tau)
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
    """
    if lam_prev is None:
        raise ValueError("argmax_unrolled_step requires the previous step's logits")
    y_prev = np.asarray(y_prev, dtype=np.int64)
    N = y_prev.shape[-1]
    free = np.flatnonzero(~clamp_mask) if clamp_mask is not None else np.arange(N)

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


@no_grad()
def sample_chains(model: DenoiserModel, cfg: SamplerConfig, seeds,
                  init: Template | None = None,
                  cond: Conditioning | None = None) -> list[ChainTrace]:
    """Unroll one chain per seed for up to T steps, all chains in lockstep,
    from the uniform prior or a template.

    Chain b draws from its own rng seeded seeds[b], so it equals the chain
    that runs alone with that seed. Each step is one denoiser forward over
    the chains still running and, for low_temp, one tempered softmax over
    the positions they resample; only the rng draws run chain by chain.
    Chains that stop early leave the batch and are scored together with the
    logits their last step computed, since their final states are that
    step's inputs; the other chains share one scoring forward at the end.
    `cond` holds one row per chain; no seeds give no traces.
    """
    mcfg = model.config
    if mcfg.mode == "encoder_decoder" and cond is None:
        raise ValueError("encoder_decoder mode requires conditioning")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    B = len(rngs)
    if cond is not None and len(cond.key_mask) != B:
        raise ValueError("conditioning needs one row per chain")
    clamp = init.clamp_mask if init is not None else None
    n_free = mcfg.N if clamp is None else int((~clamp).sum())
    x = np.array([rng.integers(0, mcfg.v, size=mcfg.N) for rng in rngs],
                 dtype=np.int64).reshape(B, mcfg.N)
    if clamp is not None:
        x[:, clamp] = init.tokens[clamp]
    traces = [ChainTrace(states=[row.copy()], changed=[]) for row in x]
    active = np.arange(B)
    lam = None          # argmax_unrolled: every chain's latest step logits
    for t in range(1, cfg.T + 1):
        rows = x[active]
        rows_cond = cond if cond is None or len(active) == B else cond.take(active)
        if cfg.strategy == "argmax_unrolled":
            logits = denoise_logits(model, rows, rows_cond).data
            if lam is None:
                lam = np.zeros((B,) + logits.shape[1:], dtype=logits.dtype)
            # the first step is plain argmax denoising: no earlier logits to rank by
            rho = cfg.uncertain_share if t > 1 else 0.0
            y = argmax_unrolled_step(model, logits, rows, lam[active], rho, rows_cond, clamp)
            lam[active] = logits
        else:
            count = _step_count(cfg, t, mcfg.N)
            logits = denoise_logits(model, rows, rows_cond).data if min(count, n_free) else None
            y = rows if logits is None else sample_step_low_temp(
                logits, rows, cfg.temperature, count, clamp, [rngs[b] for b in active])
        n_changed = (y != rows).sum(axis=1)
        x[active] = y
        for k, b in enumerate(active):
            traces[b].states.append(y[k])     # each step's y is fresh and never written again
            traces[b].changed.append(int(n_changed[k]))
        # a step that resampled nothing (triangular, T > 2N) says nothing of convergence
        if cfg.early_stop and logits is not None:
            stopped = n_changed == 0
            if stopped.any():
                for b, score in zip(active[stopped], _chain_scores(logits[stopped], y[stopped])):
                    traces[b].final_score = score
            active = active[~stopped]
            if not len(active):
                break
    unscored = [b for b, trace in enumerate(traces) if trace.final_score is None]
    if unscored:
        logits = denoise_logits(model, x[unscored],
                                None if cond is None else cond.take(unscored)).data
        for b, score in zip(unscored, _chain_scores(logits, x[unscored])):
            traces[b].final_score = score
    return traces


def sample_chain(model: DenoiserModel, cfg: SamplerConfig,
                 init: Template | None = None,
                 cond: Conditioning | None = None) -> ChainTrace:
    """Unroll the chain seeded cfg.seed for T steps from the uniform prior
    or a template."""
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
    break at the lowest index; a copy holds no step array), and every score."""
    scores = [trace.final_score for trace in traces]
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
