"""Markov-chain generation from the denoiser.

Chains start from uniform-random tokens (or a clamped template) and apply
the denoiser repeatedly: stochastic low-temperature steps, a deterministic
argmax variant that re-unrolls the least-certain positions, partial-token
updates with a triangular schedule, and model-score reranking over
parallel chains. Tiny instances get an exact enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Conditioning, DenoiserModel, denoise_logits
from .numerics import cross_entropy, log_softmax_array, softmax_array
from .training import sample_tokens


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
        if self.T < 0:
            raise ValueError("T must be >= 0")
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


def sample_step_low_temp(model: DenoiserModel, y_prev: np.ndarray, tau: float,
                         update_count: int, clamp_mask: np.ndarray | None,
                         cond: Conditioning | None,
                         rng: np.random.Generator) -> np.ndarray:
    """Resample `update_count` random unclamped positions at temperature tau."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    y_prev = np.asarray(y_prev, dtype=np.int64)
    free = np.flatnonzero(~clamp_mask) if clamp_mask is not None else np.arange(len(y_prev))
    update_count = min(update_count, len(free))
    if update_count == 0:
        return y_prev.copy()
    logits = denoise_logits(model, y_prev, cond).data
    sel = rng.choice(free, size=update_count, replace=False)
    y = y_prev.copy()
    y[sel] = sample_tokens(logits[sel], rng, tau)
    return y


def argmax_unrolled_step(model: DenoiserModel, y_prev: np.ndarray,
                         lam_prev: np.ndarray, rho: float,
                         cond: Conditioning | None,
                         clamp_mask: np.ndarray | None = None):
    """Deterministic step: argmax everywhere, one extra unroll at the
    ceil(rho*N) least-certain unclamped positions.

    Certainty is the maximum per-position log-probability of the carried
    logits lam_prev; returns (y, lam) with lam the pre-unroll logits.
    """
    if lam_prev is None:
        raise ValueError("argmax_unrolled_step requires the previous step's logits")
    y_prev = np.asarray(y_prev, dtype=np.int64)
    N = len(y_prev)
    free = np.flatnonzero(~clamp_mask) if clamp_mask is not None else np.arange(N)

    lam = denoise_logits(model, y_prev, cond).data
    predicted = lam.argmax(axis=-1)
    y = y_prev.copy()
    y[free] = predicted[free]

    n_unc = min(math.ceil(rho * N), len(free))
    if n_unc > 0:
        certainty = log_softmax_array(lam_prev).max(axis=-1)
        order = free[np.argsort(certainty[free], kind="stable")]
        uncertain = order[:n_unc]
        z = y_prev.copy()
        z[uncertain] = predicted[uncertain]
        lam_unrolled = denoise_logits(model, z, cond).data
        y[uncertain] = lam_unrolled.argmax(axis=-1)[uncertain]
    return y, lam


def _init_state(N: int, v: int, init: Template | None,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    x0 = rng.integers(0, v, size=N)
    if init is None:
        return x0, np.zeros(N, dtype=bool)
    clamp = init.clamp_mask
    x0[clamp] = init.tokens[clamp]
    return x0, clamp


def _step_count(cfg: SamplerConfig, t: int, N: int) -> int:
    if cfg.schedule == "triangular":
        return triangular_count(t, cfg.T, N)
    return math.ceil(cfg.update_fraction * N)


def sample_chain(model: DenoiserModel, cfg: SamplerConfig,
                 init: Template | None = None,
                 cond: Conditioning | None = None) -> ChainTrace:
    """Unroll the chain for T steps from the uniform prior or a template."""
    mcfg = model.config
    if mcfg.mode == "encoder_decoder" and cond is None:
        raise ValueError("encoder_decoder mode requires conditioning")
    rng = np.random.default_rng(cfg.seed)
    x, clamp = _init_state(mcfg.N, mcfg.v, init, rng)
    states = [x.copy()]
    changed = []
    lam = None
    for t in range(1, cfg.T + 1):
        if cfg.strategy == "low_temp":
            y = sample_step_low_temp(model, x, cfg.temperature,
                                     _step_count(cfg, t, mcfg.N), clamp, cond, rng)
        elif lam is None:
            # first deterministic step: plain argmax denoising, carries its logits
            dummy = np.zeros((mcfg.N, mcfg.v))
            y, lam = argmax_unrolled_step(model, x, dummy, 0.0, cond, clamp)
        else:
            y, lam = argmax_unrolled_step(model, x, lam, cfg.uncertain_share,
                                          cond, clamp)
        n_changed = int((y != x).sum())
        x = y
        states.append(x.copy())
        changed.append(n_changed)
        if cfg.early_stop and n_changed == 0:
            break
    score = model_score(model, x, cond)
    return ChainTrace(states=states, changed=changed, final_score=score)


def model_score(model: DenoiserModel, y: np.ndarray,
                cond: Conditioning | None = None) -> float:
    """Self-reconstruction cross-entropy of y under the model; lower is better."""
    logits = denoise_logits(model, np.asarray(y, dtype=np.int64), cond)
    return cross_entropy(logits, y).item()


def sample_reranked(model: DenoiserModel, cfg: SamplerConfig,
                    init: Template | None = None,
                    cond: Conditioning | None = None):
    """Run rerank_width independent chains and keep the one whose final
    state has the lowest model score; ties break at the lowest index.

    Returns (best final state, every chain's final score).
    """
    traces = [sample_chain(model, replace(cfg, seed=cfg.seed + 1000003 * i), init, cond)
              for i in range(cfg.rerank_width)]
    scores = [trace.final_score for trace in traces]
    return traces[int(np.argmin(scores))].states[-1], scores


def dump_trace(trace: ChainTrace, vocab=None) -> str:
    """One state per line: `step=<t> changed=<n> tok tok ...`."""
    lines = []
    for t, state in enumerate(trace.states):
        n = 0 if t == 0 else trace.changed[t - 1]
        toks = [vocab.token_of(int(i)) if vocab else str(int(i)) for i in state]
        lines.append(f"step={t} changed={n} " + " ".join(toks))
    return "\n".join(lines)


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


def exact_chain_prob(model: DenoiserModel, x0: np.ndarray, x: np.ndarray,
                     t: int, cond: Conditioning | None = None) -> float:
    """p_t(x | x0) by exact enumeration over intermediate sequences."""
    cfg = model.config
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > 1 and cfg.v ** (cfg.N * (t - 1)) > 10 ** 6:
        raise ValueError("instance too large for exact enumeration")
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
    row = np.linalg.matrix_power(M, t)[i0]
    return float(row[i1])
