"""The fixed corruption distribution q(x^c | x).

A uniform corruption proportion is drawn per example, a Bernoulli position
mask at that proportion, and uniform replacement tokens over the full
vocabulary (PAD and UNK included, matching the uniform prior that chain
sampling starts from). Corruption never reads the token values: two
inputs corrupted with identical rng streams share (alpha, mask, noise).
"""

from __future__ import annotations

import numpy as np


def corrupt_batch(x: np.ndarray, v: int, rng: np.random.Generator,
                  alpha: float | np.ndarray | None = None) -> np.ndarray:
    """Corrupt each row of x [B, N]: per-row alpha, per-position Bernoulli
    mask at alpha, uniform noise tokens at the masked positions.

    alpha is drawn per row unless forced (a scalar or anything that
    broadcasts against [B, 1]), for tests and oracles.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.min() < 0 or x.max() >= v:
        raise ValueError(f"token id out of range [0, {v})")
    B, N = x.shape
    if alpha is None:
        alpha = rng.random((B, 1))
    mask = rng.random((B, N)) < alpha
    noise = rng.integers(0, v, size=(B, N))
    return np.where(mask, noise, x)


def corruption_matrix(corrupt_prob: float, v: int) -> np.ndarray:
    """Per-token marginal of corrupt_batch at fixed alpha: (1-p) I + p V, V = 1/v."""
    if not 0.0 <= corrupt_prob <= 1.0:
        raise ValueError(f"corrupt_prob must be in [0, 1], got {corrupt_prob}")
    if v < 2:
        raise ValueError("v must be >= 2")
    return (1.0 - corrupt_prob) * np.eye(v) + corrupt_prob * np.full((v, v), 1.0 / v)
