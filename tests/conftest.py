"""Shared fixtures: tiny models sized for sub-second forwards."""

import numpy as np
import pytest

from snda.model import ModelConfig, init_model


def perturb(model, scale=0.05, seed=1):
    """Move parameters off init (the zero head makes init logits uniform).
    Values change in place, so every parameter stays a view of params.flat."""
    rng = np.random.default_rng(seed)
    for _, t in model.params.items():
        t.data += scale * rng.standard_normal(t.data.shape)
    return model


@pytest.fixture
def tiny_model():
    cfg = ModelConfig(v=8, N=8, layers=2, d_model=16, heads=2, d_ff=32,
                      dropout=0.0)
    return perturb(init_model(cfg, np.random.default_rng(0)))


@pytest.fixture
def micro_model():
    """v=3, N=2: small enough for exact enumeration over all 9 sequences."""
    cfg = ModelConfig(v=3, N=2, layers=2, d_model=16, heads=2, d_ff=32,
                      dropout=0.0, dtype="float64")
    return perturb(init_model(cfg, np.random.default_rng(3)), scale=0.25, seed=4)


@pytest.fixture
def tiny_encdec():
    cfg = ModelConfig(v=8, N=8, layers=1, d_model=16, heads=2, d_ff=32,
                      dropout=0.0, mode="encoder_decoder", d_LP=16)
    return perturb(init_model(cfg, np.random.default_rng(7)))
