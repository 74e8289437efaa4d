"""The corruption distribution q(x^c | x) and its per-token marginal."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snda.corruption import corrupt_batch, corruption_matrix


def test_corrupt_deterministic_given_rng():
    x = np.arange(12).reshape(2, 6) % 8
    a = corrupt_batch(x, 8, np.random.default_rng(0))
    b = corrupt_batch(x, 8, np.random.default_rng(0))
    assert np.array_equal(a, b)


def test_corrupt_is_content_independent():
    # identical rng streams => identical (alpha, mask, noise) for any input:
    # all-0 and all-1 inputs agree exactly at the masked positions, where
    # both show the noise, and show their own token everywhere else
    shape = (4, 10)
    zeros = corrupt_batch(np.zeros(shape, dtype=np.int64), 8, np.random.default_rng(3))
    ones = corrupt_batch(np.ones(shape, dtype=np.int64), 8, np.random.default_rng(3))
    mask = zeros == ones
    assert ((zeros == 0) | mask).all() and ((ones == 1) | mask).all()
    x = np.arange(40).reshape(shape) % 5
    out = corrupt_batch(x, 8, np.random.default_rng(3))
    assert np.array_equal(out, np.where(mask, zeros, x))


def test_corrupt_alpha_zero_is_identity():
    x = np.arange(16).reshape(2, 8) % 8
    out = corrupt_batch(x, 8, np.random.default_rng(0), alpha=0.0)
    assert np.array_equal(out, x)


def test_corrupt_alpha_one_replaces_everything():
    x = np.arange(16).reshape(2, 8) % 8
    rng = np.random.default_rng(0)
    out = corrupt_batch(x, 8, rng, alpha=1.0)
    rng = np.random.default_rng(0)
    rng.random(x.shape)  # the mask draw
    assert np.array_equal(out, rng.integers(0, 8, size=x.shape))


def test_corrupt_rejects_out_of_range():
    with pytest.raises(ValueError):
        corrupt_batch(np.array([[9]]), 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        corrupt_batch(np.array([[-1]]), 8, np.random.default_rng(0))


def test_corrupt_batch_matches_single_semantics():
    out = corrupt_batch(np.zeros((64, 16), dtype=np.int64), 8,
                        np.random.default_rng(0))
    assert out.shape == (64, 16)
    assert out.min() >= 0 and out.max() < 8
    # a drawn alpha is one number per row; forcing that number reproduces the row
    x = np.arange(16)[None] % 8
    rng = np.random.default_rng(5)
    alpha = np.random.default_rng(5).random((1, 1))
    forced = np.random.default_rng(5)
    forced.random((1, 1))
    assert np.array_equal(corrupt_batch(x, 8, rng),
                          corrupt_batch(x, 8, forced, alpha=alpha))


def test_corruption_matrix_rows_sum_to_one():
    for p in (0.0, 0.3, 1.0):
        M = corruption_matrix(p, 5)
        assert np.allclose(M.sum(axis=1), 1.0)
        assert (M >= 0).all()


def test_corruption_matrix_limits():
    assert np.allclose(corruption_matrix(0.0, 4), np.eye(4))
    assert np.allclose(corruption_matrix(1.0, 4), np.full((4, 4), 0.25))


def test_corruption_matrix_validates():
    with pytest.raises(ValueError):
        corruption_matrix(1.5, 4)
    with pytest.raises(ValueError):
        corruption_matrix(0.5, 1)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(2, 12))
def test_corruption_matrix_diagonal_dominates(p, v):
    M = corruption_matrix(p, v)
    # staying put is never less likely than any single substitution
    assert (np.diag(M) >= M.max(axis=1) - 1e-12).all()


def test_empirical_marginal_matches_matrix():
    # fixed alpha, one source token: frequencies follow the matrix row
    v, alpha, n = 6, 0.4, 200_000
    src = np.full(n, 2, dtype=np.int64)
    out = corrupt_batch(src[None], v, np.random.default_rng(0), alpha=alpha)[0]
    freq = np.bincount(out, minlength=v) / n
    row = corruption_matrix(alpha, v)[2]
    assert np.abs(freq - row).max() < 0.005
