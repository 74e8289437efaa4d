"""Autodiff core: op gradients against finite differences and numpy oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snda.numerics import (NEG_INF, NumericError, ParamSet, Tensor, cross_entropy,
                           dropout, embedding, ffn, grad_check, layer_norm, linear,
                           log_softmax_array, no_grad, row_max, softmax_array)


def _check(build_loss, shapes, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
              for name, shape in shapes.items()}
    assert grad_check(lambda: build_loss(params), params, step=1e-5,
                      full=True) <= tol


def test_add_mul_matmul_grads():
    _check(lambda p: ((linear(p["a"], p["b"], p["c"]) + p["a"]) * p["a"]).sum(),
           {"a": (3, 3), "b": (3, 3), "c": (3,)})


def test_broadcast_add_grads():
    _check(lambda p: (p["a"] + p["b"]).sum(), {"a": (4, 3), "b": (3,)})


def test_layer_norm_grads():
    def loss(p):
        y = layer_norm(p["x"], p["g"], p["b"])
        return (y * y).sum()
    _check(loss, {"x": (3, 5), "g": (5,), "b": (5,)}, tol=1e-5)


def test_embedding_grads_and_scatter():
    w = Tensor(np.random.default_rng(0).standard_normal((5, 3)), requires_grad=True)
    ids = np.array([1, 1, 4])
    out = embedding(w, ids)
    assert out.shape == (3, 3)
    (out * out).sum().backward()
    # repeated ids accumulate into the same row
    assert np.allclose(w.grad[1], 2 * (w.data[1] + w.data[1]))
    assert np.allclose(w.grad[0], 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_scatter_equals_a_sequential_loop(dtype):
    # each id's rows are summed in order from +0.0, as np.add.at adds them:
    # repeated ids, ids that never occur, and -0.0 rows (0.0 + -0.0 is +0.0);
    # a dominant id (a pad id, say); many distinct ids beside a pad id
    rng = np.random.default_rng(0)
    dominant = rng.integers(0, 40, size=(16, 24))
    dominant[:, 5:] = 0
    cases = [(np.array([[3, 1, 3], [3, 0, 1]]), 5, 4), (np.array([2, 2, 2, 2]), 3, 2),
             (np.zeros(20, np.int64), 1, 1), (np.array([], np.int64), 4, 3),
             (dominant, 40, 5), (dominant, 40, 1)]
    cases += [(rng.integers(0, v, size=(8, 16)), v, 6) for v in (2, 9, 30)]
    padded = np.zeros((32, 64), np.int64)
    padded[:, :8] = rng.integers(1, 3000, (32, 8))
    cases.append((padded, 3000, 4))
    for ids, v, d in cases:
        g = (rng.standard_normal(ids.shape + (d,)) * 10.0 ** rng.integers(-4, 5, ids.shape + (d,)))
        g[rng.random(g.shape) < 0.2] = -0.0
        zero = np.flatnonzero(ids == 0)     # id 0's rows: a pairwise sum would
        g.reshape(-1, d)[zero] = 1.0        # keep the ones that a loop drops
        g.reshape(-1, d)[zero[:1]] = 1e17 if dtype == np.float64 else 1e8
        g = g.astype(dtype)
        w = Tensor(rng.standard_normal((v, d)).astype(dtype), requires_grad=True)
        (embedding(w, ids) * Tensor(g)).sum().backward()
        want = np.zeros((v, d), dtype)
        for i, row in zip(ids.reshape(-1), g.reshape(-1, d)):
            want[i] = want[i] + row
        assert w.grad.dtype == dtype and w.grad.tobytes() == want.tobytes(), (v, d)


def test_embedding_scatter_memory_follows_the_rows_not_the_table():
    # a large table and a dominant pad id: scratch is the gradient table and
    # one sorted copy of the rows scattered, not the table times the pad
    # id's count
    v, d = 3000, 64
    rng = np.random.default_rng(0)
    ids = np.zeros((32, 64), np.int64)
    ids[:, :8] = rng.integers(1, v, (32, 8))
    w = Tensor(np.zeros((v, d), np.float32), requires_grad=True)
    out = embedding(w, ids)
    g = rng.standard_normal(out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * max(ids.size, v) * d * 4, peak / 1e6
    want = np.zeros_like(w.data)
    np.add.at(want, ids, g)
    assert w.grad.tobytes() == want.tobytes()


def test_backward_runs_once_and_releases_the_tape():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)    # an input leaf
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    h = linear(x, w, b)
    loss = (h * h).sum()
    loss.backward()
    grads = [x.grad.copy(), w.grad.copy(), b.grad.copy()]
    assert np.allclose(w.grad, x.data.T @ (2 * h.data))
    # what ran is released; the leaves keep their gradients
    for node in (loss, h):
        assert node.grad is None and node._parents == ()
    with pytest.raises(RuntimeError, match="released its tape"):
        loss.backward()
    with pytest.raises(RuntimeError, match="released its tape"):
        (h * h).sum().backward()    # a new loss on a released node
    assert all(np.array_equal(g, t.grad) for g, t in zip(grads, (x, w, b)))


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=(2, 3))
    got = cross_entropy(logits, targets, label_smoothing=0.1).item()
    lp = log_softmax_array(logits.data)
    eps, v = 0.1, 5
    want = 0.0
    for b in range(2):
        for i in range(3):
            t = np.full(v, eps / v)
            t[targets[b, i]] += 1 - eps
            want -= (t * lp[b, i]).sum()
    assert got == pytest.approx(want / 6, abs=1e-6)


def test_cross_entropy_grads():
    rng = np.random.default_rng(1)
    targets = rng.integers(0, 4, size=(2, 3))

    def loss(p):
        return cross_entropy(p["lg"].reshape(2, 3, 4), targets,
                             label_smoothing=0.1)
    _check(loss, {"lg": (6, 4)}, tol=1e-5)


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([[0, 7]]))


def test_softmax_array_errors_and_stability():
    with pytest.raises(ValueError):
        softmax_array(np.zeros(3), temperature=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        for tau in (1.0, 0.5):
            with pytest.raises(NumericError):
                softmax_array(np.array([bad, 0.0], dtype=np.float32), tau)
    big = softmax_array(np.array([1e4, 0.0]))
    assert np.isfinite(big).all() and big.sum() == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(0.05, 5.0))
def test_softmax_array_is_a_distribution(vals, tau):
    p = softmax_array(np.array(vals), tau)
    assert p.min() >= 0
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-30, 30))
def test_softmax_shift_invariance(shift):
    logits = np.array([0.3, -1.2, 2.0])
    assert np.allclose(softmax_array(logits), softmax_array(logits + shift))


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.lists(st.integers(0, 3), max_size=3), n=st.integers(1, 40),
       tau=st.sampled_from([1.0, 0.3, 2.5, np.float64(1.0)]), data=st.data())
def test_row_max_and_softmaxes_equal_the_last_axis_reduce(dtype, lead, n, tau, data):
    shape = tuple(lead) + (n,)
    # few distinct values, so rows tie; signed zeros and masked entries
    values = st.sampled_from([0.0, -0.0, 1.5, -2.0, NEG_INF]) | st.floats(-60, 60, width=32)
    x = np.array(data.draw(st.lists(values, min_size=math.prod(shape),
                                    max_size=math.prod(shape))), dtype=dtype).reshape(shape)

    want = x.max(axis=-1, keepdims=True)
    got = row_max(x)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # bitwise too, but for the sign of a zero maximum in a row that holds
    # both +0 and -0, which IEEE max leaves open
    both_zeros = ((x == 0) & np.signbit(x)).any(-1, keepdims=True) & (
        (x == 0) & ~np.signbit(x)).any(-1, keepdims=True)
    assert ((_bits(got) == _bits(want)) | (both_zeros & (want == 0))).all()

    z = x / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    before = x.copy()
    p = softmax_array(x, tau)
    assert np.array_equal(_bits(p), _bits(e / e.sum(axis=-1, keepdims=True)))
    # a fresh array; the input is left as it was
    assert not np.shares_memory(p, x) and np.array_equal(_bits(x), _bits(before))
    z = x - want
    log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    assert np.array_equal(_bits(log_softmax_array(x)), _bits(log_p))


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.sampled_from([(1,), (7,), (3, 5)]), d=st.sampled_from([1, 64]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_equals_the_mean_formula(dtype, lead, d, scale, seed):
    rng = np.random.default_rng(seed)
    x, g, b = (Tensor((scale * rng.standard_normal(shape) + rng.standard_normal()).astype(dtype),
                      requires_grad=True) for shape in (lead + (d,), (d,), (d,)))
    before = x.data.copy()
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    want = xc * inv * g.data + b.data
    y = layer_norm(x, g, b)
    assert y.dtype == want.dtype and np.array_equal(_bits(y.data), _bits(want))
    assert np.array_equal(_bits(x.data), _bits(before))
    with no_grad():
        assert np.array_equal(_bits(layer_norm(x, g, b).data), _bits(want))


def test_layer_norm_propagates_a_nan_row_to_that_row_only():
    x = np.random.default_rng(0).standard_normal((3, 8)).astype(np.float32)
    x[1, 2] = np.nan
    y = layer_norm(Tensor(x), Tensor(np.ones(8, np.float32)), Tensor(np.zeros(8, np.float32)))
    assert np.isnan(y.data[1]).all() and np.isfinite(y.data[[0, 2]]).all()


def test_dropout_train_scaling():
    x = Tensor(np.ones((1000,)), requires_grad=True)
    y = dropout(x, 0.5, np.random.default_rng(0))
    kept = y.data != 0
    assert np.allclose(y.data[kept], 2.0)  # inverted scaling
    assert 0.35 < kept.mean() < 0.65


def test_paramset_rejects_duplicates_and_counts():
    with pytest.raises(ValueError, match="duplicate"):
        ParamSet([("a", (2, 3)), ("a", (1,))], np.zeros(7))
    with pytest.raises(ValueError):
        ParamSet([("a", (2, 3)), ("b", (4,))], np.zeros(9))
    p = ParamSet([("a", (2, 3)), ("b", (4,))], np.arange(10.0))
    assert [name for name, _ in p.items()] == ["a", "b"]
    assert np.array_equal(p["b"].data, [6.0, 7.0, 8.0, 9.0])
    p["a"].grad = np.ones((2, 3))
    assert np.array_equal(p.grads(), [1.0] * 6 + [0.0] * 4)


def test_paramset_rejects_dtypes_the_tape_cannot_hold():
    # Tensor would hold a float32 copy of each view, cut off from flat
    for dtype in (np.float16, np.int32):
        with pytest.raises(ValueError, match="float32 or float64"):
            ParamSet([("w", (2, 2))], np.zeros(4, dtype))
    for dtype in (np.float32, np.float64):
        p = ParamSet([("w", (2, 2))], np.zeros(4, dtype))
        p["w"].data[...] = 1
        assert np.array_equal(p.flat, np.ones(4))


def test_tensor_holds_float_arrays_only():
    for data in (np.arange(3), np.zeros(3, np.float16), [1.0, 2.0], 1.5,
                 Tensor(np.zeros(3))):
        with pytest.raises(TypeError, match="float32 or float64 array"):
            Tensor(data)
    for dtype in (np.float32, np.float64):
        data = np.zeros(3, dtype)
        assert Tensor(data).data is data    # held as it is, not copied


def test_backward_accumulates_through_shared_nodes():
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = a * a        # a appears twice
    (b + b).sum().backward()
    assert np.allclose(a.grad, 8.0)  # d/da 2a^2 = 4a


@pytest.mark.parametrize("swap", [False, True], ids=["shared+square", "square+shared"])
def test_leaves_that_share_an_add_gradient_keep_their_own(swap):
    # an add hands both its parents one gradient array, which each leaf may
    # store uncopied; a's second term, in either order, must not reach b's
    rng = np.random.default_rng(0)
    a, b = (Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
    c = rng.standard_normal(3)
    shared, square = (a + b) * Tensor(c), a * a
    (square + shared if swap else shared + square).sum().backward()
    assert np.array_equal(b.grad, c)
    assert np.allclose(a.grad, c + 2 * a.data)


def test_no_grad_records_no_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with no_grad():
        out = cross_entropy(ffn(w, w, b, w, b) + linear(w, w, b) * w, np.array([0, 1]))
    assert not out.requires_grad and out._parents == () and out._backward is None
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("inside")
    out = (w * w).sum()  # recording again after the exception
    assert out.requires_grad and out._parents
