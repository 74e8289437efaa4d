"""Float arrays with reverse-mode differentiation.

Just the ops a small non-causal transformer and its loss record: add,
multiply, reshape, sum, concat, layer norm, embedding gather/scatter,
cross-entropy, and three whole-sublayer ops that each record one tape node
with an analytic backward: `linear` (x @ W + b), `ffn` (linear, ReLU,
linear) and `attention` (multi-head attention with its projections). Their
weight products are 2-D GEMMs over every row of the batch, so a weight
gradient is one xᵀg product. Values are float32 (training) or float64
(tests, oracles) numpy arrays; gradients accumulate in reverse
topological order of the tape.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import math
import numbers

import numpy as np


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


def finite(name: str, value):
    """`value` itself if it is a finite real number (not a boolean);
    otherwise a ValueError naming `name`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return value
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def seed_value(name: str, value: int) -> int:
    """`value` itself if it can seed numpy's rngs (>= 0); otherwise a
    ValueError naming `name`."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_number_fields(cfg):
    """`finite` on every float field of the dataclass `cfg`, whose own
    comparisons let NaN through, and a ValueError naming any int field that
    holds a bool or a non-integer (an `int | None` field may hold None),
    which those comparisons let through to fail later inside range(). A
    numpy integer in an int field becomes an int, which JSON can write."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float":
            finite(f.name, value)
        elif f.type == "int" or (f.type == "int | None" and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if type(value) is not int:
                setattr(cfg, f.name, int(value))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over its leading axes beyond `shape`, the one broadcast the
    model makes (position embeddings, layer-norm gains and biases)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad.reshape(shape)


def _released(g):
    """The backward of a node whose tape `Tensor.backward` has released."""
    raise RuntimeError("backward() already ran through this graph and released its tape")


class Tensor:
    """A float32 or float64 array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        # numpy returns a 0-d result (a loss, a sum) as a scalar
        if not (isinstance(data, (np.ndarray, np.floating))
                and data.dtype in (np.float32, np.float64)):
            raise TypeError(f"Tensor data must be a float32 or float64 array, got "
                            f"{type(data).__name__} {getattr(data, 'dtype', '')}")
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray):
        # out of place: a gradient stored uncopied may be shared, as both
        # parents of an add are handed the same array
        g = g.astype(self.data.dtype, copy=False)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Accumulate d(self)/d(node) into every node of this scalar's graph,
        in reverse topological order, and release the tape as it runs: once
        a node's backward has run (all its consumers ran before it), its
        gradient, backward closure and parents are cleared, so what they held
        is freed. Leaves (parameters, and inputs made with requires_grad=True)
        keep their gradients. The tape runs once: calling backward() again on
        a released graph raises RuntimeError."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()

    # ---- operators -------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g, other.data.shape))
            out._backward = bwd
        return out

    def __mul__(self, other):
        other = self._coerce(other)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g * self.data, other.data.shape))
            out._backward = bwd
        return out

    def reshape(self, *shape):
        out = _make(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def bwd(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape))
            out._backward = bwd
        return out


_recording = contextvars.ContextVar("snda_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Inside this context (or a function it decorates) operations record no
    tape: results carry no parents and no backward closures."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def recording() -> bool:
    """Whether operations record a tape here (outside every `no_grad`)."""
    return _recording.get()


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    req = _recording.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = parents
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accumulate(piece)
        out._backward = bwd
    return out


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    out = _make(weight.data[ids], (weight,))
    if out.requires_grad:
        out._backward = lambda g: weight._accumulate(_scatter_rows(ids, g, weight.data))
    return out


def _scatter_rows(ids: np.ndarray, g: np.ndarray, table: np.ndarray) -> np.ndarray:
    """np.add.at(np.zeros_like(table), ids, g) bit for bit, without its
    per-index loop: each id's rows of g, in their order, are summed from
    +0.0. Ids that occur at most twice the mean count are summed by one
    reduction over the slot axis of a zero-padded [count + 1, ids, d]
    buffer, which numpy adds slot by slot; the few ids that occur more
    often (the pad id, say) are summed one at a time. The buffer holds at
    most twice the rows of g plus one row an id, whatever the table size."""
    gw = np.zeros_like(table)
    if table.ndim != 2 or table.shape[1] == 1:  # [n, 1] reductions are summed pairwise
        np.add.at(gw, ids, g)
        return gw
    ids = ids.reshape(-1)
    g = g.reshape(-1, table.shape[1])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    counts = np.bincount(ids, minlength=len(table))
    start = np.cumsum(counts) - counts
    depth = 2 * ids.size // max(np.count_nonzero(counts), 1)
    light = (counts > 0) & (counts <= depth)
    keep = light[ids]
    slot = np.arange(1, ids.size + 1) - start[ids]
    buf = np.zeros((counts[light].max(initial=0) + 1, np.count_nonzero(light), table.shape[1]),
                   table.dtype)
    buf[slot[keep], (np.cumsum(light) - 1)[ids[keep]]] = g[order[keep]]
    gw[light] = np.add.reduce(buf, axis=0)
    for i in np.flatnonzero(counts > depth):
        gw[i] = np.add.reduce(g[order[start[i]:start[i] + counts[i]]], axis=0, initial=0)
    return gw


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) without `ndarray.mean`'s Python wrapper."""
    s = np.add.reduce(a, -1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis, as a
    fresh array: the `ndarray.mean` formula bit for bit, each step after the
    centring in place on the node's own temporaries."""
    xc = x.data - _row_mean(x.data)
    inv = _row_mean(xc * xc)
    inv += eps
    np.sqrt(inv, out=inv)
    np.true_divide(1.0, inv, out=inv)
    xhat = np.multiply(xc, inv, out=xc)
    y = xhat * gain.data
    y += bias.data
    out = _make(y, (x, gain, bias))
    if out.requires_grad:
        def bwd(g):
            d = x.data.shape[-1]
            if gain.requires_grad:
                gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(g, bias.data.shape))
            if x.requires_grad:
                gx_hat = g * gain.data
                gx = inv / d * (d * gx_hat
                                - gx_hat.sum(axis=-1, keepdims=True)
                                - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True))
                x._accumulate(gx)
        out._backward = bwd
    return out


def row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True), taken as an elementwise max across the
    slabs of a copy of x's rows that has their axis first: numpy reduces a
    short contiguous axis row by row, several times slower (rows of 16
    float32 values, one core: 265 against 30 us per 32k values). Max is
    exact, so the values are the same. Only the sign of a zero maximum may
    differ, where a row holds both +0 and -0; no softmax output can see it."""
    slabs = x.reshape(-1, x.shape[-1]).T.copy()
    return np.maximum.reduce(slabs, axis=0).reshape(x.shape[:-1] + (1,))


def softmax_array(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Stable softmax of logits / temperature over the last axis of a raw
    array (max-subtraction before exponentiation), as a fresh float32 or
    wider array; the input is left as it is. Temperature 1 divides nothing:
    x / 1.0 is x."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logits = np.asarray(logits, dtype=np.result_type(logits, np.float32, temperature))
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax: non-finite logits")
    if temperature == 1:
        z = logits - row_max(logits)
    else:
        z = logits / temperature
        z -= row_max(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z, -1, keepdims=True)
    return z


def log_softmax_array(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of a raw array."""
    z = logits - row_max(logits)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def nll_array(logits: np.ndarray, targets: np.ndarray,
              label_smoothing: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """-sum_k t_k log p_k at each position of raw logits [..., v] with
    integer targets [...], where t = (1-eps) * onehot(target) + eps / v and
    p = softmax(logits); and log p itself."""
    v = logits.shape[-1]
    if targets.min() < 0 or targets.max() >= v:
        raise ValueError(f"target id out of range [0, {v})")
    if not np.all(np.isfinite(logits)):
        raise NumericError("log-likelihood: non-finite logits")
    logp = log_softmax_array(logits)
    eps = label_smoothing
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    return -(1.0 - eps) * picked - (eps / v) * logp.sum(axis=-1), logp


def cross_entropy(logits: Tensor, targets, label_smoothing: float = 0.0) -> Tensor:
    """Mean over positions of -sum_k t_k log p_k.

    t = (1-eps) * onehot(target) + eps / v, p = softmax(logits, 1).
    Logits may carry leading batch axes; the last axis is the vocabulary.
    """
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
    v = logits.data.shape[-1]
    flat = logits.data.reshape(-1, v)
    tgt = np.asarray(targets).reshape(-1)
    if tgt.shape[0] != flat.shape[0]:
        raise ValueError("targets do not match logits positions")
    nll, logp = nll_array(flat, tgt, label_smoothing)
    n = logits.data.dtype.type(flat.shape[0])
    value = nll.sum() / n

    out = _make(np.asarray(value, dtype=logits.data.dtype), (logits,))
    if out.requires_grad:
        def bwd(g):
            p = np.exp(logp)
            t = np.full_like(p, label_smoothing / v)
            t[np.arange(len(tgt)), tgt] += 1.0 - label_smoothing
            gl = (p - t) * (1 / n) * g
            logits._accumulate(gl.reshape(logits.data.shape))
        out._backward = bwd
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(keep)


# ---- whole sublayers, one node each ---------------------------------

NEG_INF = -1e9


def _rows(t: Tensor) -> np.ndarray:
    """t's values as a [rows, features] array."""
    return t.data.reshape(-1, t.data.shape[-1])


def _linear_grads(x2: np.ndarray, w: Tensor, b: Tensor | None, g2: np.ndarray,
                  need_x: bool) -> np.ndarray | None:
    """Accumulate the gradients of w (and b) in x2 @ w (+ b) for the output
    gradient g2 [rows, n]: one x2ᵀg2 GEMM and one row sum. Returns x2's
    gradient, or None unless need_x."""
    if w.requires_grad:
        w._accumulate(x2.T @ g2)
    if b is not None and b.requires_grad:
        b._accumulate(g2.sum(axis=0))
    return g2 @ w.data.T if need_x else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., k] @ w[k, n] + b[n], one GEMM over every row of x."""
    x2 = _rows(x)
    y = x2 @ w.data
    y += b.data
    out = _make(y.reshape(x.shape[:-1] + y.shape[-1:]), (x, w, b))
    if out.requires_grad:
        def bwd(g):
            gx = _linear_grads(x2, w, b, g.reshape(y.shape), x.requires_grad)
            if gx is not None:
                x._accumulate(gx.reshape(x.shape))
        out._backward = bwd
    return out


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2; backward keeps only x and the hidden
    activations."""
    x2 = _rows(x)
    h = x2 @ w1.data
    h += b1.data
    np.maximum(h, 0, out=h)
    y = h @ w2.data
    y += b2.data
    out = _make(y.reshape(x.shape[:-1] + y.shape[-1:]), (x, w1, b1, w2, b2))
    if out.requires_grad:
        def bwd(g):
            gh = _linear_grads(h, w2, b2, g.reshape(y.shape), True)
            gh *= h > 0
            gx = _linear_grads(x2, w1, b1, gh, x.requires_grad)
            if gx is not None:
                x._accumulate(gx.reshape(x.shape))
        out._backward = bwd
    return out


def attention(x: Tensor, mem: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
              wo: Tensor, bo: Tensor, heads: int, mask: np.ndarray | None) -> Tensor:
    """Multi-head attention of x [B, Tq, d] over mem [B, Tk, d]: the q/k/v
    projections, the head split, the scaled softmax over the keys `mask`
    leaves (bool, True = attended, broadcast against the [B, heads, Tq, Tk]
    scores), the head merge and the output projection wo, bo.

    Self-attention passes the same Tensor as x and mem; its gradient is
    then summed over the query, key and value paths and accumulated once.
    """
    B, Tq, d = x.shape
    Tk = mem.shape[1]
    hd = d // heads
    self_attn = mem is x
    x2, m2 = _rows(x), _rows(mem)

    def split(t2, T):       # [B*T, d] -> [B, heads, T, hd]
        return t2.reshape(B, T, heads, hd).transpose(0, 2, 1, 3)

    def merge(t, T):        # [B, heads, T, hd] -> [B*T, d]
        return t.transpose(0, 2, 1, 3).reshape(B * T, d)

    q = split(x2 @ wq.data, Tq)
    k = split(m2 @ wk.data, Tk)
    v = split(m2 @ wv.data, Tk)
    scale = x.dtype.type(1.0 / math.sqrt(hd))
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    if mask is not None:
        scores += np.where(mask, 0.0, NEG_INF).astype(x.dtype)
    p = softmax_array(scores, 1.0)
    o2 = merge(p @ v, Tq)
    y = o2 @ wo.data
    y += bo.data
    inputs = (x,) if self_attn else (x, mem)
    out = _make(y.reshape(B, Tq, d), inputs + (wq, wk, wv, wo, bo))
    if out.requires_grad:
        def bwd(g):
            go = split(_linear_grads(o2, wo, bo, g.reshape(y.shape), True), Tq)
            gp = go @ v.transpose(0, 1, 3, 2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
            gs *= scale
            need_m = mem.requires_grad
            gx = _linear_grads(x2, wq, None, merge(gs @ k, Tq), x.requires_grad)
            gk = _linear_grads(m2, wk, None, merge(gs.transpose(0, 1, 3, 2) @ q, Tk), need_m)
            gv = _linear_grads(m2, wv, None, merge(p.transpose(0, 1, 3, 2) @ go, Tk), need_m)
            if need_m:
                gk += gv
                if self_attn:
                    gx += gk
                else:
                    mem._accumulate(gk.reshape(mem.shape))
            if gx is not None:
                x._accumulate(gx.reshape(x.shape))
        out._backward = bwd
    return out


class ParamSet:
    """Named parameter Tensors, each a view of its slice of one flat array.

    `layout` gives each parameter's (name, shape, ...) in `flat` order, as
    `model.param_layout` does. Whole-model work (the optimizer update,
    snapshots, averaging, casts) runs on `flat`. Values change only in
    place: rebinding a parameter's `data` cuts it off from `flat`.
    """

    def __init__(self, layout, flat: np.ndarray):
        if flat.dtype not in (np.float32, np.float64):
            raise ValueError(f"flat must be float32 or float64, got {flat.dtype}")
        self.layout = [(name, tuple(shape)) for name, shape, *_ in layout]
        sizes = [math.prod(shape) for _, shape in self.layout]
        if flat.shape != (sum(sizes),):
            raise ValueError(f"layout holds {sum(sizes)} values, flat has shape {flat.shape}")
        self.flat = flat
        self._params: dict[str, Tensor] = {}
        for (name, shape), stop, size in zip(self.layout, np.cumsum(sizes), sizes):
            if name in self._params:
                raise ValueError(f"duplicate parameter name: {name}")
            self._params[name] = Tensor(flat[stop - size: stop].reshape(shape),
                                        requires_grad=True)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def grads(self) -> np.ndarray:
        """Every gradient in `flat` order, zeros where none reached."""
        return np.concatenate([(np.zeros(t.data.size, self.flat.dtype) if t.grad is None
                                else t.grad.reshape(-1)) for t in self._params.values()])

    def load_values(self, values: dict[str, np.ndarray]):
        for k, t in self._params.items():
            src = values[k]
            if src.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {k}: {src.shape} vs {t.data.shape}")
            t.data[...] = src

    def astype(self, dtype) -> "ParamSet":
        return ParamSet(self.layout, self.flat.astype(dtype))


def grad_check(loss_fn, params, step: float = 1e-3,
               max_coords: int = 512, seed: int = 0, full: bool = False) -> float:
    """Max relative error of reverse-mode gradients vs central differences.

    loss_fn must be deterministic given the parameter values (any internal
    randomness fixed by its own seed). Checks a fixed-seed subsample of at
    most `max_coords` coordinates per tensor unless `full` is set.

    params is a ParamSet or a {name: Tensor} dict. Reverse-mode gradients
    are taken from the parameters' own precision; the finite-difference
    oracle always evaluates on a temporary float64 upcast of the parameters
    (a 32-bit loss is too quantized to difference).
    """
    for _, t in params.items():
        t.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in params.items()}

    saved = {k: t.data for k, t in params.items()}
    for _, t in params.items():
        t.data = t.data.astype(np.float64)
    try:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for name, t in params.items():
            # Gradient coordinates below the dtype's noise floor carry no
            # meaningful relative error; compare those absolutely.
            floor = max(1e-8, 1e3 * float(np.finfo(saved[name].dtype).eps))
            n = t.data.size
            if full or n <= max_coords:
                coords = np.arange(n)
            else:
                coords = rng.choice(n, size=max_coords, replace=False)
            flat = t.data.reshape(-1)
            for c in coords:
                orig = flat[c]
                a = analytic[name].reshape(-1)[c]
                # The optimal step balances truncation against roundoff and
                # differs per coordinate; try two scales and keep the closer
                # estimate.
                best = None
                for h in (step, 3 * step):
                    flat[c] = orig + h
                    f_plus = loss_fn().item()
                    flat[c] = orig - h
                    f_minus = loss_fn().item()
                    flat[c] = orig
                    numeric = (f_plus - f_minus) / (2 * h)
                    if best is None or abs(a - numeric) < abs(a - best):
                        best = numeric
                denom = max(abs(a), abs(best), floor)
                worst = max(worst, abs(a - best) / denom)
    finally:
        for k, t in params.items():
            t.data = saved[k]
    return worst
