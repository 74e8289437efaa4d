"""Unrolled loss, schedule, optimizer loop, checkpoint averaging."""

import hashlib
import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from snda.data import PairBatch, pairs_to_batch, synth_task_gen
from snda.model import (DenoiserModel, ModelConfig, build_conditioning, init_model,
                        length_class)
from snda.checkpoint import load_checkpoint, save_checkpoint
from snda.experiments import desk_model_config, train_synthetic
from snda.numerics import NumericError, cross_entropy, grad_check
from snda.sampling import SamplerConfig, sample_chain
from snda.training import (TrainConfig, averaged_model, inverse_cdf, loss_unrolled,
                           lr_schedule, make_train_state, metrics_line, sample_tokens,
                           train_loop, train_step)
from tests.conftest import perturb


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(unroll_terms=0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=200, total_steps=100)
    cfg = TrainConfig(total_steps=100)
    assert cfg.snapshot_interval == 5  # total_steps // 20


@pytest.mark.parametrize("field, value", [
    ("snapshot_interval", 0), ("snapshot_interval", -1), ("ckpt_average_window", -1),
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", -0.1), ("seed", -1),
] + [(field, value) for field in ("lr_start", "lr_peak", "lr_min", "label_smoothing",
                                  "weight_decay", "beta1", "beta2", "adam_eps")
     for value in (math.nan, math.inf, -math.inf)])
def test_config_rejects_values_the_loop_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(total_steps=3, warmup_steps=1, **{field: value})


@pytest.mark.parametrize("field, value", [("total_steps", 0), ("total_steps", -3),
                                          ("warmup_steps", -1)])
def test_config_refuses_step_counts_below_their_floor(field, value):
    # a run of no steps wrote the initial model as its checkpoint, and the
    # averaging window is fixed by total_steps
    floor = 1 if field == "total_steps" else 0
    with pytest.raises(ValueError, match=f"^{field} must be >= {floor}, got {value}$"):
        TrainConfig(**{"total_steps": 3, "warmup_steps": 0, field: value})


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "str"])
@pytest.mark.parametrize("field", ["unroll_terms", "batch_size", "total_steps", "warmup_steps",
                                   "ckpt_average_window", "snapshot_interval", "seed"])
def test_config_integer_fields_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}"):
        TrainConfig(**{"total_steps": 3, "warmup_steps": 1, field: value})
    assert getattr(TrainConfig(**{"total_steps": 3, "warmup_steps": 1, field: np.int64(1)}),
                   field) == 1


def test_config_needs_a_batch():
    # a batch of none stacked no arrays three calls into the first step
    for size in (0, -1):
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {size}"):
            TrainConfig(batch_size=size)
    assert TrainConfig(batch_size=1, snapshot_interval=None).snapshot_interval == 50


def test_lr_schedule_endpoints():
    cfg = TrainConfig(total_steps=1000, warmup_steps=100,
                      lr_start=1e-7, lr_peak=1e-4, lr_min=1e-5)
    assert lr_schedule(0, cfg) == pytest.approx(1e-7)
    assert lr_schedule(100, cfg) == pytest.approx(1e-4)
    assert lr_schedule(1000, cfg) == pytest.approx(1e-5)
    mid = lr_schedule(550, cfg)
    assert 1e-5 < mid < 1e-4


def test_sample_tokens_distribution():
    # uniform logits at temperature 1: chi-squared on 1e5 draws
    draws = sample_tokens(np.zeros((100_000, 4)), np.random.default_rng(0))
    counts = np.bincount(draws.reshape(-1), minlength=4)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001


def test_sample_tokens_low_temperature_is_argmax():
    # the sampler's tempered draw: inverse_cdf at tau=1e-6
    logits = np.random.default_rng(0).standard_normal((50, 6))
    draws = inverse_cdf(logits, np.random.default_rng(1).random((50, 1)), 1e-6)
    assert np.array_equal(draws, logits.argmax(axis=-1))


def test_loss_unrolled_mean_of_terms(tiny_model):
    batch = np.random.default_rng(0).integers(0, 8, size=(4, 8))
    loss, terms = loss_unrolled(tiny_model, batch, 2,
                                np.random.default_rng(42))
    assert len(terms) == 2
    assert loss.item() == pytest.approx(0.5 * (terms[0] + terms[1]), abs=1e-6)


def test_loss_unrolled_first_term_matches_s1(tiny_model):
    batch = np.random.default_rng(0).integers(0, 8, size=(4, 8))
    _, t1 = loss_unrolled(tiny_model, batch, 1, np.random.default_rng(42))
    _, t2 = loss_unrolled(tiny_model, batch, 2, np.random.default_rng(42))
    assert t1[0] == pytest.approx(t2[0], abs=1e-9)


def test_loss_unrolled_severs_sampled_tokens(tiny_model):
    # backward through s=2 must succeed and touch the parameters twice;
    # the sampled intermediate enters as a raw array, so this just must
    # not raise and must produce finite grads
    batch = np.random.default_rng(1).integers(0, 8, size=(2, 8))
    tiny_model.params.zero_grad()
    loss, _ = loss_unrolled(tiny_model, batch, 2, np.random.default_rng(0))
    loss.backward()
    g = tiny_model.params["tok_emb"].grad
    assert np.isfinite(g).all() and np.abs(g).sum() > 0


def test_loss_unrolled_conditional_adds_length_loss(tiny_encdec):
    pairs = synth_task_gen(0, 1, 4, "copy", (2, 6), v_task=6, N=8)
    batch = pairs_to_batch(pairs)
    loss, terms = loss_unrolled(tiny_encdec, batch, 1, np.random.default_rng(0))
    assert loss.item() > terms[0]  # length CE is added on top


def test_loss_unrolled_length_term_is_cross_entropy_of_length_logits(tiny_encdec):
    batch = pairs_to_batch(synth_task_gen(0, 1, 4, "copy", (2, 6), v_task=6, N=8))
    loss, terms = loss_unrolled(tiny_encdec, batch, 2, np.random.default_rng(0))
    _, logits = build_conditioning(tiny_encdec, batch.sources, batch.source_lengths,
                                   target_length=batch.target_lengths)
    length = cross_entropy(logits, length_class(batch.target_lengths, 2)).item()
    f32 = np.float32
    assert loss.item() == (f32(terms[0]) + f32(terms[1])) * f32(0.5) + f32(length)


def test_conditional_loss_is_pinned(tiny_encdec):
    # loss and unroll terms with and without dropout: however the
    # conditioning is built, these stay bit-identical
    batch = pairs_to_batch(synth_task_gen(0, 1, 6, "copy", (2, 6), v_task=6, N=8))
    dropped = DenoiserModel(replace(tiny_encdec.config, dropout=0.1), tiny_encdec.params)
    h = hashlib.sha256()
    for model, train in ((tiny_encdec, False), (dropped, True)):
        loss, terms = loss_unrolled(model, batch, 2, np.random.default_rng(4),
                                    train_mode=train, label_smoothing=0.1)
        h.update(np.array([loss.item()] + terms).astype("<f8").tobytes())
    assert h.hexdigest()[:16] == "59b0c7e77fc00ea9"


def test_conditional_gradients_are_pinned():
    # two decoder layers read the cross-attention memory; its gradient sums
    # each layer's key and value gradients before adding the layers, and
    # every weight gradient sums over the batch and the heads inside one
    # GEMM: the float order that seeded training was pinned in
    cfg = ModelConfig(v=8, N=8, layers=2, d_model=16, heads=2, d_ff=32,
                      dropout=0.0, mode="encoder_decoder", d_LP=16)
    model = perturb(init_model(cfg, np.random.default_rng(7)))
    batch = pairs_to_batch(synth_task_gen(0, 1, 6, "copy", (2, 6), v_task=6, N=8))
    loss, _ = loss_unrolled(model, batch, 2, np.random.default_rng(4), label_smoothing=0.1)
    loss.backward()
    h = hashlib.sha256()
    for _, t in model.params.items():
        h.update(t.grad.astype("<f4").tobytes())
    assert h.hexdigest()[:16] == "17f35863da37f273"


def test_conditional_gradients_match_finite_differences(tiny_encdec):
    model = tiny_encdec.astype(np.float64)
    batch = pairs_to_batch(synth_task_gen(0, 1, 3, "copy", (2, 6), v_task=6, N=8))

    def whole_loss():
        return loss_unrolled(model, batch, 2, np.random.default_rng(42), False, 0.1)[0]

    def terms_mean():
        # the same graph, valued at the unroll terms' mean: the length loss
        # reads detached encodings, so outside lp.* backward differentiates
        # the terms' mean only
        loss, terms = loss_unrolled(model, batch, 2, np.random.default_rng(42), False, 0.1)
        return loss + (math.fsum(terms) / 2 - loss.item())

    length_predictor = {k: t for k, t in model.params.items() if k.startswith("lp.")}
    rest = {k: t for k, t in model.params.items() if not k.startswith("lp.")}
    for params, loss_fn in ((length_predictor, whole_loss), (rest, terms_mean)):
        err = grad_check(loss_fn, params, step=3e-5, max_coords=6, seed=7)
        assert err <= 1e-6, f"max relative error {err:.3e}"


def test_backward_holds_only_the_parameter_gradients():
    # a desk reverse_cipher step: each node is freed once its backward has
    # run, so the traced peak stays within the tape plus the gradients, and
    # with the loss still referenced only the gradients are held after it
    model = init_model(desk_model_config(16, 16, "encoder_decoder"), np.random.default_rng(0))
    batch = pairs_to_batch(synth_task_gen(10_000, 1, 32, "reverse_cipher", (4, 12), 14, 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, _ = loss_unrolled(model, batch, 2, np.random.default_rng(0), train_mode=True,
                                label_smoothing=0.1)
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grads = sum(t.grad.nbytes for _, t in model.params.items() if t.grad is not None)
    slack = 2**20
    assert tape > 10 * 2**20 and grads > 2**20
    assert held <= grads + slack, (held, grads)
    assert peak <= tape + grads + slack, (peak, tape, grads)
    assert loss.item() > 0


def test_loss_unrolled_rejects_pairbatch_on_unconditional(tiny_model):
    pairs = synth_task_gen(0, 1, 2, "copy", (2, 6), v_task=6, N=8)
    with pytest.raises(ValueError):
        loss_unrolled(tiny_model, pairs_to_batch(pairs), 1,
                      np.random.default_rng(0))


def _tiny_state(seed=0, total_steps=8, **overrides):
    cfg = ModelConfig(v=8, N=8, layers=1, d_model=16, heads=2, d_ff=32,
                      dropout=0.0)
    model = init_model(cfg, np.random.default_rng(seed))
    tcfg = TrainConfig(**{"total_steps": total_steps, "warmup_steps": 2, "batch_size": 4,
                          "lr_peak": 1e-3, "seed": seed, "snapshot_interval": 2,
                          "ckpt_average_window": 3, **overrides})
    return make_train_state(model, tcfg)


def _batch_fn(step, rng):
    return rng.integers(0, 8, size=(4, 8))


def _train_recording(state):
    """Run every step of state's config; params.flat after each step."""
    flats = []
    batch_rng = np.random.default_rng(state.cfg.seed + 1)
    for step in range(state.cfg.total_steps):
        train_step(state, _batch_fn(step, batch_rng))
        flats.append(state.model.params.flat.copy())
    return flats


def _window_mean(flats, interval, window):
    """What a deque(maxlen=window) of the snapshots at each multiple of
    interval averages to: a float64 sum, oldest first, from zero."""
    kept = deque((f for step, f in enumerate(flats, 1) if step % interval == 0), maxlen=window)
    if not kept:
        return None, 0
    total = np.zeros(flats[0].shape, np.float64)
    for snap in kept:
        total += snap
    return (total / len(kept)).astype(flats[0].dtype), len(kept)


def test_train_loop_is_deterministic():
    lines_a, lines_b = [], []
    train_loop(_tiny_state(), _batch_fn, log_every=2, log_fn=lines_a.append)
    train_loop(_tiny_state(), _batch_fn, log_every=2, log_fn=lines_b.append)
    assert lines_a == lines_b
    assert lines_a[0].startswith("step=2 loss=")


def test_train_step_reduces_loss():
    state = _tiny_state(total_steps=60)
    first = None
    rng = np.random.default_rng(123)
    batch = rng.integers(0, 8, size=(16, 8))
    for _ in range(60):
        loss, _ = train_step(state, batch)
        if first is None:
            first = loss
    assert loss < first


def test_metrics_line_format():
    state = _tiny_state()
    loss, terms = train_step(state, _batch_fn(0, np.random.default_rng(0)))
    line = metrics_line(state, loss, terms)
    parts = dict(p.split("=") for p in line.split())
    assert set(parts) == {"step", "loss", "lr", "term1", "term2"}
    float(parts["loss"]), float(parts["lr"])


def test_snapshots_follow_interval():
    state = _tiny_state(total_steps=8)
    flats = _train_recording(state)
    # interval 2, window 3 => the snapshots at steps 4, 6, 8 are summed
    assert state.snapshot_count == 3
    want = np.zeros(flats[0].shape, np.float64)
    for step in (4, 6, 8):
        want += flats[step - 1]
    assert state.snapshot_sum.tobytes() == want.tobytes()


@pytest.mark.parametrize("total_steps, interval, window", [
    (8, 2, 0), (8, 2, 10), (9, 2, 3), (11, 3, 2), (5, 1, 3), (6, 1, 6),
], ids=["window-0", "window-beyond-snapshots", "total-not-multiple", "total-not-multiple-3",
        "interval-1", "interval-1-every-step"])
def test_running_sum_equals_the_window_average(total_steps, interval, window):
    state = _tiny_state(total_steps=total_steps, snapshot_interval=interval,
                        ckpt_average_window=window)
    flats = _train_recording(state)
    want, count = _window_mean(flats, interval, window)
    assert state.snapshot_count == count
    got = averaged_model(state).params.flat
    assert got.tobytes() == (flats[-1] if want is None else want).tobytes()


def test_running_average_identity_and_mean():
    # a learning rate of 1e-300 moves no float32 value: every snapshot is the
    # initial parameters, and their average is those bit for bit
    tiny = dict(lr_start=1e-300, lr_peak=1e-300, lr_min=1e-300)
    state = _tiny_state(total_steps=6, snapshot_interval=1, ckpt_average_window=3, **tiny)
    values = state.model.params.flat.copy()
    _train_recording(state)
    assert np.array_equal(state.model.params.flat, values)
    avg = averaged_model(state).params.flat
    assert state.snapshot_count == 3 and avg.dtype == values.dtype
    assert avg.tobytes() == values.tobytes()
    # the snapshots v and 3v average to 2v
    state = _tiny_state(total_steps=2, snapshot_interval=1, ckpt_average_window=2, **tiny)
    batch = _batch_fn(0, np.random.default_rng(0))
    train_step(state, batch)
    state.model.params.flat *= 3
    train_step(state, batch)
    assert np.allclose(averaged_model(state).params.flat, 2 * values, atol=1e-6)


def test_train_step_past_total_steps_raises():
    state = _tiny_state(total_steps=2)
    _train_recording(state)
    summed = state.snapshot_sum.copy()
    with pytest.raises(RuntimeError, match=r"total_steps \(2\)"):
        train_step(state, _batch_fn(0, np.random.default_rng(0)))
    assert state.step == 2 and np.array_equal(state.snapshot_sum, summed)


def test_averaged_model_uses_snapshots():
    state = _tiny_state(total_steps=8)
    flats = _train_recording(state)
    avg = averaged_model(state)
    assert np.array_equal(avg.params.flat, _window_mean(flats, 2, 3)[0])
    assert avg.params.flat is not state.model.params.flat


def test_seeded_training_is_pinned():
    # 60 AdamW steps, 30 of them warm-up, with 10 distinct snapshots averaged
    # into the model
    lines = []
    model, _ = train_synthetic("reverse_cipher", seed=0, total_steps=60, log_fn=lines.append)
    params = np.concatenate([t.data.astype("<f4").reshape(-1) for _, t in model.params.items()])
    assert hashlib.sha256(params.tobytes()).hexdigest()[:16] == "c08b89a373562dba"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "b7d512f634477143"


def _assert_views(params):
    start = 0
    for name, t in params.items():
        n = t.data.size
        assert np.shares_memory(t.data, params.flat), name
        assert np.array_equal(t.data.reshape(-1), params.flat[start: start + n]), name
        start += n
    assert start == params.flat.size


def test_parameters_stay_views_of_flat(tmp_path):
    state = _tiny_state(total_steps=4)
    model = state.model
    _assert_views(model.params)
    _assert_views(averaged_model(state).params)     # no snapshot yet: a copy
    for step in range(2):
        train_step(state, _batch_fn(step, np.random.default_rng(step)))
    assert state.snapshot_count == 1
    _assert_views(model.params)
    _assert_views(averaged_model(state).params)
    _assert_views(model.params.astype(np.float64))
    model.params.load_values({k: t.data + 1.0 for k, t in model.params.items()})
    _assert_views(model.params)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    _assert_views(load_checkpoint(path)[0].params)
    batch = _batch_fn(0, np.random.default_rng(1))
    grad_check(lambda: loss_unrolled(model, batch, 1, np.random.default_rng(2))[0],
               model.params, max_coords=2)
    _assert_views(model.params)


def test_non_finite_loss_raises():
    state = _tiny_state()
    state.model.params["tok_emb"].data[:] = np.inf
    # inf - inf in the first layer norm's centring, before the loss sees a NaN
    with pytest.warns(RuntimeWarning, match="invalid value"), pytest.raises(NumericError):
        train_step(state, _batch_fn(0, np.random.default_rng(0)))


def test_train_step_after_sampling_has_the_same_gradients(tiny_model):
    batch = np.random.default_rng(3).integers(0, 8, size=(4, 8))
    grads = []
    for sample_first in (False, True):
        model = perturb(init_model(tiny_model.config, np.random.default_rng(0)))
        state = make_train_state(model, TrainConfig(total_steps=10, warmup_steps=1, seed=0))
        if sample_first:
            sample_chain(model, SamplerConfig(T=3, strategy="argmax_unrolled", seed=1))
        train_step(state, batch)
        grads.append({k: t.grad for k, t in model.params.items()})
    assert all(np.array_equal(grads[0][k], grads[1][k]) for k in grads[0])
