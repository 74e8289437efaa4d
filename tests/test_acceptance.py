"""The ten acceptance criteria, one test each, at the stated tolerances.

Training-backed criteria (5, 6, 9) run desk-scale budgets: a couple of
minutes each on CPU. Criterion 5's strict inequality is asserted exactly
as stated; see the repository notes for the measured behaviour of the
unroll ablation on a deterministic task.
"""

import itertools
import os

import numpy as np
import pytest
from scipy import stats

from snda.checkpoint import load_checkpoint, save_checkpoint
from snda.corruption import corrupt_batch, corruption_matrix
from snda.data import encode
from snda.evaluation import exact_match, quality_diversity_curve, strip_pad
from snda.experiments import (bench_report, desk_model_config, train_synthetic,
                              train_toy_lm)
from snda.model import ModelConfig, denoise_logits, init_model
from snda.numerics import grad_check, log_softmax_array
from snda.sampling import (SamplerConfig, Template, argmax_unrolled_step,
                           exact_chain_prob, sample_chain, sample_chains)
from snda.training import (TrainConfig, averaged_model, loss_unrolled, make_train_state,
                           train_step)
from tests.conftest import perturb

EVAL_CFG = SamplerConfig(T=10, temperature=0.3, strategy="low_temp",
                         rerank_width=4, seed=99)


def _tiny(dtype):
    cfg = ModelConfig(v=8, N=8, layers=2, d_model=16, heads=2, d_ff=32,
                      dropout=0.0, dtype=dtype)
    return perturb(init_model(cfg, np.random.default_rng(0)))


def _micro():
    cfg = ModelConfig(v=3, N=2, layers=2, d_model=16, heads=2, d_ff=32,
                      dropout=0.0, dtype="float64")
    return perturb(init_model(cfg, np.random.default_rng(3)), scale=0.25,
                   seed=4)


def test_criterion_01_gradient_correctness():
    batch = np.random.default_rng(2).integers(0, 8, size=(3, 8))
    for dtype, tol in (("float32", 1e-3), ("float64", 1e-6)):
        model = _tiny(dtype)

        def loss():
            return loss_unrolled(model, batch, 2, np.random.default_rng(42),
                                 False, 0.1)[0]
        err = grad_check(loss, model.params, step=3e-5, max_coords=48, seed=7)
        assert err <= tol, f"{dtype}: max relative error {err:.3e} > {tol}"


def test_criterion_02_jensen_bound():
    model = _micro()
    states = list(itertools.product(range(3), repeat=2))
    P = {y: np.exp(log_softmax_array(denoise_logits(model, np.array(y)).data))
         for y in states}

    def f_prob(y, x):
        return float(P[y][0, x[0]] * P[y][1, x[1]])

    for x0 in states:
        for x in states:
            p2 = sum(f_prob(x0, x1) * f_prob(x1, x) for x1 in states)
            lhs = -np.log(p2)
            rhs = sum(f_prob(x0, x1) * -np.log(f_prob(x1, x))
                      for x1 in states)
            assert lhs <= rhs + 1e-9, f"bound violated at {x0}->{x}"


def test_criterion_03_chain_normalization():
    model = _micro()
    rng = np.random.default_rng(5)
    seqs = list(itertools.product(range(3), repeat=2))
    for _ in range(5):
        x0 = rng.integers(0, 3, size=2)
        for t in (1, 2, 3):
            total = sum(exact_chain_prob(model, x0, np.array(x), t)
                        for x in seqs)
            assert abs(total - 1.0) <= 1e-6, f"t={t}: sum {total}"


def test_criterion_04_corruption_statistics():
    v, n = 8, 100_000
    x = np.full((n, 1), 3, dtype=np.int64)
    out = corrupt_batch(x, v, np.random.default_rng(0))
    frac = float((out != x).mean())
    p = 0.5 * (1 - 1 / v)
    se = np.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * se, f"changed fraction {frac} vs {p}"

    alpha = 0.37
    src = np.full(n, 2, dtype=np.int64)
    drawn = corrupt_batch(src[None], v, np.random.default_rng(1), alpha=alpha)[0]
    counts = np.bincount(drawn, minlength=v)
    expected = corruption_matrix(alpha, v)[2] * n
    pval = stats.chisquare(counts, expected).pvalue
    assert pval > 0.001, f"chi-squared p-value {pval}"


@pytest.fixture(scope="module")
def cipher_models():
    out = {}
    for s in (2, 1):
        model, heldout = train_synthetic("reverse_cipher", unroll_terms=s,
                                         length_pred=True, seed=0,
                                         v_task=14, len_range=(4, 12), N=16,
                                         total_steps=1200)
        out[s] = (model, heldout)
    return out


def test_criterion_05_unroll_ablation(cipher_models):
    em = {s: exact_match(m, h, EVAL_CFG) for s, (m, h) in cipher_models.items()}
    assert em[2] >= 0.95, f"exact_match(s=2) = {em[2]:.3f} < 0.95"
    assert em[2] > em[1], (
        f"exact_match(s=2) = {em[2]:.3f} not strictly above "
        f"exact_match(s=1) = {em[1]:.3f}")


def test_criterion_06_length_prediction_ablation():
    em = {}
    for lp in (True, False):
        model, heldout = train_synthetic("copy", unroll_terms=2,
                                         length_pred=lp, seed=0,
                                         total_steps=1200)
        em[lp] = exact_match(model, heldout, EVAL_CFG, use_length_pred=lp)
    assert em[True] >= em[False], (
        f"with length prediction {em[True]:.3f} < without {em[False]:.3f}")


def test_criterion_07_decoding_equivalences():
    model = _tiny("float32")
    rng = np.random.default_rng(0)

    # (a) rho=0 equals plain argmax denoising bit-exactly
    for _ in range(20):
        y = rng.integers(0, 8, size=8)
        lam_prev = rng.standard_normal((8, 8))
        out = argmax_unrolled_step(model, denoise_logits(model, y).data, y, lam_prev,
                                   0.0, None)
        assert np.array_equal(out, denoise_logits(model, y).data.argmax(-1))

    # (b) low_temp at tau=1e-6 equals argmax on 100 random states: the first
    # step of 100 chains, each from the uniform state its seed draws
    traces = sample_chains(model, SamplerConfig(T=1, temperature=1e-6, early_stop=False),
                           range(100))
    y = np.stack([trace.states[0] for trace in traces])
    assert len({row.tobytes() for row in y}) == 100
    want = denoise_logits(model, y).data.argmax(-1)
    for trace, argmax in zip(traces, want):
        assert np.array_equal(trace.states[1], argmax)

    # (c) clamped positions never change across 1000 randomized chains
    for i in range(1000):
        tokens = rng.integers(0, 8, size=8)
        clamp = rng.random(8) < 0.5
        strat = "low_temp" if i % 2 == 0 else "argmax_unrolled"
        cfg = SamplerConfig(T=2, temperature=0.4, strategy=strat, seed=i)
        trace = sample_chain(model, cfg, init=Template(tokens, clamp))
        for state in trace.states:
            assert np.array_equal(state[clamp], tokens[clamp])


def test_criterion_08_speed_accounting():
    mcfg = desk_model_config(32, 64, "unconditional", dropout=0.0)
    model = init_model(mcfg, np.random.default_rng(0))
    _, rows = bench_report(model, [4, 8, 10, 16], batch=32, seed=0)
    for r in rows:
        assert r["forward_pass_ratio"] == 64 / r["T"]
    gains = [r["wallclock_gain"] for r in rows]
    assert all(a > b for a, b in zip(gains, gains[1:])), (
        f"wall-clock gains not strictly decreasing: {gains}")


def test_criterion_09_quality_diversity_direction():
    model, vocab, lines = train_toy_lm(seed=0, total_steps=800)
    refs = [strip_pad(encode(ln, vocab, 32).ids) for ln in lines]
    pts = quality_diversity_curve(model, [0.2, 1.5], 200, refs, seed=0)
    low, high = pts
    assert low.self_bleu > high.self_bleu, (
        f"self-BLEU {low.self_bleu:.2f} <= {high.self_bleu:.2f}")
    assert low.quality_bleu > high.quality_bleu, (
        f"quality BLEU {low.quality_bleu:.2f} <= {high.quality_bleu:.2f}")


def test_criterion_10_persistence_and_determinism(tmp_path):
    # (a) checkpoint round trip bit-exact
    model = _tiny("float32")
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path, step=1, seed=0)
    loaded, _, _ = load_checkpoint(path)
    for (k, a), (_, b) in zip(model.params.items(), loaded.params.items()):
        assert np.array_equal(a.data, b.data), k

    # (b) full train rerun from the same seed reproduces the metrics log
    from snda.cli import run
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        argv = ["train", "--task", "copy", "--v_task", "6", "--len_min", "2",
                "--len_max", "6", "--model.N", "8",
                "--train.total_steps", "60", "--train.batch_size", "8",
                "--seed", "0"]
        assert run(argv + ["--checkpoint", "a.ckpt", "--out", "a.log"]) == 0
        assert run(argv + ["--checkpoint", "b.ckpt", "--out", "b.log"]) == 0
        assert open("a.log").read() == open("b.log").read()
    finally:
        os.chdir(cwd)

    # (c) averaging k identical snapshots is the identity: a learning rate of
    # 1e-300 moves no float32 value, so each step's snapshot is the same
    values = model.params.flat.copy()
    tiny = dict(lr_start=1e-300, lr_peak=1e-300, lr_min=1e-300)
    state = make_train_state(model, TrainConfig(total_steps=3, warmup_steps=1, batch_size=4,
                                                snapshot_interval=1, ckpt_average_window=3,
                                                **tiny))
    batch = np.random.default_rng(0).integers(0, 8, size=(4, 8))
    for _ in range(3):
        train_step(state, batch)
    assert state.snapshot_count == 3
    assert np.array_equal(averaged_model(state).params.flat, values)
