"""Chain sampling: steps, schedules, clamping, reranking, exact oracle."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from snda.model import ModelConfig, build_conditioning, denoise_logits, init_model
from snda.numerics import NumericError
from snda.sampling import (SamplerConfig, Template,
                           argmax_unrolled_step, exact_chain_prob, model_score,
                           rerank, rerank_seeds, sample_chain, sample_chains,
                           sample_step_low_temp, transition_matrix,
                           triangular_count)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(T=-1)
    with pytest.raises(ValueError):
        SamplerConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(strategy="beam")
    with pytest.raises(ValueError):
        SamplerConfig(update_fraction=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(rerank_width=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SamplerConfig(seed=-1)
    for value in ("no", "false", 0, 1, None):
        with pytest.raises(ValueError, match="early_stop must be true or false"):
            SamplerConfig(early_stop=value)
    for field in ("temperature", "update_fraction", "uncertain_share"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be a finite number"):
                SamplerConfig(schedule="triangular", **{field: value})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 32), st.integers(0, 32), st.integers(1, 64))
def test_triangular_count_bounds(T, t, N):
    c = triangular_count(min(t, T), T, N)
    assert 0 <= c <= N
    assert triangular_count(0, T, N) == 0
    assert triangular_count(T, T, N) == 0


def test_triangular_count_ramp():
    assert [triangular_count(t, 10, 16) for t in range(11)] == \
        [0, 3, 6, 9, 12, 16, 12, 9, 6, 3, 0]


def test_low_temp_step_zero_updates_is_noop(tiny_model):
    y = np.random.default_rng(0).integers(0, 8, size=(3, 8))
    out = sample_step_low_temp(denoise_logits(tiny_model, y).data, y, 0.5, 0, None,
                               [np.random.default_rng(b) for b in range(3)])
    assert np.array_equal(out, y)


def test_low_temp_step_tiny_tau_is_argmax(tiny_model):
    y = np.random.default_rng(0).integers(0, 8, size=(3, 8))
    out = sample_step_low_temp(denoise_logits(tiny_model, y).data, y, 1e-6, 8, None,
                               [np.random.default_rng(b) for b in range(3)])
    want = denoise_logits(tiny_model, y).data.argmax(axis=-1)
    assert np.array_equal(out, want)


def test_low_temp_step_respects_clamp(tiny_model):
    y = np.random.default_rng(0).integers(0, 8, size=(20, 8))
    clamp = np.array([True, False] * 4)
    logits = denoise_logits(tiny_model, y).data
    out = sample_step_low_temp(logits, y, 0.5, 8, clamp,
                               [np.random.default_rng(seed) for seed in range(20)])
    assert np.array_equal(out[:, clamp], y[:, clamp])
    with pytest.raises(ValueError, match="20 chains need 20 rngs"):
        sample_step_low_temp(logits, y, 0.5, 8, clamp, [np.random.default_rng(0)])


def test_argmax_unrolled_rho_zero_is_plain_argmax(tiny_model):
    y = np.random.default_rng(2).integers(0, 8, size=8)
    lam_prev = np.random.default_rng(3).standard_normal((8, 8))
    want = denoise_logits(tiny_model, y).data
    out = argmax_unrolled_step(tiny_model, want, y, lam_prev, 0.0, None)
    assert np.array_equal(out, want.argmax(axis=-1))


def test_argmax_unrolled_requires_lam_prev(tiny_model):
    y = np.zeros(8, dtype=np.int64)
    with pytest.raises(ValueError):
        argmax_unrolled_step(tiny_model, denoise_logits(tiny_model, y).data, y, None,
                             0.5, None)


def test_argmax_unrolled_rho_one_unrolls_everywhere(tiny_model):
    y = np.random.default_rng(4).integers(0, 8, size=8)
    lam_prev = np.random.default_rng(5).standard_normal((8, 8))
    lam = denoise_logits(tiny_model, y).data
    out = argmax_unrolled_step(tiny_model, lam, y, lam_prev, 1.0, None)
    # reference: every position takes the unrolled token
    predicted = lam.argmax(axis=-1)
    lam2 = denoise_logits(tiny_model, predicted).data
    assert np.array_equal(out, lam2.argmax(axis=-1))


def test_argmax_unrolled_reference_simulation(micro_model):
    # independent step-by-step reference of the procedure on v=3, N=2
    rng = np.random.default_rng(6)
    y = rng.integers(0, 3, size=2)
    lam_prev = rng.standard_normal((2, 3))
    rho = 0.5
    lam_ref = denoise_logits(micro_model, y).data
    got = argmax_unrolled_step(micro_model, lam_ref, y, lam_prev, rho, None)

    predicted = lam_ref.argmax(axis=-1)
    from snda.numerics import log_softmax_array
    certainty = log_softmax_array(lam_prev).max(axis=-1)
    uncertain = np.argsort(certainty, kind="stable")[:1]  # ceil(0.5*2) = 1
    z = y.copy()
    z[uncertain] = predicted[uncertain]
    unrolled = denoise_logits(micro_model, z).data.argmax(axis=-1)
    want = predicted.copy()
    want[uncertain] = unrolled[uncertain]
    assert np.array_equal(got, want)


def test_sample_chain_trace_shape(tiny_model):
    cfg = SamplerConfig(T=5, temperature=0.5, early_stop=False, seed=0)
    trace = sample_chain(tiny_model, cfg)
    assert len(trace.states) == 6
    assert len(trace.changed) == 5
    assert trace.final_score is not None
    for a, b, n in zip(trace.states, trace.states[1:], trace.changed):
        assert int((a != b).sum()) == n


def test_sample_chain_deterministic(tiny_model):
    cfg = SamplerConfig(T=4, temperature=0.5, seed=9)
    a = sample_chain(tiny_model, cfg)
    b = sample_chain(tiny_model, cfg)
    for s, t in zip(a.states, b.states):
        assert np.array_equal(s, t)


def test_argmax_chain_early_stops(tiny_model):
    cfg = SamplerConfig(T=16, strategy="argmax_unrolled", uncertain_share=0.0,
                        early_stop=True, seed=0)
    trace = sample_chain(tiny_model, cfg)
    # deterministic argmax iteration reaches a fixed point well before T
    assert len(trace.states) < 17
    assert trace.changed[-1] == 0


def test_template_clamp_never_changes(tiny_model):
    rng = np.random.default_rng(0)
    for i in range(50):
        tokens = rng.integers(0, 8, size=8)
        clamp = rng.random(8) < 0.5
        tmpl = Template(tokens, clamp)
        for strat in ("low_temp", "argmax_unrolled"):
            cfg = SamplerConfig(T=3, temperature=0.4, strategy=strat,
                                seed=100 + i)
            trace = sample_chain(tiny_model, cfg, init=tmpl)
            for state in trace.states:
                assert np.array_equal(state[clamp], tokens[clamp])


def test_template_validates_shapes():
    with pytest.raises(ValueError):
        Template(np.zeros(4, dtype=np.int64), np.zeros(5))


def _sample_reranked(model, cfg):
    return rerank(sample_chains(model, cfg, rerank_seeds(cfg.seed, cfg.rerank_width)))


def test_model_score_and_rerank(tiny_model):
    cfg = SamplerConfig(T=3, temperature=0.5, rerank_width=4, seed=0)
    best, scores = _sample_reranked(tiny_model, cfg)
    finals = [sample_chain(tiny_model, replace(cfg, seed=cfg.seed + 1000003 * i)).states[-1]
              for i in range(4)]
    assert scores == [model_score(tiny_model, f) for f in finals]
    assert np.array_equal(best, finals[int(np.argmin(scores))])


def test_sample_reranked_scores_each_chain_once(tiny_model, monkeypatch):
    import snda.sampling as sampling
    rows, logits = [], sampling.denoise_logits
    monkeypatch.setattr(sampling, "denoise_logits",
                        lambda model, x, *a, **k: rows.append(np.shape(x)[0]) or
                        logits(model, x, *a, **k))
    cfg = SamplerConfig(T=8, temperature=0.03, rerank_width=4, seed=0)
    _sample_reranked(tiny_model, cfg)
    forwarded = list(rows)
    traces = [sample_chain(tiny_model, replace(cfg, seed=s)) for s in rerank_seeds(0, 4)]
    ran_all = [t.changed[-1] != 0 for t in traces]
    assert 0 < sum(ran_all) < 4  # some chains stop early, some run all T steps
    # a row per chain step, a scoring row per chain that ran all T steps,
    # and the chains share each step's forward
    assert sum(forwarded) == sum(len(t.changed) for t in traces) + sum(ran_all)
    assert len(forwarded) == cfg.T + 1


def test_low_temp_step_work_is_batched_across_chains(tiny_model, monkeypatch):
    import snda.sampling as sampling
    import snda.training as training
    cfg = SamplerConfig(T=8, temperature=0.03, update_fraction=0.5, seed=0)
    seeds = rerank_seeds(cfg.seed, 6)
    traces = [sample_chain(tiny_model, replace(cfg, seed=s)) for s in seeds]
    forwards, softmaxes, scored = [], [], []
    logits, softmax, nll = sampling.denoise_logits, training.softmax_array, sampling.nll_array
    monkeypatch.setattr(sampling, "denoise_logits",
                        lambda model, x, *a, **k: forwards.append(np.shape(x)[0]) or
                        logits(model, x, *a, **k))
    monkeypatch.setattr(training, "softmax_array",
                        lambda z, tau: softmaxes.append((z.shape, tau)) or softmax(z, tau))
    monkeypatch.setattr(sampling, "nll_array",
                        lambda z, y: scored.append(len(z)) or nll(z, y))
    batched = sample_chains(tiny_model, cfg, seeds)
    assert [t.final_score for t in batched] == [t.final_score for t in traces]
    steps = [len(t.changed) for t in traces]
    ran_all = [t.changed[-1] != 0 for t in traces]
    assert 0 < sum(ran_all) < 6 and len(set(steps)) > 2
    running = [sum(n >= t for n in steps) for t in range(1, cfg.T + 1)]
    # one forward per step over the running chains, then one scoring forward
    assert forwards == running + [sum(ran_all)]
    # one tempered softmax per step over the 4 resampled positions of every
    # running chain
    assert softmaxes == [((rows, 4, 8), cfg.temperature) for rows in running]
    # one scoring pass per step at which chains stopped, and one at the end
    stopped = [sum(n == t and not r for n, r in zip(steps, ran_all))
               for t in range(1, cfg.T + 1)]
    assert scored == [n for n in stopped if n] + [sum(ran_all)]


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("T", [0, 2])
def test_sample_chains_rejects_non_finite_logits(tiny_model, strategy, T):
    # T=2 reaches the step, T=0 only the scoring pass
    tiny_model.params["head.b"].data[3] = np.nan
    with pytest.raises(NumericError):
        sample_chains(tiny_model, SamplerConfig(T=T, strategy=strategy), [0, 1, 2])


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("T", [0, 1, 3])
@pytest.mark.parametrize("early_stop", [True, False])
def test_sample_chains_without_seeds_returns_no_traces(tiny_model, strategy, T, early_stop):
    cfg = SamplerConfig(T=T, strategy=strategy, early_stop=early_stop)
    assert sample_chains(tiny_model, cfg, []) == []
    template = Template(np.arange(8), np.arange(8) < 3)
    assert sample_chains(tiny_model, replace(cfg, schedule="triangular"), [], template) == []


def test_sample_reranked_picks_min_score(tiny_model):
    cfg = SamplerConfig(T=3, temperature=0.5, rerank_width=3, seed=0)
    best, scores = _sample_reranked(tiny_model, cfg)
    assert min(scores) == model_score(tiny_model, best)


def test_transition_matrix_is_stochastic(micro_model):
    M = transition_matrix(micro_model)
    assert M.shape == (9, 9)
    assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
    assert (M > 0).all()


def test_exact_chain_prob_t1_matches_matrix(micro_model):
    M = transition_matrix(micro_model)
    states = list(itertools.product(range(3), repeat=2))
    for i, x0 in enumerate(states):
        for j, x in enumerate(states):
            p = exact_chain_prob(micro_model, np.array(x0), np.array(x), 1)
            assert p == pytest.approx(M[i, j], abs=1e-12)


def test_exact_chain_prob_guards(micro_model, tiny_model):
    with pytest.raises(ValueError):
        exact_chain_prob(micro_model, np.zeros(2, dtype=int),
                         np.zeros(2, dtype=int), 0)
    with pytest.raises(ValueError):
        exact_chain_prob(tiny_model, np.zeros(8, dtype=int),
                         np.zeros(8, dtype=int), 2)  # 8^8 states: too large


def test_exact_chain_prob_bounds_the_matrix_it_builds(micro_model, monkeypatch):
    import snda.sampling as sampling
    M = transition_matrix(micro_model)
    x0, x = np.array([2, 0]), np.array([1, 2])
    for t in (2, 3):
        want = np.linalg.matrix_power(M, t)[2 * 3 + 0, 1 * 3 + 2]
        assert exact_chain_prob(micro_model, x0, x, t) == pytest.approx(want, abs=1e-12)

    def unbuilt(*args, **kwargs):
        raise AssertionError("transition matrix built")
    monkeypatch.setattr(sampling, "transition_matrix", unbuilt)
    # 4^8 = 65,536 sequences: a 34 GB matrix, refused before it is built
    model = init_model(ModelConfig(v=4, N=8, layers=1, d_model=8, heads=2, d_ff=8,
                                   dropout=0.0), 0)
    zeros = np.zeros(8, dtype=np.int64)
    with pytest.raises(ValueError, match="65536 sequences, at most 4096"):
        exact_chain_prob(model, zeros, zeros, 2)
    assert exact_chain_prob(model, zeros, zeros, 1) == pytest.approx(0.25 ** 8)


@pytest.mark.parametrize("cfg", [
    # T > 2N: the first and last steps resample no position
    SamplerConfig(T=20, schedule="triangular", temperature=0.03),
    SamplerConfig(T=10, schedule="triangular", temperature=0.03),
    SamplerConfig(T=8, temperature=0.03, update_fraction=0.5),
], ids=["triangular-T20", "triangular-T10", "half"])
def test_early_stop_ends_a_chain_only_after_a_step_that_changed_nothing(tiny_model, cfg):
    seeds = range(8)
    stopped = sample_chains(tiny_model, cfg, seeds)
    whole = sample_chains(tiny_model, replace(cfg, early_stop=False), seeds)
    ended = 0
    for trace, full in zip(stopped, whole):
        n = len(trace.states)
        assert all(np.array_equal(a, b) for a, b in zip(trace.states, full.states[:n]))
        assert trace.changed == full.changed[:n - 1]
        if n < cfg.T + 1:
            ended += 1
            resampled = (triangular_count(n - 1, cfg.T, 8) if cfg.schedule == "triangular"
                         else math.ceil(cfg.update_fraction * 8))
            assert trace.changed[-1] == 0 and resampled > 0
    assert ended > 0


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("clamped", [0, 4, 8])
def test_chain_states_and_the_reranked_best_share_no_memory(tiny_model, strategy, early_stop,
                                                            clamped):
    cfg = SamplerConfig(T=8, temperature=0.03, strategy=strategy, update_fraction=0.5,
                        early_stop=early_stop)
    init = Template(np.arange(8), np.arange(8) < clamped) if clamped else None
    traces = sample_chains(tiny_model, cfg, range(8), init)
    if early_stop and clamped < 8:
        assert any(len(trace.states) < cfg.T + 1 for trace in traces)
    states = [state for trace in traces for state in trace.states]
    for a, b in itertools.combinations(states, 2):
        assert not np.shares_memory(a, b)
    # the reranked best holds no chain batch's step array
    assert not any(np.shares_memory(rerank(traces)[0], state) for state in states)


def test_encoder_decoder_chain_requires_cond(tiny_encdec):
    with pytest.raises(ValueError):
        sample_chain(tiny_encdec, SamplerConfig(T=2))
    cond, _ = build_conditioning(tiny_encdec,
                                 np.array([[2, 3, 4, 0, 0, 0, 0, 0]]), [3])
    trace = sample_chain(tiny_encdec, SamplerConfig(T=2, seed=0), cond=cond)
    assert len(trace.states) >= 2
    with pytest.raises(ValueError, match="one row per chain"):
        sample_chains(tiny_encdec, SamplerConfig(T=2), [0, 1], cond=cond)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       strategy=st.sampled_from(["low_temp", "argmax_unrolled"]),
       schedule=st.sampled_from(["constant", "half", "triangular"]),
       temperature=st.sampled_from([0.01, 0.5]), T=st.integers(0, 8),
       early_stop=st.booleans(), template_seed=st.none() | st.integers(0, 99),
       conditioning=st.sampled_from([None, "shared", "per_chain"]))
# chain 1 stops at step 3 while the others run on and rank positions by
# their own carried logits
@example(seeds=[14, 1014, 2014, 3014], strategy="argmax_unrolled", schedule="constant",
         temperature=0.5, T=8, early_stop=True, template_seed=None, conditioning=None)
def test_sample_chains_equal_one_chain_per_seed(tiny_model, tiny_encdec, seeds, strategy,
                                                schedule, temperature, T, early_stop,
                                                template_seed, conditioning):
    cfg = SamplerConfig(T=T, temperature=temperature, strategy=strategy,
                        schedule="triangular" if schedule == "triangular" else "constant",
                        update_fraction=0.5 if schedule == "half" else 1.0,
                        early_stop=early_stop)
    init = None
    if template_seed is not None:
        rng = np.random.default_rng(template_seed)
        init = Template(rng.integers(0, 8, size=8), rng.random(8) < 0.5)
    model, cond, conds = tiny_model, None, [None] * len(seeds)
    if conditioning is not None:
        model = tiny_encdec
        rng = np.random.default_rng(seeds[0])
        lens = rng.integers(1, 9, size=len(seeds))
        src = np.where(np.arange(8) < lens[:, None], rng.integers(2, 8, size=(len(seeds), 8)), 0)
        cond, _ = build_conditioning(model, src, lens)
        conds = [cond.take([b]) for b in range(len(seeds))]
        if conditioning == "shared":
            cond = cond.take([0] * len(seeds))
            conds = [conds[0]] * len(seeds)
    batched = sample_chains(model, cfg, seeds, init, cond)
    for trace, seed, row_cond in zip(batched, seeds, conds):
        alone = sample_chain(model, replace(cfg, seed=seed), init, row_cond)
        assert len(trace.states) == len(alone.states)
        assert all(np.array_equal(a, b) for a, b in zip(trace.states, alone.states))
        assert trace.changed == alone.changed
        assert trace.final_score == alone.final_score
