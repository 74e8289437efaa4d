"""Chain sampling: steps, schedules, clamping, reranking, exact oracle."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from snda.model import ModelConfig, build_conditioning, denoise_logits, init_model
from snda.numerics import NumericError, no_grad
from snda.sampling import (SamplerConfig, Template, _chain_scores,
                           argmax_unrolled_step, exact_chain_prob, model_score,
                           rerank, rerank_seeds, sample_chain, sample_chains,
                           transition_matrix, triangular_count)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(T=-1)
    with pytest.raises(ValueError):
        SamplerConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(strategy="beam")
    with pytest.raises(ValueError):
        SamplerConfig(update_fraction=0.0)
    # checked whatever the schedule, though the triangular one sets its own counts
    for schedule in ("constant", "triangular"):
        for value in (0.0, -0.5, 1.5, 5.0):
            with pytest.raises(ValueError, match=r"update_fraction must be in \(0, 1\]"):
                SamplerConfig(schedule=schedule, update_fraction=value)
        assert SamplerConfig(schedule=schedule, update_fraction=1.0).update_fraction == 1.0
    # a setting the strategy or schedule does not read keeps its default;
    # range errors come first
    for kwargs, message in (
            (dict(strategy="argmax_unrolled", update_fraction=0.3),
             "update_fraction is not read under strategy argmax_unrolled, got 0.3"),
            (dict(strategy="argmax_unrolled", schedule="triangular"),
             "schedule is not read under strategy argmax_unrolled, got 'triangular'"),
            (dict(schedule="triangular", update_fraction=0.3),
             "update_fraction is not read under schedule triangular, got 0.3"),
            (dict(uncertain_share=0.1), "uncertain_share is not read under strategy low_temp"),
            (dict(strategy="argmax_unrolled", update_fraction=5.0),
             r"update_fraction must be in \(0, 1\]"),
            (dict(uncertain_share=1.5), r"uncertain_share must be in \[0, 1\]")):
        with pytest.raises(ValueError, match=message):
            SamplerConfig(**kwargs)
    assert SamplerConfig(strategy="argmax_unrolled", uncertain_share=0.9).uncertain_share == 0.9
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


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["fraction", "float", "bool", "str"])
@pytest.mark.parametrize("field", ["T", "rerank_width", "seed"])
def test_sampler_config_integer_fields_must_be_integers(field, value):
    # T=2.5 and rerank_width=2.5 passed their range checks and failed in range()
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}"):
        SamplerConfig(**{field: value})
    assert getattr(SamplerConfig(**{field: np.int64(2)}), field) == 2


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
    # the triangular schedule's first step at T=20, N=8 resamples no position
    cfg = SamplerConfig(T=20, temperature=0.5, schedule="triangular")
    assert triangular_count(1, cfg.T, 8) == 0
    for trace in sample_chains(tiny_model, cfg, range(3)):
        assert np.array_equal(trace.states[1], trace.states[0])
        assert trace.changed[0] == 0


def test_low_temp_step_tiny_tau_is_argmax(tiny_model):
    cfg = SamplerConfig(T=1, temperature=1e-6, early_stop=False)
    traces = sample_chains(tiny_model, cfg, range(3))
    want = denoise_logits(tiny_model, np.stack([t.states[0] for t in traces])).data
    for trace, logits in zip(traces, want):
        assert np.array_equal(trace.states[1], logits.argmax(axis=-1))


def test_low_temp_step_respects_clamp(tiny_model):
    # 20 chains resample the 4 free positions of each step together
    tokens, clamp = np.arange(8), np.array([True, False] * 4)
    cfg = SamplerConfig(T=3, temperature=0.5, early_stop=False)
    traces = sample_chains(tiny_model, cfg, range(20), Template(tokens, clamp))
    assert len({t.states[0].tobytes() for t in traces}) == 20
    for trace in traces:
        assert sum(trace.changed) > 0
        for state in trace.states:
            assert np.array_equal(state[clamp], tokens[clamp])


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
    cfg = SamplerConfig(T=5, temperature=0.5, early_stop=False, rerank_width=2, seed=0)
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


@pytest.mark.parametrize("tokens, clamp, field", [
    (np.arange(8) + 0.5, np.zeros(8), "tokens"),
    (np.arange(8.0), np.zeros(8), "tokens"),
    (np.arange(8), [2, 0, 0, 0, 0, 0, 0, 0], "clamp_mask"),
    (np.arange(8), [0.5] * 8, "clamp_mask"),
    (np.arange(8), [-1, 1, 1, 1, 0, 0, 0, 0], "clamp_mask"),
], ids=["half-ids", "float-ids", "clamp-2", "clamp-half", "clamp-negative"])
def test_template_refuses_what_it_would_round(tokens, clamp, field):
    with pytest.raises(ValueError, match=f"template {field}"):
        Template(tokens, clamp)
    # ids of any integer type, and boolean or 0/1 masks of any type, are kept as they are
    for mask in ([1, 0, 0, 1, 0, 0, 0, 1], np.array([1.0, 0, 0, 1, 0, 0, 0, 0]),
                 np.arange(8) < 3):
        t = Template(np.arange(8, dtype=np.uint8), mask)
        assert t.tokens.dtype == np.int64 and t.tokens.tolist() == list(range(8))
        assert t.clamp_mask.tolist() == [bool(m) for m in mask]


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("tokens, clamp, message", [
    ([0] * 9, [1] * 9, r"template of shape \(9,\) for a model of sequence length 8"),
    ([0] * 7, [0] * 7, r"template of shape \(7,\) for a model of sequence length 8"),
    ([1, 9, 8, 2, 9, 0, 0, 0], [1] * 8, r"clamped template ids \[8, 9\] out of range \[0, 8\)"),
    ([1, -1, 2, 3, 4, 5, 6, 7], [0, 1, 0, 0, 0, 0, 0, 0],
     r"clamped template ids \[-1\] out of range \[0, 8\)"),
], ids=["longer", "shorter", "id-past-v", "negative-id"])
def test_sample_chains_checks_its_template_against_the_model(tiny_model, strategy, tokens,
                                                             clamp, message):
    cfg = SamplerConfig(T=2, strategy=strategy)
    with pytest.raises(ValueError, match=message):
        sample_chains(tiny_model, cfg, [0, 1], Template(tokens, clamp))
    # ids at free positions are drawn over, so only clamped ids must be in range
    free_ids = Template([9, -1, 3, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0])
    trace = sample_chain(tiny_model, cfg, free_ids)
    assert all(0 <= state.min() and state.max() < 8 for state in trace.states)


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
    # the chains share each step's forward, which takes one row per distinct
    # state among the chains running that step (they share no conditioning);
    # then one scoring row per distinct final state of the chains that ran
    # all T steps
    step_rows = [len({trace.states[t - 1].tobytes() for trace in traces
                      if len(trace.changed) >= t}) for t in range(1, cfg.T + 1)]
    score_rows = len({trace.states[-1].tobytes()
                      for trace, ran in zip(traces, ran_all) if ran})
    assert forwarded == step_rows + [score_rows]
    # chains that reach the same state share its row
    assert sum(forwarded) < sum(len(t.changed) for t in traces) + sum(ran_all)


def test_low_temp_step_work_is_batched_across_chains(tiny_model, monkeypatch):
    import snda.sampling as sampling
    import snda.training as training
    cfg = SamplerConfig(T=8, temperature=0.03, update_fraction=0.5, rerank_width=2, seed=0)
    seeds = rerank_seeds(cfg.seed, 6)
    traces = [sample_chain(tiny_model, replace(cfg, seed=s)) for s in seeds]
    forwards, softmaxes, scored = [], [], []
    logits, softmax, nll = sampling.denoise_logits, training.softmax_array, sampling.nll_array
    monkeypatch.setattr(sampling, "denoise_logits",
                        lambda model, x, *a, positions=None, **k:
                        forwards.append((np.shape(x)[0], np.shape(positions))) or
                        logits(model, x, *a, positions=positions, **k))
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
    # one forward per step over the running chains, whose last layer runs at
    # their 4 resampled positions only; no step resamples every position, so
    # every chain is scored in one full forward at the end, over the distinct
    # final states
    finals = len({t.states[-1].tobytes() for t in traces})
    assert forwards == [(rows, (rows, 4)) for rows in running] + [(finals, ())]
    # one tempered softmax per step over the 4 resampled positions of every
    # running chain
    assert softmaxes == [((rows, 4, 8), cfg.temperature) for rows in running]
    assert scored == [6]


@pytest.mark.parametrize("peaked", [False, True], ids=["some-run-all-T", "all-stop-early"])
@pytest.mark.parametrize("conditioned", [False, True], ids=["template", "translate"])
def test_full_update_chains_run_one_forward_per_step(tiny_model, tiny_encdec, monkeypatch,
                                                     conditioned, peaked):
    import snda.sampling as sampling
    model = tiny_encdec if conditioned else tiny_model
    if peaked:      # logits that ignore the input: every chain stops on its second step
        model.params["head.w"].data[...] = 0
        model.params["head.b"].data[...] = 10 * np.arange(8)
    init = None if conditioned else Template(np.arange(8), np.arange(8) < 3)
    cond = None
    if conditioned:
        cond, _ = build_conditioning(model, np.array([[2, 3, 4, 5, 0, 0, 0, 0],
                                                      [5, 6, 7, 0, 0, 0, 0, 0]]), [4, 3])
        cond = cond.take([0] * 4 + [1] * 4)
    calls, forward = [], sampling.denoise_logits
    monkeypatch.setattr(sampling, "denoise_logits",
                        lambda *a, positions=None, **k:
                        calls.append(None if positions is None else np.shape(positions)[1]) or
                        forward(*a, positions=positions, **k))
    # the translate and inpaint default: each step resamples every free position
    cfg = SamplerConfig(T=4, temperature=0.3, rerank_width=2)
    traces = sample_chains(model, cfg, rerank_seeds(0, 8), init, cond)
    steps = max(len(t.changed) for t in traces)
    ran_all = any(t.changed[-1] != 0 for t in traces)
    assert (steps, ran_all) == ((2, False) if peaked else (4, True))
    if conditioned:
        # one full forward per step, and a scoring one only for chains that ran all T steps
        assert calls == [None] * (steps + ran_all)
    else:
        # a template step resamples 5 of the 8 positions, so its last layer runs
        # at those only, and every chain is scored in one full forward at the end
        assert calls == [5] * steps + [None]


def test_chains_that_share_a_row_get_their_own_positions(tiny_model, monkeypatch):
    import snda.sampling as sampling
    calls, forward = [], sampling.denoise_logits

    def traced(model, x, *a, positions=None, **k):
        out = forward(model, x, *a, positions=positions, **k)
        calls.append((x, positions, out.data))
        return out

    monkeypatch.setattr(sampling, "denoise_logits", traced)
    # seeds 30, 66 and 105 draw the same free tokens under this template, then
    # each its own 2 of the 3 free positions
    sample_chains(tiny_model, SamplerConfig(T=1, update_fraction=0.25), [30, 1, 66, 2, 105],
                  Template(np.arange(8), np.arange(8) < 5))
    [(x, sel, got)] = calls
    assert all(np.array_equal(x[0], x[k]) for k in (2, 4))
    assert len({frozenset(sel[k]) for k in (0, 2, 4)}) == 3
    # one forward over all 5 rows, each at its own positions
    assert (len(x), np.shape(sel)) == (5, (5, 2))
    with no_grad():
        full = forward(tiny_model, x).data
    assert np.array_equal(got, np.take_along_axis(full, sel[..., None], axis=1))


def test_partial_update_chains_are_scored_over_their_final_state(tiny_model):
    # uniform chains at update fraction 0.5, and template chains whose steps
    # resample their 5 free positions of 8: both run partial forwards
    for update_fraction, init in [(0.5, None),
                                  (1.0, Template(np.arange(8), np.arange(8) < 3))]:
        cfg = SamplerConfig(T=8, temperature=0.03, update_fraction=update_fraction,
                            rerank_width=2)
        traces = sample_chains(tiny_model, cfg, range(8), init)
        assert any(len(t.changed) < cfg.T for t in traces)
        for t in traces:
            y = t.states[-1][None]
            assert t.final_score == _chain_scores(denoise_logits(tiny_model, y).data, y)[0]
            assert t.final_score == model_score(tiny_model, t.states[-1])


@pytest.mark.parametrize("strategy, update_fraction, clamped, step_positions", [
    ("low_temp", 1.0, 0, [None] * 4),
    ("low_temp", 0.5, 0, [4] * 4),
    ("low_temp", 1.0, 3, [5] * 4),
    ("argmax_unrolled", 1.0, 0, [None] * 7),    # 4 steps and 3 unroll forwards
], ids=["full", "partial", "template", "argmax"])
def test_chains_are_scored_only_where_they_are_reranked(tiny_model, monkeypatch, strategy,
                                                        update_fraction, clamped,
                                                        step_positions):
    import snda.sampling as sampling
    cfg = SamplerConfig(T=4, temperature=0.3, strategy=strategy,
                        update_fraction=update_fraction, early_stop=False)
    init = Template(np.arange(8), np.arange(8) < clamped) if clamped else None
    calls, scored, forward, chain_scores = [], [], sampling.denoise_logits, sampling._chain_scores
    monkeypatch.setattr(sampling, "denoise_logits",
                        lambda *a, positions=None, **k:
                        calls.append(None if positions is None else np.shape(positions)[1]) or
                        forward(*a, positions=positions, **k))
    monkeypatch.setattr(sampling, "_chain_scores",
                        lambda z, y: scored.append(len(y)) or chain_scores(z, y))
    # one chain alone, or the only chain of its source: its step forwards only
    traces = sample_chains(tiny_model, cfg, range(8), init)
    assert calls == step_positions and scored == []
    assert all(t.final_score is None for t in traces)
    # reranked chains run the same step forwards, and score every chain that
    # ran all T steps in one forward
    calls.clear()
    traces = sample_chains(tiny_model, replace(cfg, rerank_width=2), range(8), init)
    assert calls == step_positions + [None]
    assert scored == [8] and all(t.final_score is not None for t in traces)


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("schedule", ["constant", "half", "triangular"])
@pytest.mark.parametrize("setup", ["uniform", "template", "translate"])
def test_rerank_width_changes_no_chain_state(tiny_model, tiny_encdec, strategy, schedule,
                                             setup):
    settings = dict(schedule="triangular" if schedule == "triangular" else "constant",
                    update_fraction=0.5 if schedule == "half" else 1.0)
    if strategy == "argmax_unrolled" and schedule != "constant":
        # argmax_unrolled reads no schedule or update fraction: no such chains run
        with pytest.raises(ValueError, match="not read under strategy argmax_unrolled"):
            SamplerConfig(strategy=strategy, **settings)
        return
    cfg = SamplerConfig(T=8, temperature=0.03, strategy=strategy, **settings)
    seeds = [3, 3, 8, 14, 1014, 2014]
    model, init, cond = tiny_model, None, None
    if setup == "template":
        init = Template(np.arange(8), np.array([1, 0, 0, 1, 0, 1, 0, 0], dtype=bool))
    if setup == "translate":
        model = tiny_encdec
        cond, _ = build_conditioning(model, np.array([[2, 3, 4, 5, 0, 0, 0, 0],
                                                      [5, 6, 7, 0, 0, 0, 0, 0]]), [4, 3])
        cond = cond.take([0, 0, 0, 1, 1, 1])
    alone = sample_chains(model, cfg, seeds, init, cond)
    assert all(trace.final_score is None for trace in alone)
    for width in (2, 4):
        reranked = sample_chains(model, replace(cfg, rerank_width=width), seeds, init, cond)
        for a, b in zip(alone, reranked):
            assert len(a.states) == len(b.states)
            assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
            assert a.changed == b.changed and b.final_score is not None


def test_unscored_template_steps_run_the_last_layer_at_the_free_positions(tiny_model,
                                                                         monkeypatch):
    import snda.sampling as sampling
    clamp = np.array([1, 0, 0, 1, 0, 1, 0, 0], dtype=bool)
    calls, forward = [], sampling.denoise_logits
    monkeypatch.setattr(sampling, "denoise_logits",
                        lambda *a, positions=None, **k: calls.append(positions) or
                        forward(*a, positions=positions, **k))
    free = np.flatnonzero(~clamp)
    for seeds in ([5], [0, 1, 2]):
        calls.clear()
        sample_chains(tiny_model, SamplerConfig(T=3, early_stop=False), seeds,
                      Template(np.arange(8), clamp))
        # every step resamples the 5 free positions, in the order each chain drew them
        assert len(calls) == 3
        for at in calls:
            assert np.array_equal(np.sort(at, axis=1), np.tile(free, (len(at), 1)))


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("T", [0, 2])
def test_sample_chains_rejects_non_finite_logits(tiny_model, strategy, T):
    # T=2 reaches the step, T=0 only the scoring pass, which reranked chains run
    tiny_model.params["head.b"].data[3] = np.nan
    cfg = SamplerConfig(T=T, strategy=strategy, rerank_width=2 if T == 0 else 1)
    with pytest.raises(NumericError):
        sample_chains(tiny_model, cfg, [0, 1, 2])


@pytest.mark.parametrize("strategy", ["low_temp", "argmax_unrolled"])
@pytest.mark.parametrize("T", [0, 1, 3])
@pytest.mark.parametrize("early_stop", [True, False])
def test_sample_chains_without_seeds_returns_no_traces(tiny_model, strategy, T, early_stop):
    cfg = SamplerConfig(T=T, strategy=strategy, early_stop=early_stop)
    assert sample_chains(tiny_model, cfg, []) == []
    template = Template(np.arange(8), np.arange(8) < 3)
    if strategy == "low_temp":
        cfg = replace(cfg, schedule="triangular")
    assert sample_chains(tiny_model, cfg, [], template) == []


def test_sample_reranked_picks_min_score(tiny_model):
    cfg = SamplerConfig(T=3, temperature=0.5, rerank_width=3, seed=0)
    best, scores = _sample_reranked(tiny_model, cfg)
    assert min(scores) == model_score(tiny_model, best)


def test_rerank_refuses_unscored_chains(tiny_model):
    traces = sample_chains(tiny_model, SamplerConfig(T=3, temperature=0.5), rerank_seeds(0, 3))
    with pytest.raises(ValueError, match="rerank_width >= 2"):
        rerank(traces)
    # a single chain is the best of its one, scored or not
    best, scores = rerank(traces[1:2])
    assert np.array_equal(best, traces[1].states[-1]) and scores == [None]
    assert not np.shares_memory(best, traces[1].states[-1])


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
    cfg = SamplerConfig(T=8, temperature=0.03, strategy=strategy,
                        update_fraction=0.5 if strategy == "low_temp" else 1.0,
                        early_stop=early_stop, rerank_width=2)
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
@given(seeds=st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1), min_size=1, max_size=5),
       strategy=st.sampled_from(["low_temp", "argmax_unrolled"]),
       schedule=st.sampled_from(["constant", "half", "triangular"]),
       temperature=st.sampled_from([0.01, 0.5]), T=st.integers(0, 8),
       early_stop=st.booleans(), template_seed=st.none() | st.integers(0, 99),
       conditioning=st.sampled_from([None, "shared", "per_chain"]),
       rerank_width=st.sampled_from([1, 2]))
# chain 1 stops at step 3 while the others run on and rank positions by
# their own carried logits
@example(seeds=[14, 1014, 2014, 3014], strategy="argmax_unrolled", schedule="constant",
         temperature=0.5, T=8, early_stop=True, template_seed=None, conditioning=None,
         rerank_width=2)
# repeated seeds start from the same state: under one source the chains
# share every row, under different sources none
@example(seeds=[3, 3, 8, 3], strategy="low_temp", schedule="constant", temperature=0.5,
         T=8, early_stop=True, template_seed=None, conditioning="shared",
         rerank_width=2)
@example(seeds=[3, 3, 8, 3], strategy="low_temp", schedule="constant", temperature=0.5,
         T=8, early_stop=True, template_seed=None, conditioning="per_chain",
         rerank_width=2)
# repeated seeds under one source with partial steps: chains that share a
# row run it unmerged, each at its own positions
@example(seeds=[3, 3, 8, 3], strategy="low_temp", schedule="half", temperature=0.5,
         T=8, early_stop=True, template_seed=None, conditioning="shared",
         rerank_width=2)
@example(seeds=[3, 3, 8, 3], strategy="argmax_unrolled", schedule="constant",
         temperature=0.5, T=8, early_stop=True, template_seed=None, conditioning="per_chain",
         rerank_width=2)
def test_sample_chains_equal_one_chain_per_seed(tiny_model, tiny_encdec, seeds, strategy,
                                                schedule, temperature, T, early_stop,
                                                template_seed, conditioning, rerank_width):
    if strategy == "argmax_unrolled":
        schedule = "constant"   # the only schedule SamplerConfig takes with it
    cfg = SamplerConfig(T=T, temperature=temperature, strategy=strategy,
                        schedule="triangular" if schedule == "triangular" else "constant",
                        update_fraction=0.5 if schedule == "half" else 1.0,
                        early_stop=early_stop, rerank_width=rerank_width)
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
    import snda.sampling as sampling
    rows, unrolling = [], []

    def forward(model, x, c=None, positions=None):
        if not unrolling:
            rows.append(([state.tobytes() + (b"" if c is None else c.memory.data[k].tobytes()
                                             + c.key_mask[k].tobytes())
                          for k, state in enumerate(np.reshape(x, (-1, 8)))],
                         positions is not None))
        return denoise_logits(model, x, c, positions=positions)

    def unroll(*a, **kw):
        unrolling.append(True)
        try:
            return argmax_unrolled_step(*a, **kw)
        finally:
            unrolling.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "denoise_logits", forward)
        mp.setattr(sampling, "argmax_unrolled_step", unroll)
        batched = sample_chains(model, cfg, seeds, init, cond)
    # each full forward over the chains takes every (state, conditioning) row
    # once; argmax_unrolled's unroll forward is not merged
    full = [keys for keys, partial in rows if not partial]
    assert [len(keys) for keys in full] == [len(set(keys)) for keys in full]
    # a partial forward, on a low_temp step that resamples fewer than 8
    # positions, takes one row per chain that runs the step
    free = 8 if init is None else int((~init.clamp_mask).sum())
    running = [sum(len(trace.changed) >= t for trace in batched) for t in range(1, T + 1)
               if strategy == "low_temp" and 0 < min(sampling._step_count(cfg, t, 8), free) < 8]
    assert [len(keys) for keys, partial in rows if partial] == [n for n in running if n]
    for trace, seed, row_cond in zip(batched, seeds, conds):
        alone = sample_chain(model, replace(cfg, seed=seed), init, row_cond)
        assert len(trace.states) == len(alone.states)
        assert all(np.array_equal(a, b) for a, b in zip(trace.states, alone.states))
        assert trace.changed == alone.changed
        # chains are scored at a width of 2 or more only, batched as alone
        assert (trace.final_score is None) == (rerank_width == 1)
        assert trace.final_score == alone.final_score
