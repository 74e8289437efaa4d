"""Each benchmark check must fail when fed a deliberately wrong output."""

import math

import numpy as np
import pytest

from perfbench import fixtures, oracles, tracer, workloads
from snda import evaluation, numerics
from snda.data import TokenSeq


def test_reverse_cipher_and_exact_match_floor():
    table = np.array([2, 0, 1])
    assert oracles.reverse_cipher([0, 1, 1, 2], table).tolist() == [1, 0, 0, 2]
    oracles.check_exact_match(0.95, 100)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_exact_match(0.94, 100)


def _pair(src, tgt, N=6):
    ids = [np.pad(np.asarray(x) + 2, (0, N - len(x))) for x in (src, tgt)]
    return TokenSeq(ids[0], len(src)), TokenSeq(ids[1], len(tgt))


def test_cipher_table_is_derived_and_checked():
    table = np.array([1, 2, 0])
    pairs = [_pair(s, oracles.reverse_cipher(s, table)) for s in ([0, 1], [2, 2, 1])]
    assert fixtures.derive_cipher_table(pairs, 3).tolist() == table.tolist()
    with pytest.raises(ValueError, match="maps to both"):
        fixtures.derive_cipher_table(pairs + [_pair([0], [2])], 3)
    with pytest.raises(ValueError, match="never seen"):
        fixtures.derive_cipher_table(pairs[:1], 3)
    with pytest.raises(ValueError, match="bijection"):
        fixtures.check_bijection(np.array([0, 0, 2]))


def test_bleu_oracle_by_hand():
    # precisions 3/4, 2/3, 1/2, 0/1: no smoothing, so a zero order gives 0
    assert oracles.bleu_shared_refs([[1, 2, 3, 5]], [[1, 2, 3, 4]]) == 0.0
    # three tokens have no 4-grams, so orders 1-3 alone count
    assert oracles.bleu_shared_refs([[1, 2, 3]], [[1, 2, 3]]) == pytest.approx(100.0)
    # half the closest reference length: brevity penalty exp(1 - 8/4)
    hyp, ref = [1, 2, 3, 4], [1, 2, 3, 4, 5, 6, 7, 8]
    assert oracles.bleu_shared_refs([hyp], [ref]) == pytest.approx(100 * math.exp(-1.0))
    # counts clip at the largest count in one reference, not the sum over
    # references: precisions 4/8, 3/7, 2/6, 1/5 with one copy or two
    hyp, ref = [1, 2, 3, 4, 1, 2, 3, 4], [1, 2, 3, 4]
    expected = 100 * (4 / 8 * 3 / 7 * 2 / 6 * 1 / 5) ** 0.25
    assert oracles.bleu_shared_refs([hyp], [ref]) == pytest.approx(expected)
    assert oracles.bleu_shared_refs([hyp], [ref, ref]) == pytest.approx(expected)


def test_bleu_oracle_matches_program_and_catches_a_wrong_score():
    rng = np.random.default_rng(0)
    refs = [rng.integers(0, 4, size=rng.integers(3, 9)).tolist() for _ in range(30)]
    hyps = [rng.integers(0, 4, size=rng.integers(2, 9)).tolist() for _ in range(6)]
    program = evaluation.corpus_bleu(hyps, [refs] * len(hyps))
    oracle = oracles.bleu_shared_refs(hyps, refs)
    assert oracle > 0
    oracles.check_equal_scores("bleu", program, oracle)
    oracles.check_equal_scores("self", evaluation.self_bleu(hyps), oracles.self_bleu(hyps))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_equal_scores("bleu", program * (1 + 1e-6), oracle)


def test_quality_diversity_direction():
    oracles.check_quality_diversity((70.0, 40.0), (15.0, 1.0), (0.2, 1.5))
    for low in ((10.0, 40.0), (70.0, 0.5)):
        with pytest.raises(oracles.CheckFailed):
            oracles.check_quality_diversity(low, (15.0, 1.0), (0.2, 1.5))


def test_uniform_cross_entropy_and_loss_fall():
    oracles.check_uniform_cross_entropy([math.log(16)] * 2, 16)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_uniform_cross_entropy([math.log(16), 2.7], 16)
    oracles.check_losses(5.0, [2.5, 3.4], 0.7)
    for finals in ([2.5, 3.6], [float("nan")], [float("inf")]):
        with pytest.raises(oracles.CheckFailed):
            oracles.check_losses(5.0, finals, 0.7)


def test_central_difference_and_gradient_check():
    x = np.array([1.0, 3.0])
    numeric = oracles.central_difference(lambda: float((x ** 3).sum()), x, 1, 1e-5)
    assert numeric == pytest.approx(27.0, rel=1e-9)
    assert x.tolist() == [1.0, 3.0]
    oracles.check_gradient("x", 27.0, numeric)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_gradient("x", 27.001, numeric)


def test_finite_difference_check_catches_a_wrong_backward(monkeypatch):
    workloads.finite_difference_check()
    made, init, backward = [], workloads.model.init_model, numerics.Tensor.backward

    def remember(*args, **kwargs):
        made.append(init(*args, **kwargs))
        return made[-1]

    def ten_percent_high(self):
        backward(self)
        for _, t in made[-1].params.items():
            if t.grad is not None:
                t.grad *= 1.1

    monkeypatch.setattr(workloads.model, "init_model", remember)
    monkeypatch.setattr(numerics.Tensor, "backward", ten_percent_high)
    with pytest.raises(oracles.CheckFailed, match="central difference"):
        workloads.finite_difference_check()


def test_clamp_check():
    tokens = np.array([5, 6, 7, 0])
    clamp = np.array([1, 0, 1, 1])
    oracles.check_clamped(tokens, clamp, [tokens, np.array([5, 9, 7, 0])])
    with pytest.raises(oracles.CheckFailed, match=r"\[2\]"):
        oracles.check_clamped(tokens, clamp, [tokens, np.array([5, 9, 8, 0])])


def test_tracer_records_and_restores():
    from snda import model as snda_model, sampling

    original = snda_model.denoise_logits
    t = tracer.Tracer()
    t.install()
    try:
        assert sampling.denoise_logits is not original
        m = snda_model.init_model(snda_model.ModelConfig(v=5, N=3, d_model=8, heads=2,
                                                        d_ff=8, dropout=0.0), 0)
        sampling.model_score(m, np.array([1, 2, 3]))
    finally:
        t.uninstall()
    assert sampling.denoise_logits is original and snda_model.denoise_logits is original
    w = t.window(0)
    assert (w.name == "sampling.model_score").sum() == 1
    assert w.notes("model.denoise_logits") == [1]
    inner = w.parent_name[w.name == "model.denoise_logits"]
    assert inner.tolist() == ["sampling.model_score"]
    assert w.total_s("sampling.model_score") >= w.total_s("model.denoise_logits") > 0
