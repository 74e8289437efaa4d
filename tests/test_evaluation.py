"""BLEU / self-BLEU oracles and the evaluation drivers."""

import copy
import hashlib
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from snda import evaluation
from snda.data import PAD, TokenSeq
from snda.evaluation import (BleuConfig, ClipTable, bleu, corpus_bleu, draw_samples, exact_match,
                             quality_diversity_curve, self_bleu, strip_pad, translate)
from snda.sampling import SamplerConfig, sample_chains


def test_bleu_perfect_match_is_100():
    corpus = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w", "q"]]
    assert bleu(corpus, corpus) == pytest.approx(100.0)


def test_bleu_hand_computed_brevity_penalty():
    # hyp 4 tokens, ref 5: all n-gram precisions 1, BP = exp(1 - 5/4)
    hyp = [["a", "b", "c", "d"]]
    ref = [["a", "b", "c", "d", "e"]]
    assert bleu(hyp, ref) == pytest.approx(100.0 * math.exp(1 - 5 / 4))


def test_bleu_hand_computed_precisions():
    # hyp: the cat the cat / ref: the cat sat -- unigram clip: the(1)+cat(1)
    hyp = [["the", "cat", "the", "cat"]]
    ref = [["the", "cat", "sat"]]
    got = bleu(hyp, ref, BleuConfig(max_order=2))
    p1 = 2 / 4
    p2 = 1 / 3  # "the cat" twice in hyp, once in ref -> clipped to 1
    assert got == pytest.approx(100.0 * math.sqrt(p1 * p2))


def test_bleu_zero_precision_zeroes_score():
    assert bleu([["a", "b", "c", "d"]], [["e", "f", "g", "h"]]) == 0.0


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(st.integers(0, 3), max_size=12) | st.lists(st.sampled_from("ab."), max_size=12),
       as_tuple=st.booleans(), data=st.data())
def test_ngrams_equal_the_slice_reference(tokens, as_tuple, data):
    tokens = tuple(tokens) if as_tuple else tokens
    n = data.draw(st.integers(1, len(tokens) + 2))
    want = Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))
    got = evaluation._ngrams(tokens, n)
    # same counts, keys and insertion order
    assert list(got.items()) == list(want.items())
    assert all(type(g) is tuple for g in got)


def test_corpus_bleu_multi_reference_clipping():
    hyp = [["the", "the", "the"]]
    refs = [[["the", "cat"], ["the", "the", "dog"]]]
    got = corpus_bleu(hyp, refs, BleuConfig(max_order=1))
    assert got == pytest.approx(100.0 * 2 / 3)  # clip at max ref count 2


def test_corpus_bleu_closest_ref_length():
    hyp = [["a", "b", "x"]]
    refs = [[["a", "b"], ["a", "b", "c", "d", "e", "f"]]]
    got = corpus_bleu(hyp, refs, BleuConfig(max_order=1))
    # closest ref length is 2 < 3 hyp tokens: no brevity penalty applies
    assert got == pytest.approx(100.0 * 2 / 3)


def test_bleu_permutation_invariance():
    rng = np.random.default_rng(0)
    hyps = [[str(t) for t in rng.integers(0, 5, size=6)] for _ in range(10)]
    refs = [[str(t) for t in rng.integers(0, 5, size=6)] for _ in range(10)]
    base = bleu(hyps, refs)
    order = rng.permutation(10)
    assert bleu([hyps[i] for i in order],
                [refs[i] for i in order]) == pytest.approx(base)


def test_bleu_validates_inputs():
    with pytest.raises(ValueError):
        bleu([["a"]], [])
    with pytest.raises(ValueError):
        corpus_bleu([], [])
    with pytest.raises(ValueError):
        BleuConfig(max_order=0)


def test_self_bleu_order_invariance():
    rng = np.random.default_rng(1)
    samples = [[str(t) for t in rng.integers(0, 4, size=5)] for _ in range(6)]
    base = self_bleu(samples)
    assert self_bleu(samples[::-1]) == pytest.approx(base)


def test_self_bleu_identical_samples_is_100():
    assert self_bleu([["a", "b", "c", "d"]] * 3) == pytest.approx(100.0)


def test_self_bleu_needs_two():
    with pytest.raises(ValueError):
        self_bleu([["a"]])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=4, max_size=8),
                min_size=1, max_size=6))
def test_bleu_bounded(h):
    score = bleu(h, h)
    assert score == pytest.approx(100.0)
    other = [["z"] * len(x) for x in h]
    assert 0.0 <= bleu(h, other) <= 100.0


@st.composite
def _bleu_case(draw):
    """(hypotheses, references, max_order) over str or int tokens, with
    duplicate references and references and hypotheses shorter than
    max_order."""
    tokens = draw(st.sampled_from(["abc", [1, 2, 3], [0, 1]]))
    seq = st.lists(st.sampled_from(tokens), max_size=6)
    refs = draw(st.lists(seq, min_size=1, max_size=5))
    refs += [copy.copy(refs[i]) for i in draw(st.lists(st.integers(0, len(refs) - 1),
                                                       max_size=3))]
    hyps = draw(st.lists(seq, min_size=1, max_size=4))
    return hyps, refs, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(_bleu_case())
def test_shared_reference_list_scores_like_separate_copies(case):
    hyps, refs, order = case
    cfg = BleuConfig(max_order=order)
    shared = corpus_bleu(hyps, [refs] * len(hyps), cfg)
    assert shared == corpus_bleu(hyps, [copy.deepcopy(refs) for _ in hyps], cfg)


def test_generated_reference_lists_score_like_a_list():
    # corpus_bleu keys its clip tables by id(refs), so it must keep each
    # reference list alive for the whole call: a one-reference list freed
    # after its pair could hand its address, and its table, to a later list
    class Refs(list):   # a list that takes weak references
        pass

    def one_reference_lists():
        earlier = []
        for h in hyps:
            assert all(ref() is not None for ref in earlier), "reference list freed mid-call"
            refs = Refs([list(h)])
            earlier.append(weakref.ref(refs))
            yield refs

    hyps = [list(w) for w in ("abcd", "efgh", "ijkl", "mnop", "qrst", "uvwx")]
    expected = corpus_bleu(hyps, [[h] for h in hyps])
    assert expected == pytest.approx(100.0)
    assert corpus_bleu(hyps, one_reference_lists()) == expected
    with pytest.raises(ValueError, match="counts differ"):
        corpus_bleu(hyps, ([h] for h in hyps[:3]))


def test_clip_tables_follow_reference_content():
    hyps = [list("abcd"), list("abce")]
    refs = [list("abcd")]
    first = corpus_bleu(hyps, [refs] * 2, BleuConfig(max_order=2))
    assert first == pytest.approx(100.0 * math.sqrt(7 / 8 * 5 / 6))
    assert corpus_bleu(hyps, [copy.deepcopy(refs)] * 2, BleuConfig(max_order=2)) == first
    # the same list object, mutated between calls, scores its new content
    refs[0][3] = "x"
    assert corpus_bleu(hyps, [refs] * 2, BleuConfig(max_order=2)) == pytest.approx(
        100.0 * math.sqrt(6 / 8 * 4 / 6))
    refs.append(list("abce"))
    assert corpus_bleu(hyps, [refs] * 2, BleuConfig(max_order=2)) == first
    refs[:] = [list("wxyz")]
    assert corpus_bleu(hyps, [refs] * 2, BleuConfig(max_order=2)) == 0.0


def test_clip_table_stands_in_for_its_references():
    refs = [list("abcd"), list("abd"), list("abcd"), list("xbcab")]
    hyps = [list("abcab"), list("ab"), list("dcba")]
    for order in (1, 2, 4):
        cfg = BleuConfig(max_order=order)
        table = ClipTable.build(refs, order)
        assert corpus_bleu(hyps, [table] * 3, cfg) == corpus_bleu(hyps, [refs] * 3, cfg)
        assert corpus_bleu(hyps, [table, refs, table], cfg) == corpus_bleu(hyps, [refs] * 3, cfg)
    with pytest.raises(ValueError, match="clip table has 2 orders, max_order is 4"):
        corpus_bleu(hyps, [ClipTable.build(refs, 2)] * 3)
    with pytest.raises(ValueError, match="empty reference list"):
        ClipTable.build([], 4)


def test_quality_diversity_curve_builds_one_clip_table(tiny_model, monkeypatch):
    built = []
    build = ClipTable.build

    def counting(refs, max_order):
        built.append(max_order)
        return build(refs, max_order)

    monkeypatch.setattr(ClipTable, "build", counting)
    cfg = SamplerConfig(T=2, update_fraction=0.5)
    quality_diversity_curve(tiny_model, [0.3, 1.0, 2.0], 4, [[2, 3], [3, 4, 2]],
                            sampler_cfg=cfg, bleu_cfg=BleuConfig(max_order=3), seed=1)
    assert built == [3]


@st.composite
def _self_bleu_case(draw):
    """(samples, max_order) over str or int tokens, with duplicate samples,
    samples shorter than max_order (the empty one included) and tied lengths."""
    tokens = draw(st.sampled_from(["abc", [1, 2, 3], [0, 1], "a"]))
    samples = draw(st.lists(st.lists(st.sampled_from(tokens), max_size=7),
                            min_size=2, max_size=7))
    samples += [copy.copy(samples[i]) for i in draw(st.lists(
        st.integers(0, len(samples) - 1), max_size=2))]
    return samples, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_self_bleu_case())
# one sample alone holds the top counts of (a,) and (a, a)
@example(([list("aaaab"), list("aab"), list("ab")], 2))
# two duplicates share the top count of (1,); one sample alone holds (2,)'s
@example(([[1, 1, 2], [1, 2, 2], [1, 1, 2]], 1))
# closest-length ties, with and without another sample of the same length
@example(([list("abc"), list("ab"), list("abcd")], 4))
@example(([list("abc"), list("ab"), list("abcd"), list("cba")], 4))
# samples shorter than max_order, the empty one included
@example(([[], list("a"), list("ab")], 3))
def test_self_bleu_matches_leave_one_out_definition(case):
    samples, order = case
    cfg = BleuConfig(max_order=order)
    one_by_one = [corpus_bleu([s], [samples[:i] + samples[i + 1:]], cfg)
                  for i, s in enumerate(samples)]
    assert self_bleu(samples, cfg) == float(np.mean(one_by_one))


def test_quality_diversity_draws_each_temperature_as_one_batch(tiny_model, monkeypatch):
    calls = []

    def recording(model, cfg, seeds, *args, **kwargs):
        calls.append((cfg.temperature, list(seeds)))
        return sample_chains(model, cfg, seeds, *args, **kwargs)

    monkeypatch.setattr(evaluation, "sample_chains", recording)
    cfg = SamplerConfig(T=2, update_fraction=0.5)
    quality_diversity_curve(tiny_model, [0.5, 1.0], 8, [[2, 3]], sampler_cfg=cfg, seed=5)
    assert calls == [(0.5, list(range(5, 21))), (1.0, list(range(7924, 7940)))]
    calls.clear()
    # 40 chains a temperature: one full group of CHAIN_ROWS and the rest
    quality_diversity_curve(tiny_model, [0.5, 1.0], 20, [[2, 3]], sampler_cfg=cfg, seed=5)
    assert calls == [(0.5, list(range(5, 37))), (0.5, list(range(37, 45))),
                     (1.0, list(range(7924, 7956))), (1.0, list(range(7956, 7964)))]


def test_quality_diversity_curve_is_pinned(tiny_model):
    # digest taken with every reference counted again for each hypothesis;
    # counting each reference set once must not move any score
    rng = np.random.default_rng(9)
    refs = [rng.integers(2, 8, size=int(rng.integers(1, 9))).tolist() for _ in range(60)]
    refs += refs[:20]
    pts = quality_diversity_curve(tiny_model, [0.3, 1.0, 2.0], 8, refs,
                                  sampler_cfg=SamplerConfig(T=6, update_fraction=0.5), seed=2)
    text = ";".join(f"{p.temperature!r},{p.quality_bleu!r},{p.self_bleu!r}" for p in pts)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "dc12bb3e961dc06c"


def test_strip_pad():
    assert strip_pad(np.array([3, 4, PAD, 5])) == [3, 4]
    assert strip_pad(np.array([PAD])) == []


def test_quality_diversity_validates():
    with pytest.raises(ValueError):
        quality_diversity_curve(None, [], 10, [[1]])
    with pytest.raises(ValueError):
        quality_diversity_curve(None, [1.0, 0.5], 10, [[1]])


def test_quality_diversity_reproducible(tiny_model):
    refs = [[2, 3, 4], [5, 6, 7]]
    cfg = SamplerConfig(T=2, temperature=1.0, seed=0)
    a = quality_diversity_curve(tiny_model, [0.5], 6, refs, sampler_cfg=cfg,
                                seed=3)
    b = quality_diversity_curve(tiny_model, [0.5], 6, refs, sampler_cfg=cfg,
                                seed=3)
    assert a == b


def test_exact_match_on_oracle_pairs(tiny_encdec):
    # untrained model almost surely misses; empty pair list scores 0
    from snda.data import synth_task_gen
    pairs = synth_task_gen(0, 1, 3, "copy", (2, 4), v_task=6, N=8)
    cfg = SamplerConfig(T=2, temperature=0.3, rerank_width=1, seed=0)
    acc = exact_match(tiny_encdec, pairs, cfg)
    assert 0.0 <= acc <= 1.0
    assert exact_match(tiny_encdec, [], cfg) == 0.0


def test_batched_decoding_is_pinned(tiny_model, tiny_encdec):
    # outputs of the one-chain-at-a-time sampler that the batched chains
    # replaced; chains stop early at different steps, and the inputs span
    # more than CHAIN_ROWS chains
    rng = np.random.default_rng(5)
    sources = []
    for _ in range(12):
        n = int(rng.integers(1, 9))
        ids = np.zeros(8, dtype=np.int64)
        ids[:n] = rng.integers(2, 8, size=n)
        sources.append(TokenSeq(ids, n))
    for cfg, digest in ((SamplerConfig(T=10, temperature=0.005, rerank_width=3, seed=11),
                         "021ff4071e9ccdec"),
                        (SamplerConfig(T=10, strategy="argmax_unrolled", rerank_width=3,
                                       seed=11), "f9bf4a3c311fc6ae")):
        h = hashlib.sha256()
        for best in translate(tiny_encdec, sources, cfg):
            h.update(np.asarray(best).astype("<i8").tobytes())
        assert h.hexdigest()[:16] == digest, cfg.strategy
    h = hashlib.sha256()
    for ids in draw_samples(tiny_model, SamplerConfig(T=8, temperature=0.02, update_fraction=0.5),
                            40, 4):
        h.update(np.asarray(ids, dtype="<i8").tobytes() + b"|")
    assert h.hexdigest()[:16] == "929348741f085055"
