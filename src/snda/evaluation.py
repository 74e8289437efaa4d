"""Scoring: corpus BLEU, self-BLEU, quality/diversity curves, translation
and exact match.

One BLEU convention throughout: modified n-gram precisions up to order 4,
geometric mean, no smoothing, standard exponential brevity penalty. A
zero precision at any order zeroes the score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .data import PAD
from .model import build_conditioning
from .numerics import no_grad
from .sampling import SamplerConfig, rerank, rerank_seeds, sample_chains

# Chain rows per batched decode in draw_samples and translate. It bounds the
# memory of a large input; 32 rows decode as fast per row as 64 and keep the
# activations a quarter of a MB per [rows, N, d] array. On one core, 64 rows
# took 1.01 times as long per row as 32 for the trained cipher's chains and
# 0.98 times for the character LM's (medians of 12 alternating repeats).
CHAIN_ROWS = 32


@dataclass
class BleuConfig:
    max_order: int = 4

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")


@dataclass
class QDPoint:
    temperature: float
    quality_bleu: float
    self_bleu: float


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def _clip_table(refs, max_order: int) -> tuple[list[dict], list[int]]:
    """The reference side of multi-reference BLEU: per order, each n-gram's
    largest count in any one reference, and the sorted distinct reference
    lengths. Duplicate references cannot change either, so each distinct
    reference is counted once."""
    distinct = {tuple(r) for r in refs}
    if not distinct:
        raise ValueError("empty reference list")
    best: list[dict] = [{} for _ in range(max_order)]
    for ref in distinct:
        for n, table in enumerate(best, 1):
            for g, c in _ngrams(ref, n).items():
                if c > table.get(g, 0):
                    table[g] = c
    return best, sorted({len(r) for r in distinct})


def corpus_bleu(hypotheses: list, reference_lists: list,
                cfg: BleuConfig | None = None) -> float:
    """Corpus BLEU with (possibly multiple) references per hypothesis.

    Each distinct reference-list object is counted once per call, so
    `[refs] * k` builds one clip table for all k hypotheses."""
    cfg = cfg or BleuConfig()
    # the clip tables are keyed by id(refs); holding every reference list
    # for the whole call keeps those ids from being reused by another list
    reference_lists = list(reference_lists)
    if len(hypotheses) != len(reference_lists):
        raise ValueError("hypothesis and reference counts differ")
    if not hypotheses:
        raise ValueError("empty corpus")
    matches = np.zeros(cfg.max_order)
    totals = np.zeros(cfg.max_order)
    hyp_len = 0
    ref_len = 0
    tables: dict[int, tuple] = {}
    for hyp, refs in zip(hypotheses, reference_lists):
        if id(refs) not in tables:
            tables[id(refs)] = _clip_table(refs, cfg.max_order)
        best, lengths = tables[id(refs)]
        hyp = list(hyp)
        hyp_len += len(hyp)
        # closest reference length; ties favour the shorter
        ref_len += min((abs(length - len(hyp)), length) for length in lengths)[1]
        for n, table in enumerate(best, 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            matches[n - 1] += sum(min(c, table.get(g, 0)) for g, c in counts.items())
            totals[n - 1] += sum(counts.values())
    active = totals > 0
    if not active.any():
        return 0.0
    if (matches[active] == 0).any():
        return 0.0
    log_p = np.log(matches[active] / totals[active]).mean()
    bp = 1.0 if hyp_len > ref_len else float(np.exp(1.0 - ref_len / max(hyp_len, 1)))
    return float(100.0 * bp * np.exp(log_p))


def bleu(hypotheses: list, references: list, cfg: BleuConfig | None = None) -> float:
    """Corpus BLEU with one reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    return corpus_bleu(hypotheses, [[r] for r in references], cfg)


def self_bleu(samples: list, cfg: BleuConfig | None = None) -> float:
    """Mean over samples of BLEU against all other samples as references."""
    if len(samples) < 2:
        raise ValueError("self_bleu needs at least 2 samples")
    scores = []
    for i, s in enumerate(samples):
        rest = samples[:i] + samples[i + 1:]
        scores.append(corpus_bleu([s], [rest], cfg))
    return float(np.mean(scores))


def strip_pad(ids: np.ndarray) -> list[int]:
    """Token list up to the first PAD (PAD acts as end-of-text)."""
    out = []
    for i in np.asarray(ids).tolist():
        if i == PAD:
            break
        out.append(int(i))
    return out


def draw_samples(model, sampler_cfg: SamplerConfig, count: int,
                 seed: int) -> list[list[int]]:
    """Final chain states of `count` independent unconditional chains, chain
    i seeded `seed + i`, decoded in batches."""
    out = []
    for lo in range(0, count, CHAIN_ROWS):
        seeds = range(seed + lo, seed + min(count, lo + CHAIN_ROWS))
        out += [strip_pad(trace.states[-1])
                for trace in sample_chains(model, sampler_cfg, seeds)]
    return out


def quality_diversity_curve(model, temperatures: list[float],
                            samples_per_temp: int, reference_corpus: list,
                            sampler_cfg: SamplerConfig | None = None,
                            bleu_cfg: BleuConfig | None = None,
                            seed: int = 0) -> list[QDPoint]:
    """Quality BLEU vs reference corpus and self-BLEU, per temperature.

    Two disjoint sample sets per temperature: one scored against the
    references, the other against itself.
    """
    if not temperatures:
        raise ValueError("temperatures must be nonempty")
    if sorted(temperatures) != list(temperatures):
        raise ValueError("temperatures must be sorted ascending")
    base = sampler_cfg or SamplerConfig(T=16, temperature=1.0,
                                        update_fraction=0.3, early_stop=True)
    refs = [list(r) for r in reference_corpus]
    points = []
    for k, tau in enumerate(temperatures):
        cfg = replace(base, temperature=float(tau))
        offset = seed + 7919 * k
        quality_set = [h for h in draw_samples(model, cfg, samples_per_temp, offset) if h]
        diversity_set = [h for h in draw_samples(model, cfg, samples_per_temp,
                                                 offset + samples_per_temp) if h]
        q = corpus_bleu(quality_set, [refs] * len(quality_set), bleu_cfg) if quality_set else 0.0
        d = self_bleu(diversity_set, bleu_cfg) if len(diversity_set) >= 2 else 0.0
        points.append(QDPoint(temperature=float(tau), quality_bleu=q, self_bleu=d))
    return points


@no_grad()
def translate(model, sources, sampler_cfg: SamplerConfig,
              use_length_pred: bool = True) -> list[np.ndarray]:
    """Best reranked chain state for each source (a TokenSeq); source i
    decodes with sampler seed `sampler_cfg.seed + 65537 * i`.

    Sources are encoded together, and the reranked chains of every source
    run as one batch (a group of sources at a time, at most CHAIN_ROWS
    chains). With use_length_pred off the conditioning carries a constant
    length embedding instead of the classifier's argmax (the ablation's
    "no length prediction" arm).
    """
    width = sampler_cfg.rerank_width
    group = max(1, CHAIN_ROWS // width)
    bests = []
    for lo in range(0, len(sources), group):
        part = sources[lo: lo + group]
        lens = np.array([src.content_len for src in part])
        cond, _ = build_conditioning(model, np.stack([src.ids for src in part]), lens,
                                     target_length=None if use_length_pred else np.ones_like(lens))
        seeds = [s for i in range(lo, lo + len(part))
                 for s in rerank_seeds(sampler_cfg.seed + 65537 * i, width)]
        traces = sample_chains(model, sampler_cfg, seeds,
                               cond=cond.take(np.repeat(np.arange(len(part)), width)))
        bests += [rerank(traces[k: k + width])[0] for k in range(0, len(traces), width)]
    return bests


def exact_match(model, pairs, sampler_cfg: SamplerConfig,
                use_length_pred: bool = True) -> float:
    """Fraction of (source, target) pairs whose translation equals the target."""
    if not pairs:
        return 0.0
    bests = translate(model, [src for src, _ in pairs], sampler_cfg, use_length_pred)
    hits = sum(np.array_equal(best, tgt.ids) for best, (_, tgt) in zip(bests, pairs))
    return hits / len(pairs)
