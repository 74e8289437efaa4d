"""Scoring: corpus BLEU, self-BLEU, quality/diversity curves, translation
and exact match.

One BLEU convention throughout: modified n-gram precisions up to order 4,
geometric mean, no smoothing, standard exponential brevity penalty. A
zero precision at any order zeroes the score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    return Counter(zip(*[tokens[i:] for i in range(n)]))


class ClipTable(NamedTuple):
    """The reference side of multi-reference BLEU: per order, each n-gram's
    largest count in any one reference, and the sorted distinct reference
    lengths. corpus_bleu takes one in place of a reference list, so a
    reference set scored many times is counted once."""
    best: list[dict]
    lengths: list[int]

    @classmethod
    def build(cls, refs, max_order: int) -> ClipTable:
        """Duplicate references cannot change the table, so each distinct
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
        return cls(best, sorted({len(r) for r in distinct}))


def _table_of(refs, max_order: int) -> ClipTable:
    if not isinstance(refs, ClipTable):
        return ClipTable.build(refs, max_order)
    if len(refs.best) != max_order:
        raise ValueError(f"clip table has {len(refs.best)} orders, max_order is {max_order}")
    return refs


def _score(matches: np.ndarray, totals: np.ndarray, hyp_len: int, ref_len: int) -> float:
    """BLEU from per-order clipped matches and n-gram totals; orders with no
    n-grams are left out."""
    active = totals > 0
    if not active.any():
        return 0.0
    if (matches[active] == 0).any():
        return 0.0
    log_p = np.log(matches[active] / totals[active]).mean()
    bp = 1.0 if hyp_len > ref_len else float(np.exp(1.0 - ref_len / max(hyp_len, 1)))
    return float(100.0 * bp * np.exp(log_p))


def _closest(lengths, length: int) -> int:
    """The reference length closest to `length`; ties favour the shorter."""
    return min((abs(ref - length), ref) for ref in lengths)[1]


def corpus_bleu(hypotheses: list, reference_lists: list,
                cfg: BleuConfig | None = None) -> float:
    """Corpus BLEU with (possibly multiple) references per hypothesis.

    Each distinct reference-list object is counted once per call, so
    `[refs] * k` builds one clip table for all k hypotheses. A ClipTable
    may stand in for a reference list; it must have cfg.max_order orders."""
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
    tables: dict[int, ClipTable] = {}
    for hyp, refs in zip(hypotheses, reference_lists):
        if id(refs) not in tables:
            tables[id(refs)] = _table_of(refs, cfg.max_order)
        best, lengths = tables[id(refs)]
        hyp = list(hyp)
        hyp_len += len(hyp)
        ref_len += _closest(lengths, len(hyp))
        for n, table in enumerate(best, 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            matches[n - 1] += sum(min(c, table.get(g, 0)) for g, c in counts.items())
            totals[n - 1] += sum(counts.values())
    return _score(matches, totals, hyp_len, ref_len)


def bleu(hypotheses: list, references: list, cfg: BleuConfig | None = None) -> float:
    """Corpus BLEU with one reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    return corpus_bleu(hypotheses, [[r] for r in references], cfg)


def self_bleu(samples: list, cfg: BleuConfig | None = None) -> float:
    """Mean over samples of BLEU against all other samples as references.

    One pass over the samples' n-grams: per n-gram, its top two counts over
    the samples and how many samples hold the top count. A sample's
    leave-one-out clip is the top count, or the second count when the sample
    alone holds the top; its closest length likewise leaves its own length
    out unless another sample shares it. The sums are integer counts, so
    each score equals corpus_bleu([s], [others]) exactly."""
    cfg = cfg or BleuConfig()
    if len(samples) < 2:
        raise ValueError("self_bleu needs at least 2 samples")
    samples = [tuple(s) for s in samples]
    counts = [[_ngrams(s, n) for n in range(1, cfg.max_order + 1)] for s in samples]
    tops: list[dict] = [{} for _ in range(cfg.max_order)]   # g -> [top, holders, second]
    for per_order in counts:
        for top, grams in zip(tops, per_order):
            for g, c in grams.items():
                t = top.get(g)
                if t is None:
                    top[g] = [c, 1, 0]
                elif c > t[0]:
                    t[:] = [c, 1, t[0]]
                elif c == t[0]:
                    t[1] += 1
                elif c > t[2]:
                    t[2] = c
    length_counts = Counter(len(s) for s in samples)
    lengths = sorted(length_counts)
    scores = []
    for s, per_order in zip(samples, counts):
        matches = np.zeros(cfg.max_order)
        totals = np.zeros(cfg.max_order)
        for n, (top, grams) in enumerate(zip(tops, per_order)):
            if not grams:
                continue
            clipped = 0
            for g, c in grams.items():
                best, holders, second = top[g]
                clipped += min(c, second if c == best and holders == 1 else best)
            matches[n] = clipped
            totals[n] = sum(grams.values())
        if length_counts[len(s)] > 1:
            ref_len = len(s)
        else:
            k = lengths.index(len(s))
            ref_len = _closest(lengths[max(k - 1, 0): k] + lengths[k + 1: k + 2], len(s))
        scores.append(_score(matches, totals, len(s), ref_len))
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


def curve_temperatures(temperatures) -> list[float]:
    """The temperatures of a quality-diversity curve as floats, if they are
    a nonempty ascending list of positive numbers; otherwise a ValueError."""
    temps = [float(tau) for tau in temperatures]
    if not (temps and all(tau > 0 for tau in temps) and sorted(temps) == temps):
        raise ValueError(f"temperatures must be nonempty, positive and ascending, got {temps}")
    return temps


def quality_diversity_curve(model, temperatures: list[float],
                            samples_per_temp: int, reference_corpus: list,
                            sampler_cfg: SamplerConfig | None = None,
                            bleu_cfg: BleuConfig | None = None,
                            seed: int = 0) -> list[QDPoint]:
    """Quality BLEU vs reference corpus and self-BLEU, per temperature.

    Two disjoint sample sets per temperature, drawn as one batch of
    2 * samples_per_temp chains seeded `seed + 7919 * k + i` for the k-th
    temperature: the first half (empty samples dropped) is scored against
    the references, the second half against itself by self-BLEU. The
    references' clip table is built once for all temperatures.
    """
    temperatures = curve_temperatures(temperatures)
    base = sampler_cfg or SamplerConfig(T=16, temperature=1.0,
                                        update_fraction=0.3, early_stop=True)
    bleu_cfg = bleu_cfg or BleuConfig()
    refs = ClipTable.build(reference_corpus, bleu_cfg.max_order)
    points = []
    for k, tau in enumerate(temperatures):
        cfg = replace(base, temperature=tau)
        offset = seed + 7919 * k
        drawn = draw_samples(model, cfg, 2 * samples_per_temp, offset)
        quality_set = [h for h in drawn[:samples_per_temp] if h]
        diversity_set = [h for h in drawn[samples_per_temp:] if h]
        q = corpus_bleu(quality_set, [refs] * len(quality_set), bleu_cfg) if quality_set else 0.0
        d = self_bleu(diversity_set, bleu_cfg) if len(diversity_set) >= 2 else 0.0
        points.append(QDPoint(temperature=tau, quality_bleu=q, self_bleu=d))
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
