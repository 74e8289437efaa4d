"""Scoring: corpus BLEU, self-BLEU, quality/diversity curves, translation
and exact match.

One BLEU convention throughout: modified n-gram precisions up to order 4,
geometric mean, no smoothing, standard exponential brevity penalty. A
zero precision at any order zeroes the score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .data import PAD
from .model import build_conditioning
from .numerics import no_grad
from .sampling import SamplerConfig, rerank, rerank_seeds, sample_chains

# Chain positions per batched decode in draw_samples and translate: a batch
# holds CHAIN_TOKENS // N chains, so a [rows, N, d] float32 activation at
# d = 64 stays a quarter of a MB whatever the model's N. With the heap kept
# (snda/__init__.py) the N=16 cipher's 64-chain batches ran perfbench's
# translate_cipher 9% faster than 32-chain ones (10 of 10 pairs, one core);
# without it they faulted 35 pages a source back in. The N=32 character LM
# keeps 32: 64 chains drew in 70.9 ms as two batches and 72.5 ms as one at
# SamplerConfig's defaults, 84.3 against 92.9 ms at T=16, update fraction 0.3.
CHAIN_TOKENS = 1024


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
        """Counted in numpy, one pass per order. Duplicate references cannot
        change the table, so each distinct reference is counted once, and
        its tokens are interned to dense ids below V. An order-n gram's code
        is its (n-1)-prefix's rank among the distinct (n-1)-grams times V
        plus its last id, so codes stay below tokens x V at every order, and
        sorting the codes ranks the n-grams. One np.unique over
        rank x references + reference counts each gram in each reference;
        a gram's clip is the largest of its counts."""
        distinct = list(dict.fromkeys(map(tuple, refs)))
        if not distinct:
            raise ValueError("empty reference list")
        flat = list(chain.from_iterable(distinct))
        intern = {t: i for i, t in enumerate(dict.fromkeys(flat))}
        ids = np.fromiter(map(intern.__getitem__, flat), np.int64, len(flat))
        sizes = np.array([len(r) for r in distinct])
        ref = np.repeat(np.arange(len(distinct)), sizes)
        # tokens from each position to the end of its reference
        left = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(flat))
        pos, rank, grams = np.arange(len(flat)), ids, [(t,) for t in intern]
        best: list[dict] = []
        for n in range(1, max_order + 1):
            if n > 1:
                keep = left[pos] >= n
                pos = pos[keep]
                rank, first = _ranks(rank[keep] * len(intern) + ids[pos + n - 1])
                grams = [tuple(flat[p: p + n]) for p in pos[first].tolist()]
            pairs, counts = np.unique(rank * len(distinct) + ref[pos], return_counts=True)
            starts = np.flatnonzero(np.diff(pairs // len(distinct), prepend=-1))
            best.append(dict(zip(grams, np.maximum.reduceat(counts, starts).tolist())))
        return cls(best, sorted({len(r) for r in distinct}))


def _ranks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code's rank among the distinct codes, and one position of each
    distinct code, in rank order."""
    order = np.argsort(codes)
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(len(codes), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


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
    i seeded `seed + i`, decoded in batches of CHAIN_TOKENS // N chains (at
    least one) for the model's N."""
    rows = max(1, CHAIN_TOKENS // model.config.N)
    out = []
    for lo in range(0, count, rows):
        seeds = range(seed + lo, seed + min(count, lo + rows))
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
    refs = ClipTable.build(reference_corpus, BleuConfig().max_order)
    points = []
    for k, tau in enumerate(temperatures):
        cfg = replace(base, temperature=tau)
        offset = seed + 7919 * k
        drawn = draw_samples(model, cfg, 2 * samples_per_temp, offset)
        quality_set = [h for h in drawn[:samples_per_temp] if h]
        diversity_set = [h for h in drawn[samples_per_temp:] if h]
        q = corpus_bleu(quality_set, [refs] * len(quality_set)) if quality_set else 0.0
        d = self_bleu(diversity_set) if len(diversity_set) >= 2 else 0.0
        points.append(QDPoint(temperature=tau, quality_bleu=q, self_bleu=d))
    return points


@no_grad()
def translate(model, sources, sampler_cfg: SamplerConfig,
              use_length_pred: bool = True) -> list[np.ndarray]:
    """Best reranked chain state for each source (a TokenSeq); source i
    decodes with sampler seed `sampler_cfg.seed + 65537 * i`.

    Sources are encoded and decoded one group of CHAIN_TOKENS // N //
    rerank_width at a time for the model's N, the group's reranked chains as
    one batch of at most CHAIN_TOKENS // N chains; a rerank_width past that
    decodes one source, and its rerank_width chains, at a time. With
    use_length_pred off the conditioning carries a constant length embedding
    instead of the classifier's argmax (the ablation's "no length
    prediction" arm).
    """
    width = sampler_cfg.rerank_width
    group = max(1, CHAIN_TOKENS // model.config.N // width)
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
