"""Checks on the program's outputs that do not reuse the program's code.

Every check raises `CheckFailed` with a message that says what was
expected and what was seen; the benchmark reports a run as incorrect when
any check fails.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def failures(*checks) -> list[str]:
    """Run each check (a callable); the messages of those that fail."""
    out = []
    for check in checks:
        try:
            check()
        except CheckFailed as e:
            out.append(str(e))
    return out


# ---- reverse cipher ----------------------------------------------------

def reverse_cipher(tokens, table) -> np.ndarray:
    """Target task ids: the table applied to the reversed source ids."""
    return np.asarray(table)[np.asarray(tokens)[::-1]]


def check_exact_match(fraction: float, count: int, floor: float = 0.95):
    require(fraction >= floor,
            f"exact match {fraction:.4f} over {count} sources is below {floor}")


# ---- BLEU --------------------------------------------------------------
# The documented convention: modified n-gram precision for orders 1-4,
# clipped by the largest count in any one reference; geometric mean over
# the orders some hypothesis is long enough to have, no smoothing (a zero
# precision gives 0); brevity penalty exp(1 - r/c) for c <= r, with r the
# sum of the reference lengths closest to each hypothesis (shorter wins a
# tie); scaled to 0-100.

MAX_ORDER = 4


def _ngram_counts(tokens) -> list[Counter]:
    tokens = tuple(tokens)
    return [Counter(tokens[i:i + n] for i in range(len(tokens) - n + 1))
            for n in range(1, MAX_ORDER + 1)]


def _max_counts(references) -> list[dict]:
    best: list[dict] = [{} for _ in range(MAX_ORDER)]
    for ref in references:
        for table, counts in zip(best, _ngram_counts(ref)):
            for gram, c in counts.items():
                if c > table.get(gram, 0):
                    table[gram] = c
    return best


def _closest_length(hyp_len: int, ref_lengths) -> int:
    return min(ref_lengths, key=lambda r: (abs(r - hyp_len), r))


def _bleu_from_stats(matches, totals, hyp_len: int, ref_len: int) -> float:
    orders = [n for n in range(MAX_ORDER) if totals[n] > 0]
    if not orders or any(matches[n] == 0 for n in orders):
        return 0.0
    log_p = math.fsum(math.log(matches[n] / totals[n]) for n in orders) / len(orders)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * bp * math.exp(log_p)


def _corpus_stats(pairs):
    """Summed (matches, totals, hyp_len, ref_len) over (hyp, max_counts,
    ref_lengths) triples."""
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, best, ref_lengths in pairs:
        hyp_len += len(hyp)
        ref_len += _closest_length(len(hyp), ref_lengths)
        for n, counts in enumerate(_ngram_counts(hyp)):
            matches[n] += sum(min(c, best[n].get(g, 0)) for g, c in counts.items())
            totals[n] += sum(counts.values())
    return matches, totals, hyp_len, ref_len


def bleu_shared_refs(hypotheses, references) -> float:
    """Corpus BLEU of every hypothesis against one shared reference set."""
    best = _max_counts(references)
    lengths = sorted({len(r) for r in references})
    return _bleu_from_stats(*_corpus_stats((h, best, lengths) for h in hypotheses))


def self_bleu(samples) -> float:
    """Mean over samples of BLEU against all the other samples."""
    scores = []
    for i, hyp in enumerate(samples):
        rest = samples[:i] + samples[i + 1:]
        scores.append(_bleu_from_stats(*_corpus_stats(
            [(hyp, _max_counts(rest), [len(r) for r in rest])])))
    return math.fsum(scores) / len(scores)


def check_equal_scores(name: str, program: float, oracle: float, rel: float = 1e-9):
    require(math.isclose(program, oracle, rel_tol=rel, abs_tol=1e-9),
            f"{name}: program gives {program!r}, oracle gives {oracle!r}")


def check_quality_diversity(low: tuple[float, float], high: tuple[float, float],
                            taus: tuple[float, float]):
    """(quality BLEU, self-BLEU) at the lower temperature both exceed the
    higher temperature's: sharper sampling is closer to the corpus and
    less diverse."""
    require(low[0] > high[0], f"quality BLEU at tau={taus[0]} ({low[0]:.3f}) is "
            f"not above tau={taus[1]} ({high[0]:.3f})")
    require(low[1] > high[1], f"self-BLEU at tau={taus[0]} ({low[1]:.3f}) is "
            f"not above tau={taus[1]} ({high[1]:.3f})")


# ---- training ----------------------------------------------------------

def check_uniform_cross_entropy(terms, v: int, tol: float = 1e-5):
    """A zero output head gives uniform logits, so each term is ln v."""
    for i, term in enumerate(terms):
        require(abs(term - math.log(v)) <= tol,
                f"unroll term {i + 1} at initialisation is {term:.7f}, "
                f"expected ln {v} = {math.log(v):.7f}")


def check_losses(initial: float, finals, max_ratio: float):
    """Every final loss is finite and below max_ratio x the initial loss."""
    for loss in finals:
        require(math.isfinite(loss), f"non-finite training loss {loss}")
        require(loss <= max_ratio * initial,
                f"loss {loss:.4f} did not fall below {max_ratio} x its "
                f"initial {initial:.4f}")


def central_difference(loss_at, values: np.ndarray, index: int, h: float) -> float:
    """(f(x + h e_i) - f(x - h e_i)) / 2h, restoring values[index] after.

    `values` is the flat float64 view that `loss_at()` reads.
    """
    orig = values[index]
    try:
        values[index] = orig + h
        f_plus = loss_at()
        values[index] = orig - h
        f_minus = loss_at()
    finally:
        values[index] = orig
    return (f_plus - f_minus) / (2 * h)


def check_gradient(name: str, analytic: float, numeric: float,
                   rel: float = 1e-5, floor: float = 1e-6):
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
    require(err <= rel, f"d loss / d {name}: backward gives {analytic!r}, "
            f"central difference gives {numeric!r} (relative error {err:.2e})")


# ---- inpainting --------------------------------------------------------

def check_clamped(tokens, clamp_mask, states):
    """Every state keeps every clamped template token."""
    tokens = np.asarray(tokens)
    clamp = np.asarray(clamp_mask, dtype=bool)
    for t, state in enumerate(states):
        bad = np.flatnonzero(np.asarray(state)[clamp] != tokens[clamp])
        require(bad.size == 0, f"chain state {t} changed clamped positions "
                f"{np.flatnonzero(clamp)[bad].tolist()}")
