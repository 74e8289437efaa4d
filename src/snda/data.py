"""Tokenization, corpora, batching, and synthetic sequence-to-sequence tasks.

Character-level vocabularies serve unconditional corpora and their
quality/diversity curves; a word vocabulary (whitespace tokens) serves
word-level inpainting templates. Synthetic tasks (copy, reverse_cipher)
stand in for real translation data: both are deterministic functions of
the source, so chain sampling can be scored by exact match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD = 0
UNK = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class Vocab:
    """Token-string <-> id bijection with reserved PAD=0, UNK=1.

    kind is "char" (one symbol per token) or "word" (whitespace tokens).
    """

    def __init__(self, tokens: list[str], kind: str = "char"):
        if kind not in ("char", "word"):
            raise ValueError(f"unknown vocab kind: {kind}")
        self.kind = kind
        self._id_to_tok = [PAD_TOKEN, UNK_TOKEN]
        for t in tokens:
            if t in (PAD_TOKEN, UNK_TOKEN):
                continue
            self._id_to_tok.append(t)
        if len(set(self._id_to_tok)) != len(self._id_to_tok):
            raise ValueError("duplicate tokens in vocab")
        self._tok_to_id = {t: i for i, t in enumerate(self._id_to_tok)}

    @property
    def size(self) -> int:
        return len(self._id_to_tok)

    def id_of(self, token: str) -> int:
        return self._tok_to_id.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self._id_to_tok[idx]

    @staticmethod
    def split(text: str, kind: str) -> list[str]:
        """The tokens of text: its characters for kind "char", its
        whitespace-separated words for kind "word"."""
        return list(text) if kind == "char" else text.split()

    @classmethod
    def from_corpus(cls, lines: list[str], kind: str = "char") -> "Vocab":
        seen: dict[str, None] = {}
        for line in lines:
            for t in cls.split(line, kind):
                seen.setdefault(t, None)
        return cls(sorted(seen), kind=kind)

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as f:
            lines = [ln.rstrip("\n") for ln in f]
        if len(lines) < 2 or lines[0] != PAD_TOKEN or lines[1] != UNK_TOKEN:
            raise ValueError(f"vocab file must start with {PAD_TOKEN!r} and {UNK_TOKEN!r} lines")
        kind = "char" if all(len(t) == 1 for t in lines[2:]) and len(lines) > 2 else "word"
        return cls(lines[2:], kind=kind)

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for t in self._id_to_tok:
                f.write(t + "\n")


@dataclass
class TokenSeq:
    """Fixed-length id array with a non-PAD content prefix."""

    ids: np.ndarray
    content_len: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.content_len > len(self.ids):
            raise ValueError("content_len exceeds sequence length")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TokenSeq)
                and self.content_len == other.content_len
                and np.array_equal(self.ids, other.ids))


@dataclass
class PairBatch:
    sources: np.ndarray        # [B, N_source] int ids
    targets: np.ndarray        # [B, N] int ids
    source_lengths: np.ndarray  # [B]
    target_lengths: np.ndarray  # [B]


def encode(text: str, vocab: Vocab, N: int) -> TokenSeq:
    """Map text to ids, crop to N, PAD-fill the remainder."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if vocab.size <= 2:
        raise ValueError("vocab holds no content tokens")
    ids = [vocab.id_of(t) for t in Vocab.split(text, vocab.kind)][:N]
    out = np.full(N, PAD, dtype=np.int64)
    out[: len(ids)] = ids
    return TokenSeq(out, content_len=len(ids))


def decode(seq: TokenSeq, vocab: Vocab) -> str:
    toks = [vocab.token_of(int(i)) for i in seq.ids[: seq.content_len]]
    return ("" if vocab.kind == "char" else " ").join(toks)


def load_corpus(path: str, vocab: Vocab, N: int) -> list[TokenSeq]:
    """One document per line, UTF-8 plain text."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                out.append(encode(line, vocab, N))
    return out


def make_batch(corpus: list[TokenSeq], batch_size: int, N: int,
               rng: np.random.Generator) -> np.ndarray:
    """Sample with replacement; random contiguous N-crop of longer docs."""
    if not corpus:
        raise ValueError("corpus is empty")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rows = np.full((batch_size, N), PAD, dtype=np.int64)
    picks = rng.integers(0, len(corpus), size=batch_size)
    for b, k in enumerate(picks):
        seq = corpus[k]
        if seq.content_len > N:
            off = int(rng.integers(0, seq.content_len - N + 1))
            rows[b] = seq.ids[off: off + N]
        else:
            rows[b, : seq.content_len] = seq.ids[: seq.content_len]
    return rows


def synth_task_gen(perm_seed: int, draw_seed: int, count: int, kind: str,
                   len_range: tuple[int, int], v_task: int,
                   N: int) -> list[tuple[TokenSeq, TokenSeq]]:
    """Deterministic (source, target) pairs over task ids [2, 2 + v_task).

    copy: target = source. reverse_cipher: target = fixed substitution
    cipher applied to the reversed source. The cipher permutation comes
    from perm_seed and the examples from draw_seed, so one run keeps its
    cipher while every training batch and the held-out set draw afresh.
    """
    lo, hi = len_range
    if not (1 <= lo <= hi <= N):
        raise ValueError(f"invalid len_range {len_range} for N={N}")
    if v_task < 1:
        raise ValueError("v_task must be >= 1")
    if kind not in ("copy", "reverse_cipher"):
        raise ValueError(f"unknown task kind: {kind}")
    perm = np.random.default_rng(perm_seed).permutation(v_task)
    rng = np.random.default_rng(draw_seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        toks = rng.integers(0, v_task, size=n)
        src = np.full(N, PAD, dtype=np.int64)
        src[:n] = toks + 2
        if kind == "copy":
            out = toks
        else:
            out = perm[toks[::-1]]
        tgt = np.full(N, PAD, dtype=np.int64)
        tgt[:n] = out + 2
        pairs.append((TokenSeq(src, n), TokenSeq(tgt, n)))
    return pairs


def pairs_to_batch(pairs: list[tuple[TokenSeq, TokenSeq]]) -> PairBatch:
    return PairBatch(
        sources=np.stack([p[0].ids for p in pairs]),
        targets=np.stack([p[1].ids for p in pairs]),
        source_lengths=np.array([p[0].content_len for p in pairs], dtype=np.int64),
        target_lengths=np.array([p[1].content_len for p in pairs], dtype=np.int64),
    )


# A tiny template grammar for the character-level toy language model: the
# corpus it emits is learnable in minutes yet diverse enough for
# quality/diversity curves.
_SUBJECTS = ["the cat", "a dog", "the bird", "my fox", "one owl", "the rat"]
_VERBS = ["sat on", "ran to", "saw", "ate near", "hid under", "met"]
_OBJECTS = ["the mat", "a log", "the box", "my hat", "one cup", "the rug"]


def toy_char_corpus(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(count):
        s = _SUBJECTS[rng.integers(len(_SUBJECTS))]
        v = _VERBS[rng.integers(len(_VERBS))]
        o = _OBJECTS[rng.integers(len(_OBJECTS))]
        lines.append(f"{s} {v} {o}.")
    return lines
