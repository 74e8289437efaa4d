"""Vocabulary, encoding, batching, and the synthetic tasks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snda.data import (PAD, UNK, TokenSeq, Vocab, decode, encode, load_corpus,
                       make_batch, pairs_to_batch, synth_task_gen,
                       toy_char_corpus)
from snda.experiments import heldout_pairs


def test_vocab_reserved_ids():
    v = Vocab(["a", "b"], kind="char")
    assert v.id_of("<pad>") == PAD and v.id_of("<unk>") == UNK
    assert v.id_of("a") == 2
    assert v.id_of("z") == UNK
    assert v.size == 4


def test_vocab_save_load_round_trip(tmp_path):
    v = Vocab.from_corpus(["the cat", "a dog"], kind="word")
    path = tmp_path / "vocab.txt"
    v.save(str(path))
    w = Vocab.load(str(path))
    assert w.size == v.size
    for tok in ("the", "cat", "a", "dog"):
        assert w.id_of(tok) == v.id_of(tok)


def test_vocab_load_rejects_missing_reserved(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\nb\n")
    with pytest.raises(ValueError):
        Vocab.load(str(path))


def test_encode_decode_round_trip():
    v = Vocab.from_corpus(["the cat sat"], kind="char")
    seq = encode("the cat", v, 16)
    assert seq.content_len == 7
    assert (seq.ids[7:] == PAD).all()
    assert decode(seq, v) == "the cat"


def test_encode_crops_to_n():
    v = Vocab.from_corpus(["abcdef"], kind="char")
    seq = encode("abcdef", v, 3)
    assert seq.content_len == 3
    assert decode(seq, v) == "abc"


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abc ", min_size=0, max_size=30),
       st.integers(1, 20))
def test_encode_shape_invariants(text, N):
    v = Vocab.from_corpus(["abc "], kind="char")
    seq = encode(text, v, N)
    assert len(seq.ids) == N
    assert 0 <= seq.content_len <= N
    assert (seq.ids[seq.content_len:] == PAD).all()


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("ab\n\ncd\n")
    v = Vocab.from_corpus(["abcd"], kind="char")
    docs = load_corpus(str(path), v, 4)
    assert len(docs) == 2


def test_make_batch_deterministic_and_cropped():
    v = Vocab.from_corpus(["abcdefgh"], kind="char")
    corpus = [encode("abcdefgh", v, 8), encode("ab", v, 8)]
    b1 = make_batch(corpus, 4, 4, np.random.default_rng(0))
    b2 = make_batch(corpus, 4, 4, np.random.default_rng(0))
    assert b1.shape == (4, 4)
    assert np.array_equal(b1, b2)


def test_make_batch_rejects_empty():
    with pytest.raises(ValueError):
        make_batch([], 2, 4, np.random.default_rng(0))


def test_synth_copy_pairs():
    pairs = synth_task_gen(0, 1, 20, "copy", (2, 5), v_task=6, N=8)
    for src, tgt in pairs:
        assert src == tgt
        assert 2 <= src.content_len <= 5
        assert src.ids[: src.content_len].min() >= 2
        assert (src.ids[src.content_len:] == PAD).all()


def test_synth_reverse_cipher_is_a_bijection():
    pairs = synth_task_gen(5, 11, 30, "reverse_cipher", (3, 6), v_task=6, N=8)
    # the permutation seed alone fixes the cipher
    perm = np.random.default_rng(5).permutation(6)
    for src, tgt in pairs:
        n = src.content_len
        expect = perm[src.ids[:n][::-1] - 2] + 2
        assert np.array_equal(tgt.ids[:n], expect)


def test_synth_task_gen_deterministic():
    a = synth_task_gen(9, 3, 10, "reverse_cipher", (2, 4), 5, 6)
    b = synth_task_gen(9, 3, 10, "reverse_cipher", (2, 4), 5, 6)
    assert a == b


def test_synth_task_gen_validates():
    with pytest.raises(ValueError):
        synth_task_gen(0, 0, 1, "copy", (0, 4), 5, 6)
    with pytest.raises(ValueError):
        synth_task_gen(0, 0, 1, "rot13", (1, 4), 5, 6)


@pytest.mark.parametrize("kind,digest", [("reverse_cipher", "ad2814e33ff15fa1"),
                                         ("copy", "aaa89d1b942710c8")])
def test_heldout_stream_is_pinned(kind, digest):
    # the held-out pairs every task run of seed 0 is scored on
    h = hashlib.sha256()
    for src, tgt in heldout_pairs(kind, 0, 100, (4, 12), 14, 16):
        h.update(np.concatenate([src.ids, tgt.ids, [src.content_len]]).astype("<i8").tobytes())
    assert h.hexdigest()[:16] == digest


def test_pairs_to_batch_shapes():
    pairs = synth_task_gen(0, 1, 7, "copy", (2, 5), v_task=6, N=8)
    batch = pairs_to_batch(pairs)
    assert batch.sources.shape == (7, 8)
    assert batch.targets.shape == (7, 8)
    assert np.array_equal(batch.source_lengths, batch.target_lengths)


def test_toy_char_corpus_shape():
    lines = toy_char_corpus(0, 50)
    assert len(lines) == 50
    assert all(ln.endswith(".") for ln in lines)
    assert toy_char_corpus(0, 50) == lines


def test_tokenseq_validates_content_len():
    with pytest.raises(ValueError):
        TokenSeq(np.zeros(3, dtype=np.int64), 4)
