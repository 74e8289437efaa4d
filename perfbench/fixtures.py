"""Fixture weights for the benchmark, in a format the benchmark owns.

Each fixture is one `.npz` file of named arrays, read with pickling off:

- `config`: the `ModelConfig` fields as a JSON string;
- `param:<name>`: one array per model parameter, in `ParamSet` order;
- cipher only, `table`: the reverse-cipher substitution over task ids;
- LM only, `vocab` (id -> token, PAD and UNK first) and `corpus` (the
  training lines, which the benchmark uses as BLEU references).

Models are rebuilt with `init_model` + `ParamSet.load_values`, so the
fixtures do not depend on the program's checkpoint format.

Remake both fixtures (about 2.5 minutes on one core):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 -m perfbench.fixtures
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
CIPHER_PATH = FIXTURE_DIR / "cipher.npz"
LM_PATH = FIXTURE_DIR / "lm.npz"

# Task shape shared by the cipher fixture and the benchmark's own sources:
# the defaults of `experiments.train_synthetic`.
V_TASK = 14
LEN_RANGE = (4, 12)
N_CIPHER = 16
N_LM = 32


def derive_cipher_table(pairs, v_task: int = V_TASK) -> np.ndarray:
    """Substitution table read off reverse-cipher (source, target) pairs.

    Each target position j holds table[source[n-1-j]] (task ids shifted
    by the two reserved ids). Raises unless every task id is seen and the
    table is a consistent bijection.
    """
    table = np.full(v_task, -1, dtype=np.int64)
    for src, tgt in pairs:
        n = int(src.content_len)
        s = np.asarray(src.ids[:n]) - 2
        t = np.asarray(tgt.ids[:n]) - 2
        for a, b in zip(s[::-1], t):
            if table[a] not in (-1, b):
                raise ValueError(f"task id {a} maps to both {table[a]} and {b}")
            table[a] = b
    if (table < 0).any():
        raise ValueError(f"task ids never seen: {np.flatnonzero(table < 0).tolist()}")
    check_bijection(table)
    return table


def check_bijection(table: np.ndarray):
    if sorted(np.asarray(table).tolist()) != list(range(len(table))):
        raise ValueError(f"cipher table is not a bijection: {np.asarray(table).tolist()}")


def _save(path: Path, model, **extra):
    arrays = {"config": np.array(json.dumps(asdict(model.config), sort_keys=True))}
    arrays.update({f"param:{k}": t.data for k, t in model.params.items()})
    arrays.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)


def _load_model(arrays):
    from snda.model import ModelConfig, init_model

    config = ModelConfig(**json.loads(str(arrays["config"])))
    model = init_model(config, 0)
    model.params.load_values({k[len("param:"):]: arrays[k]
                              for k in arrays.files if k.startswith("param:")})
    return model


def load_cipher(path: Path = CIPHER_PATH):
    """(model, table) for the trained reverse-cipher encoder-decoder."""
    with np.load(path, allow_pickle=False) as arrays:
        table = arrays["table"].astype(np.int64)
        check_bijection(table)
        return _load_model(arrays), table


def load_lm(path: Path = LM_PATH):
    """(model, vocab tokens, corpus lines) for the toy character LM."""
    with np.load(path, allow_pickle=False) as arrays:
        return (_load_model(arrays), arrays["vocab"].tolist(),
                arrays["corpus"].tolist())


def main():
    from snda import experiments

    # criterion 05's s=2 recipe
    model, heldout = experiments.train_synthetic("reverse_cipher", seed=0,
                                                 total_steps=1200)
    table = derive_cipher_table(heldout)
    _save(CIPHER_PATH, model, table=table)
    print(f"wrote {CIPHER_PATH} (cipher table {table.tolist()})")

    # criterion 09's recipe
    model, vocab, lines = experiments.train_toy_lm(seed=0, total_steps=800)
    tokens = [vocab.token_of(i) for i in range(vocab.size)]
    _save(LM_PATH, model, vocab=np.array(tokens), corpus=np.array(lines))
    print(f"wrote {LM_PATH} ({vocab.size} tokens, {len(lines)} corpus lines)")


if __name__ == "__main__":
    main()
