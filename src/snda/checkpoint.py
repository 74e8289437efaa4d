"""Bit-exact binary checkpoints.

Layout: magic `SNDA`, u32-LE format version, u64-LE-length-prefixed UTF-8
JSON metadata (model config, step, seed), then per-parameter records in
ParamSet order: u64-LE name length, name, u64-LE rank, u64-LE dims, raw
little-endian values in the model config's dtype.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .model import DenoiserModel, ModelConfig, init_model

MAGIC = b"SNDA"
VERSION = 2


class CheckpointError(IOError):
    """Corrupt, truncated, or incompatible checkpoint file."""


def save_checkpoint(model: DenoiserModel, path: str, step: int = 0, seed: int = 0):
    meta = json.dumps({
        "model_config": asdict(model.config),
        "step": int(step),
        "seed": int(seed),
    }, sort_keys=True).encode("utf-8")
    dtype = np.dtype(model.config.dtype).newbyteorder("<")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(meta)))
        f.write(meta)
        for name, t in model.params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<Q", len(nb)))
            f.write(nb)
            f.write(struct.pack("<Q", t.data.ndim))
            for d in t.data.shape:
                f.write(struct.pack("<Q", d))
            f.write(np.ascontiguousarray(t.data, dtype=dtype).tobytes())


def _read(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path: str) -> tuple[DenoiserModel, int, int]:
    """Load a model; returns (model, step, seed). Round trip is bit-exact."""
    with open(path, "rb") as f:
        if _read(f, 4, "magic") != MAGIC:
            raise CheckpointError("bad magic bytes, not a checkpoint file")
        (version,) = struct.unpack("<I", _read(f, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", _read(f, 8, "metadata length"))
        try:
            meta = json.loads(_read(f, meta_len, "metadata").decode("utf-8"))
            config = ModelConfig(**meta["model_config"])
            dtype = np.dtype(config.dtype).newbyteorder("<")
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"invalid checkpoint metadata: {e}") from e

        model = init_model(config, np.random.default_rng(0))
        values = {}
        for expect in model.params.names():
            (name_len,) = struct.unpack("<Q", _read(f, 8, f"name length of {expect!r}"))
            name = _read(f, name_len, "parameter name").decode("utf-8")
            if name != expect:
                raise CheckpointError(f"parameter order mismatch: got {name!r}, "
                                      f"expected {expect!r}")
            (rank,) = struct.unpack("<Q", _read(f, 8, f"rank of {name!r}"))
            dims = tuple(struct.unpack("<Q", _read(f, 8, f"dim of {name!r}"))[0]
                         for _ in range(rank))
            if dims != model.params[name].data.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: file has "
                                      f"{dims}, config implies "
                                      f"{model.params[name].data.shape}")
            count = int(np.prod(dims)) if dims else 1
            raw = _read(f, dtype.itemsize * count, f"values of {name!r}")
            values[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
        if f.read(1):
            raise CheckpointError("trailing bytes after last parameter record")
    model.params.load_values(values)
    return model, int(meta["step"]), int(meta["seed"])
