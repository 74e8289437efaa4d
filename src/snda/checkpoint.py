"""Bit-exact binary checkpoints.

Layout: magic `SNDA`, u32-LE format version, u64-LE-length-prefixed UTF-8
JSON metadata (model config, step, seed), then per-parameter records in
ParamSet order: u64-LE name length, name, u64-LE rank, u64-LE dims, raw
little-endian values in the model config's dtype.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .model import DenoiserModel, ModelConfig, param_layout
from .numerics import ParamSet

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


def load_checkpoint(path: str) -> tuple[DenoiserModel, int, int]:
    """Load a model; returns (model, step, seed). Round trip is bit-exact.

    The parameter records must take exactly the bytes that the metadata's
    config implies, which is checked before any parameter is allocated."""
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    pos = 0

    def read(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(raw) - pos:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        pos += n
        return raw[pos - n: pos]

    def read_u64(what: str) -> int:
        return struct.unpack("<Q", read(8, what))[0]

    if read(4, "magic") != MAGIC:
        raise CheckpointError("bad magic bytes, not a checkpoint file")
    (version,) = struct.unpack("<I", read(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta_len = read_u64("metadata length")
    try:
        meta = json.loads(bytes(read(meta_len, "metadata")).decode("utf-8"))
        config = ModelConfig(**meta["model_config"])
        dtype = np.dtype(config.dtype).newbyteorder("<")
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"invalid checkpoint metadata: {e}") from e

    layout = param_layout(config)
    size = sum(math.prod(shape) for _, shape, _ in layout)
    need = dtype.itemsize * size + sum(8 + len(name.encode("utf-8")) + 8 + 8 * len(shape)
                                       for name, shape, _ in layout)
    if need != len(raw) - pos:
        raise CheckpointError(f"checkpoint holds {len(raw) - pos} bytes of parameters; "
                              f"its config implies {need}")
    params = ParamSet(layout, np.empty(size, dtype=config.dtype))
    for expect, shape, _ in layout:
        name = bytes(read(read_u64(f"name length of {expect!r}"), "parameter name")).decode("utf-8")
        if name != expect:
            raise CheckpointError(f"parameter order mismatch: got {name!r}, "
                                  f"expected {expect!r}")
        dims = tuple(read_u64(f"dim of {name!r}") for _ in range(read_u64(f"rank of {name!r}")))
        if dims != shape:
            raise CheckpointError(f"shape mismatch for {name!r}: file has "
                                  f"{dims}, config implies {shape}")
        values = read(dtype.itemsize * math.prod(dims), f"values of {name!r}")
        params[name].data[...] = np.frombuffer(values, dtype=dtype).reshape(dims)
    return DenoiserModel(config, params), int(meta["step"]), int(meta["seed"])
