"""Bit-exact binary checkpoints.

Layout (format version 3): a 16-byte header of magic `SNDA`, u32-LE format
version and u64-LE metadata length; the UTF-8 JSON metadata (model config,
step, seed, `layout`: the `[name, shape]` list of `ParamSet.layout`, and,
for a model trained on a synthetic task, `task`: its `kind` and
`len_range`); then `ParamSet.flat` as one block of little-endian values in
the model config's dtype.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from .model import DenoiserModel, ModelConfig, param_layout
from .numerics import ParamSet

MAGIC = b"SNDA"
VERSION = 3
HEADER = struct.Struct("<4sIQ")


class CheckpointError(IOError):
    """Corrupt, truncated, or incompatible checkpoint file."""


class Checkpoint(NamedTuple):
    model: DenoiserModel
    step: int
    seed: int
    task: tuple[str, tuple[int, int]] | None    # (kind, len_range) of a synthetic task


def save_checkpoint(model: DenoiserModel, path: str, step: int = 0, seed: int = 0,
                    task: tuple[str, tuple[int, int]] | None = None):
    """Write `model` with its training step and seed and, for a synthetic
    task, the task's (kind, len_range)."""
    meta = {
        "model_config": asdict(model.config),
        "step": int(step),
        "seed": int(seed),
        "layout": model.params.layout,
    }
    if task is not None:
        kind, (lo, hi) = task
        meta["task"] = {"kind": str(kind), "len_range": [int(lo), int(hi)]}
    meta = json.dumps(meta, sort_keys=True).encode("utf-8")
    dtype = np.dtype(model.config.dtype).newbyteorder("<")
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, VERSION, len(meta)))
        f.write(meta)
        f.write(model.params.flat.astype(dtype, copy=False).tobytes())


def load_checkpoint(path: str) -> tuple[DenoiserModel, int, int]:
    """Load a model; returns (model, step, seed). Round trip is bit-exact."""
    return read_checkpoint(path)[:3]


def read_checkpoint(path: str) -> Checkpoint:
    """Load a model with its step, seed and training task (None where the
    file records none). Round trip is bit-exact.

    The parameter block must take exactly the bytes that the metadata's
    config implies, which is checked before it is allocated; only then is
    the stored layout compared with the config's."""
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    if raw[:4] != MAGIC:
        raise CheckpointError("bad magic bytes, not a checkpoint file")
    if len(raw) < HEADER.size:
        raise CheckpointError(f"truncated checkpoint: {len(raw)} bytes, "
                              f"shorter than its {HEADER.size}-byte header")
    _, version, meta_len = HEADER.unpack_from(raw)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if meta_len > len(raw) - HEADER.size:
        raise CheckpointError("truncated checkpoint while reading metadata")
    payload = raw[HEADER.size + meta_len:]
    try:
        meta = json.loads(bytes(raw[HEADER.size: HEADER.size + meta_len]).decode("utf-8"))
        config = ModelConfig(**meta["model_config"])
        stored, step, seed = meta["layout"], int(meta["step"]), int(meta["seed"])
        dtype = np.dtype(config.dtype).newbyteorder("<")
        task = meta.get("task")
        if task is not None:
            lo, hi = task["len_range"]
            if not (isinstance(task["kind"], str) and type(lo) is type(hi) is int):
                raise ValueError(f"task record {task}")
            task = task["kind"], (lo, hi)
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"invalid checkpoint metadata: {e}") from e

    layout = param_layout(config)
    need = dtype.itemsize * sum(math.prod(shape) for _, shape, _ in layout)
    if len(payload) != need:
        raise CheckpointError(f"checkpoint holds {len(payload)} bytes of parameters; "
                              f"its config implies {need}")
    if stored != [[name, list(shape)] for name, shape, _ in layout]:
        raise CheckpointError("checkpoint parameter layout differs from the one "
                              "its config implies")
    flat = np.frombuffer(payload, dtype).astype(config.dtype)
    return Checkpoint(DenoiserModel(config, ParamSet(layout, flat)), step, seed, task)
