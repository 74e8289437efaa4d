"""Spans around the public functions of every `snda` module.

`Tracer.install()` replaces each public function of each module (and
`Tensor.backward`) by a wrapper that records one span per call: the
function's name, start and end on `time.perf_counter`, and the span that
was open when it was called. Names bound by `from .x import f` in other
modules are replaced too, so calls across modules are seen. Spans are
kept in lists in memory; `save()` writes them out once the run is over.

A few functions also get a note per call: the number of rows of a
`denoise_logits` input, and the steps, temperature and template use of a
`sample_chain` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("numerics", "model", "corruption", "training", "sampling",
           "evaluation", "data", "checkpoint", "experiments", "config", "cli")


def _rows(args, kwargs, result):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _chain(args, kwargs, result):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    init = kwargs.get("init", args[2] if len(args) > 2 else None)
    return (len(result.changed), float(cfg.temperature), init is not None)


NOTES = {"model.denoise_logits": _rows, "sampling.sample_chain": _chain}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.notes: dict[int, object] = {}
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        self._name_ids[name] = len(self.names)
        self.names.append(name)
        nid = self._name_ids[name]
        note = NOTES.get(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        notes, stack, clock = self.notes, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"snda.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        tensor = modules["numerics"].Tensor
        self._restore.append((tensor, "backward", tensor.backward))
        tensor.backward = self._wrap("numerics.backward", tensor.backward)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def mark(self) -> int:
        """Index of the next span, to split the record into phases."""
        return len(self.start)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_of=np.array(self.name_of, dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64))

    def window(self, lo: int, hi: int | None = None) -> "Window":
        return Window(self, lo, len(self.start) if hi is None else hi)


class Window:
    """The spans recorded between two marks, as arrays."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        names = np.array(tracer.names + [""], dtype=object)
        name_of = np.array(tracer.name_of[lo:hi], dtype=np.int64)
        parent = np.array(tracer.parent[lo:hi], dtype=np.int64)
        # callers before the window (or none) get the empty name
        parent_of = np.where(parent >= lo, np.array(tracer.name_of + [-1])[parent], -1)
        self.name = names[name_of]
        self.parent_name = names[parent_of]
        self.duration = np.array(tracer.end[lo:hi]) - np.array(tracer.start[lo:hi])
        self._notes = tracer.notes
        self._lo = lo

    def total_s(self, name: str) -> float:
        return float(self.duration[self.name == name].sum())

    def notes(self, name: str) -> list:
        return [self._notes[self._lo + i] for i in np.flatnonzero(self.name == name)]
