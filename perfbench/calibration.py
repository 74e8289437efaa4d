"""The machine's speed, from a fixed reference computation.

The benchmark shares its host with other work, and the speed of the
host's cores drifts by up to 2x over minutes. A throughput or set-up
time measured in seconds therefore moves with the neighbours. To make
runs comparable, the benchmark times this kernel between rounds (about
once per 0.4 s of work) and reports times in reference seconds: seconds
multiplied by REFERENCE_S / (median kernel time of the run). The kernel
uses nothing from `snda`, so no change to the program moves it. The run
prints the median time of each of the kernel's three parts as well.

The kernel mixes the three kinds of work the program does: numpy calls
on small arrays (the cost of a batch-1 forward is mostly call overhead),
a matrix product large enough to be bound by the BLAS, and counting
n-grams in Python dicts (BLEU).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import numpy as np

# Median kernel time on a 2-core x86-64 desk VM (OpenBLAS, one thread) in
# an idle period; it only sets the scale of the reported figures.
REFERENCE_S = 0.013


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = [rng.standard_normal((64, 64)).astype(np.float32) * 0.1 for _ in range(4)]
        self._x = rng.standard_normal((16, 64)).astype(np.float32)
        self._a = rng.standard_normal((256, 256)).astype(np.float32)
        self._tokens = rng.integers(0, 24, size=3000).tolist()
        self.times: list[float] = []
        self.parts: dict[str, list[float]] = {}

    def _small_numpy(self):
        for _ in range(60):
            h = self._x
            for w in self._w:
                h = np.maximum(h @ w, 0.0)
                h = h - h.mean(axis=-1, keepdims=True)
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)

    def _blas(self):
        for _ in range(6):
            self._a @ self._a

    def _ngrams(self):
        toks = self._tokens
        for n in (1, 2, 3, 4):
            Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))

    def measure(self):
        total = 0.0
        for name, part in (("numpy", self._small_numpy), ("blas", self._blas),
                           ("ngrams", self._ngrams)):
            t0 = time.perf_counter()
            part()
            dt = time.perf_counter() - t0
            self.parts.setdefault(name, []).append(dt)
            total += dt
        self.times.append(total)

    def speed(self) -> float:
        """REFERENCE_S over the median kernel time: above 1 on a fast host."""
        return REFERENCE_S / statistics.median(self.times)
