"""The benchmark's workloads.

Each workload makes its inputs from the run's seed, calls the program
only through public functions of `snda` modules (looked up at call time,
so a traced run sees them), and runs in whole rounds of a fixed number of
operations. `check()` compares what the rounds produced with the
oracles in `oracles.py` and returns the failures.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

import numpy as np

from snda import checkpoint, data, evaluation, experiments, model, sampling, training

from . import fixtures, oracles

OUT_DIR = Path(__file__).resolve().parent / "out"

# Round numbers of the warm-up in set-up and of the untimed check inputs,
# apart from the timed rounds 0, 1, 2, ...
WARM_UP = 1 << 30
CHECKS = WARM_UP + 1


def round_seed(seed: int, r: int) -> int:
    """A program-side seed per (run seed, round), so rounds differ."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0] >> 1)


def checkpoint_round_trip(m):
    """Save and load `m` through the program's checkpoint format; returns
    the loaded model after checking it equals `m`."""
    OUT_DIR.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".snda", dir=OUT_DIR)
    os.close(fd)
    try:
        checkpoint.save_checkpoint(m, path)
        loaded, _, _ = checkpoint.load_checkpoint(path)
    finally:
        os.unlink(path)
    for (name, a), (_, b) in zip(m.params.items(), loaded.params.items()):
        oracles.require(np.array_equal(a.data, b.data),
                        f"checkpoint round trip changed {name}")
    return loaded


def cipher_pairs(rng: np.random.Generator, count: int, table: np.ndarray, N: int):
    """(source, target) TokenSeq pairs; targets come from the oracle."""
    lo, hi = fixtures.LEN_RANGE
    pairs = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        toks = rng.integers(0, fixtures.V_TASK, size=n)
        src = np.zeros(N, dtype=np.int64)
        tgt = np.zeros(N, dtype=np.int64)
        src[:n] = toks + 2
        tgt[:n] = oracles.reverse_cipher(toks, table) + 2
        pairs.append((data.TokenSeq(src, n), data.TokenSeq(tgt, n)))
    return pairs


class Workload:
    name: str
    op: str              # what one operation is, for the printed summary
    metric: str          # the throughput's name in the printed summary
    ops_per_round: int

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def prepare(self, r: int):
        """Inputs of round r, made before its clock starts."""
        return r

    def run_round(self, r: int, inputs):
        """The timed program calls of round r; returns their output."""
        raise NotImplementedError

    def record(self, inputs, output):
        """Keep what `check()` needs of a round's output, after its clock
        stopped."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class TrainCipher(Workload):
    """`experiments.train_synthetic` on reverse_cipher at the desk config
    (v=16, N=16, d=64, 2 layers, batch 32, s=2), as `snda train --task`."""

    name, op, metric = "train_cipher", "steps", "train_steps_per_s"
    ops_per_round = 60
    # After 60 steps (the last 40 of them past warm-up at the peak learning
    # rate) the loss is near half its start; 70% leaves room across seeds.
    LOSS_RATIO = 0.7

    def setup(self):
        cipher, self.table = fixtures.load_cipher()
        checkpoint_round_trip(cipher)
        rng = np.random.default_rng([1, self.seed])
        pairs = cipher_pairs(rng, 32, self.table, fixtures.N_CIPHER)
        self.init_batch = data.PairBatch(
            sources=np.stack([s.ids for s, _ in pairs]),
            targets=np.stack([t.ids for _, t in pairs]),
            source_lengths=np.array([s.content_len for s, _ in pairs]),
            target_lengths=np.array([t.content_len for _, t in pairs]))
        self.final_losses = []
        experiments.train_synthetic("reverse_cipher", seed=round_seed(self.seed, WARM_UP),
                                    total_steps=2)

    def run_round(self, r: int, inputs):
        lines: list[str] = []
        experiments.train_synthetic("reverse_cipher", seed=round_seed(self.seed, r),
                                    total_steps=self.ops_per_round, log_fn=lines.append)
        return lines

    def record(self, inputs, lines):
        self.final_losses.append(float(lines[-1].split("loss=")[1].split()[0]))

    def check(self) -> list[str]:
        mcfg = experiments.desk_model_config(fixtures.V_TASK + 2, fixtures.N_CIPHER,
                                             "encoder_decoder", dropout=0.0)
        fresh = model.init_model(mcfg, np.random.default_rng(self.seed))
        loss, terms = training.loss_unrolled(fresh, self.init_batch, 2,
                                             np.random.default_rng(self.seed),
                                             label_smoothing=0.1)
        return oracles.failures(
            lambda: oracles.check_uniform_cross_entropy(terms, mcfg.v),
            lambda: oracles.check_losses(loss.item(), self.final_losses, self.LOSS_RATIO),
            finite_difference_check)


def finite_difference_check(coords_per_tensor: int = 2, h: float = 1e-5):
    """Backward of the unrolled loss on a small float64 encoder-decoder with
    random weights, against float64 central differences at a few
    coordinates of every tensor.

    The length loss reads detached encodings (`model.predict_length`), so
    backward gives the length predictor (`lp.*`) the derivative of the
    whole loss and every other tensor that of the unroll terms' mean; each
    is differenced against the matching quantity.
    """
    mcfg = model.ModelConfig(v=6, N=4, layers=1, d_model=8, heads=2, d_ff=16,
                             dropout=0.0, mode="encoder_decoder", d_LP=8,
                             dtype="float64")
    m = model.init_model(mcfg, 0)
    rng = np.random.default_rng(0)
    m.params.load_values({k: 0.5 * rng.standard_normal(t.data.shape)
                          for k, t in m.params.items()})
    batch = data.PairBatch(sources=np.array([[2, 3, 4, 0], [5, 2, 0, 0]]),
                           targets=np.array([[4, 3, 2, 0], [2, 5, 0, 0]]),
                           source_lengths=np.array([3, 2]),
                           target_lengths=np.array([3, 2]))

    def loss():
        return training.loss_unrolled(m, batch, 2, np.random.default_rng(1),
                                      label_smoothing=0.1)

    def whole_loss():
        return loss()[0].item()

    def terms_mean():
        return math.fsum(loss()[1]) / 2

    m.params.zero_grad()
    loss()[0].backward()
    for name, t in m.params.items():
        flat = t.data.reshape(-1)
        grad = np.zeros_like(flat) if t.grad is None else t.grad.reshape(-1)
        loss_at = whole_loss if name.startswith("lp.") else terms_mean
        for c in rng.choice(flat.size, size=min(coords_per_tensor, flat.size),
                            replace=False):
            numeric = oracles.central_difference(loss_at, flat, int(c), h)
            oracles.check_gradient(f"{name}[{c}]", float(grad[c]), numeric)


class TranslateCipher(Workload):
    """Held-out reverse_cipher sources decoded from the trained fixture
    through `evaluation.exact_match` with criterion 05's sampler."""

    name, op, metric = "translate_cipher", "sources", "translate_sources_per_s"
    ops_per_round = 16

    def _sampler(self, r: int):
        return sampling.SamplerConfig(T=10, temperature=0.3, rerank_width=4,
                                      seed=round_seed(self.seed, r))

    def prepare(self, r: int):
        return cipher_pairs(np.random.default_rng([2, self.seed, r]),
                            self.ops_per_round, self.table, self.model.config.N)

    def setup(self):
        cipher, self.table = fixtures.load_cipher()
        self.model = checkpoint_round_trip(cipher)
        self.hits = []
        evaluation.exact_match(self.model, self.prepare(WARM_UP)[:2],
                               self._sampler(WARM_UP))

    def run_round(self, r: int, pairs):
        return evaluation.exact_match(self.model, pairs, self._sampler(r))

    def record(self, pairs, fraction):
        self.hits.append(fraction * len(pairs))

    def check(self) -> list[str]:
        count = len(self.hits) * self.ops_per_round
        return oracles.failures(
            lambda: oracles.check_exact_match(sum(self.hits) / count, count))


class _LMWorkload(Workload):
    def load_model(self):
        """The LM fixture after a checkpoint round trip, and the corpus as
        id lists cropped to the model's length."""
        lm, self.vocab, lines = fixtures.load_lm()
        self.model = checkpoint_round_trip(lm)
        ids = {tok: i for i, tok in enumerate(self.vocab)}
        self.corpus = [[ids[ch] for ch in line][:self.model.config.N] for line in lines]


class LMEval(_LMWorkload):
    """The quality-diversity curve of `snda eval --corpus` on the toy
    character LM: samples at two temperatures scored by BLEU against the
    2000-line training corpus and by self-BLEU."""

    name, op, metric = "lm_eval", "samples", "lm_samples_per_s"
    TEMPS = (0.2, 1.5)
    SAMPLES_PER_TEMP = 3          # per set; the curve draws two sets
    ops_per_round = 2 * len(TEMPS) * SAMPLES_PER_TEMP
    CHECK_SAMPLES = 6             # untimed set per temperature for the BLEU oracle

    def setup(self):
        self.load_model()
        self.points = []
        evaluation.quality_diversity_curve(self.model, list(self.TEMPS), 1, self.corpus,
                                           seed=round_seed(self.seed, WARM_UP))

    def run_round(self, r: int, inputs):
        return evaluation.quality_diversity_curve(
            self.model, list(self.TEMPS), self.SAMPLES_PER_TEMP, self.corpus,
            seed=round_seed(self.seed, r))

    def record(self, inputs, points):
        self.points.append(points)

    def check(self) -> list[str]:
        mean = [(float(np.mean([pts[k].quality_bleu for pts in self.points])),
                 float(np.mean([pts[k].self_bleu for pts in self.points])))
                for k in range(len(self.TEMPS))]
        checks = [lambda: oracles.check_quality_diversity(mean[0], mean[1], self.TEMPS)]
        for k, tau in enumerate(self.TEMPS):
            cfg = sampling.SamplerConfig(T=16, temperature=tau, update_fraction=0.3)
            samples = evaluation.draw_samples(self.model, cfg, self.CHECK_SAMPLES,
                                              round_seed(self.seed, CHECKS + k))
            samples = [s for s in samples if s]
            checks += [
                lambda s=samples, t=tau: oracles.check_equal_scores(
                    f"corpus BLEU at tau={t}",
                    evaluation.corpus_bleu(s, [self.corpus] * len(s)),
                    oracles.bleu_shared_refs(s, self.corpus)),
                lambda s=samples, t=tau: oracles.check_equal_scores(
                    f"self-BLEU at tau={t}", evaluation.self_bleu(s), oracles.self_bleu(s)),
            ]
        return oracles.failures(*checks)


class LMInpaint(_LMWorkload):
    """Character templates from the corpus with random free positions,
    filled by `sampling.sample_chain` with a `Template` at the sampler
    settings `snda inpaint` uses."""

    name, op, metric = "lm_inpaint", "sequences", "inpaint_seqs_per_s"
    ops_per_round = 64
    FREE_SHARE = 0.4

    def prepare(self, r: int):
        rng = np.random.default_rng([3, self.seed, r])
        N = self.model.config.N
        out = []
        for _ in range(self.ops_per_round):
            line = self.corpus[int(rng.integers(len(self.corpus)))]
            tokens = np.zeros(N, dtype=np.int64)
            tokens[:len(line)] = line
            clamp = np.ones(N, dtype=bool)
            clamp[:len(line)] = rng.random(len(line)) >= self.FREE_SHARE
            clamp[int(rng.integers(len(line)))] = False
            out.append(sampling.Template(tokens, clamp))
        return out

    def setup(self):
        self.load_model()
        self.failures = []
        self._fill(self.prepare(WARM_UP)[:2], WARM_UP)

    def _fill(self, templates, r: int):
        base = round_seed(self.seed, r)
        return [sampling.sample_chain(self.model, sampling.SamplerConfig(seed=base + j),
                                      init=tpl)
                for j, tpl in enumerate(templates)]

    def run_round(self, r: int, templates):
        return self._fill(templates, r)

    def record(self, templates, traces):
        self.failures += oracles.failures(*(
            lambda t=tpl, s=trace.states: oracles.check_clamped(t.tokens, t.clamp_mask, s)
            for tpl, trace in zip(templates, traces)))

    def check(self) -> list[str]:
        return self.failures


WORKLOADS = {w.name: w for w in (TrainCipher, TranslateCipher, LMEval, LMInpaint)}
