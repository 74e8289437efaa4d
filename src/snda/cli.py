"""Command-line entry point: train / sample / translate / inpaint / eval /
bench / ablate over config files with --key value overrides."""

from __future__ import annotations

import sys
import textwrap
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, read_checkpoint, save_checkpoint
from .config import (ConfigError, RunConfig, integer, parse_config_file, set_key,
                     temperatures)
from .data import PAD, UNK, Vocab, encode, decode, load_corpus, TokenSeq
from .evaluation import draw_samples, exact_match, quality_diversity_curve, strip_pad, translate
from .experiments import (ABLATION_SAMPLER, LM_TRAIN_STEPS, TASK_TRAIN_STEPS, ablation_report,
                          bench_report, desk_model_config, desk_train_config, heldout_pairs,
                          train_lm, train_synthetic)
from .model import init_model
from .numerics import NumericError, seed_value
from .sampling import SamplerConfig, Template, sample_chain


def _require(cfg: RunConfig, key: str):
    value = cfg.get(key)
    if value is None:
        raise ConfigError(f"missing required setting: {key}")
    return value


def _int(cfg: RunConfig, key: str, default: int) -> int:
    return integer(key, cfg.get(key, default))


def _count(cfg: RunConfig, default: int, least: int = 1) -> int:
    count = _int(cfg, "count", default)
    if count < least:
        raise ConfigError(f"count must be >= {least}, got {count}")
    return count


def _len_range(cfg: RunConfig) -> tuple[int, int]:
    return _int(cfg, "len_min", 4), _int(cfg, "len_max", 12)


def _train_settings(cfg: RunConfig) -> tuple[dict, dict]:
    """(model.* settings except N, train.* settings) for a trainer."""
    return {k: v for k, v in cfg.model.items() if k != "N"}, dict(cfg.train)


def _task_train_kwargs(cfg: RunConfig) -> dict:
    """train_synthetic keyword arguments for every task, model.* and train.*
    setting."""
    model_overrides, train_overrides = _train_settings(cfg)
    return dict(v_task=_int(cfg, "v_task", 14), len_range=_len_range(cfg),
                N=cfg.model.get("N", 16), model_overrides=model_overrides,
                **train_overrides)


def _checkpoint_path(cfg: RunConfig) -> str:
    return cfg.get("checkpoint") or "model.ckpt"


def _save_run(cfg: RunConfig, model, lines: list[str], seed: int, task=None) -> int:
    ckpt_path = _checkpoint_path(cfg)
    log_path = cfg.get("out") or "metrics.log"
    with open(log_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    steps = cfg.train.get("total_steps", LM_TRAIN_STEPS if task is None else TASK_TRAIN_STEPS)
    save_checkpoint(model, ckpt_path, step=steps, seed=seed, task=task)
    print(f"checkpoint written to {ckpt_path}; metrics log in {log_path}")
    return 0


def cmd_train_task(cfg: RunConfig) -> int:
    seed = _int(cfg, "seed", 0)
    lines: list[str] = []
    model, _ = train_synthetic(cfg.get("task"), seed=seed, log_fn=lines.append,
                               **_task_train_kwargs(cfg))
    return _save_run(cfg, model, lines, seed, (cfg.get("task"), _len_range(cfg)))


def _check_known(parts: list[str], vocab: Vocab, where: str):
    """A usage error naming the first of `parts` that the vocabulary lacks,
    which `encode` would read as <unk>."""
    for i, part in enumerate(parts, 1):
        if vocab.id_of(part) == UNK:
            raise ConfigError(f"{where}, token {i}: {part!r} is not in the vocabulary")


def cmd_train_corpus(cfg: RunConfig) -> int:
    seed, log_every = _int(cfg, "seed", 0), _int(cfg, "log_every", 50)
    with open(_require(cfg, "corpus"), encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    docs = [doc for doc in lines if doc]
    if cfg.get("vocab"):
        vocab = Vocab.load(cfg.get("vocab"))
        for lineno, doc in enumerate(lines, 1):
            _check_known(Vocab.split(doc, vocab.kind), vocab, f"--corpus line {lineno}")
    else:
        vocab = Vocab.from_corpus(docs, kind="char")
        vocab.save(_checkpoint_path(cfg) + ".vocab")
    model_overrides, train_overrides = _train_settings(cfg)
    lines: list[str] = []
    model = train_lm(docs, vocab, seed=seed, N=cfg.model.get("N", 32),
                     log_every=log_every, log_fn=lines.append,
                     model_overrides=model_overrides, **train_overrides)
    return _save_run(cfg, model, lines, seed)


def _load_model(cfg: RunConfig, mode: str, does: str) -> Checkpoint:
    """--checkpoint's model with its training step, seed and task. A model
    of another mode than `mode` is a usage error that says what the command
    `does`, checked before any other file is read."""
    path = _require(cfg, "checkpoint")
    ckpt = read_checkpoint(path)
    if ckpt.model.config.mode != mode:
        raise ConfigError(f"{does}; {path} holds an {ckpt.model.config.mode} model")
    return ckpt


def _load_vocab(cfg: RunConfig, model) -> Vocab:
    path = cfg.get("vocab") or (str(cfg.get("checkpoint")) + ".vocab")
    vocab = Vocab.load(path)
    if vocab.size != model.config.v:
        raise ConfigError(f"vocabulary {path} has {vocab.size} tokens; "
                          f"the model's v is {model.config.v}")
    return vocab


def _text(ids, vocab: Vocab) -> str:
    return decode(TokenSeq(ids, len(ids)), vocab)


def cmd_sample(cfg: RunConfig) -> int:
    count = _count(cfg, 1)
    model = _load_model(cfg, "unconditional", "sample draws unconditional chains").model
    vocab = _load_vocab(cfg, model)
    scfg = SamplerConfig(**cfg.sampler)
    samples = draw_samples(model, scfg, count, scfg.seed)
    _emit(cfg, [_text(ids, vocab) for ids in samples])
    return 0


def cmd_translate(cfg: RunConfig) -> int:
    model = _load_model(cfg, "encoder_decoder", "translate decodes from a source").model
    vocab = _load_vocab(cfg, model)
    N_source = model.config.N_source
    sources = []
    blank = []      # a blank input line gets an empty output line in its place
    with open(_require(cfg, "input"), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            text = line.rstrip("\n")
            blank.append(not text.strip())
            if blank[-1]:
                continue
            parts = Vocab.split(text, vocab.kind)
            if len(parts) > N_source:
                raise ConfigError(f"--input line {lineno} has {len(parts)} tokens; "
                                  f"the model's N_source is {N_source}")
            _check_known(parts, vocab, f"--input line {lineno}")
            sources.append(encode(text, vocab, N_source))
    bests = iter(translate(model, sources, SamplerConfig(**cfg.sampler)))
    _emit(cfg, ["" if b else _text(strip_pad(next(bests)), vocab) for b in blank])
    return 0


def cmd_inpaint(cfg: RunConfig) -> int:
    model = _load_model(cfg, "unconditional",
                        "inpaint fills a template by unconditional chains").model
    vocab = _load_vocab(cfg, model)
    text = _require(cfg, "template")
    parts = Vocab.split(text, vocab.kind)
    N = model.config.N
    if len(parts) > N:
        raise ConfigError(f"--template has {len(parts)} tokens; the model's N is {N}")
    tokens = np.full(N, PAD, dtype=np.int64)
    clamp = np.ones(N, dtype=bool)
    for i, part in enumerate(parts):
        if part == "*":
            clamp[i] = False
        else:
            tokens[i] = vocab.id_of(part)
            if tokens[i] == UNK:
                raise ConfigError(f"--template token {i + 1}: {part!r} is not in the vocabulary")
    chain = sample_chain(model, SamplerConfig(**cfg.sampler), init=Template(tokens, clamp))
    _emit(cfg, [decode(TokenSeq(chain.states[-1], len(parts)), vocab)])
    return 0


def cmd_eval_task(cfg: RunConfig) -> int:
    count = _count(cfg, 100)
    # the checkpoint's training seed fixed the task's cipher, and its v the task's tokens
    model, _, seed, trained = _load_model(cfg, "encoder_decoder",
                                          "eval --task decodes from a source")
    task, len_range = cfg.get("task"), _len_range(cfg)
    if trained is not None:     # flags may only repeat the task the model was trained on
        given = {"task": task, "len_min": len_range[0], "len_max": len_range[1]}
        for key, value in zip(given, (trained[0], *trained[1])):
            if key in cfg.top and given[key] != value:
                raise ConfigError(f"--{key} {given[key]} disagrees with {cfg.get('checkpoint')}, "
                                  f"trained with --{key} {value}")
        task, len_range = trained
    pairs = heldout_pairs(task, seed, count, len_range, model.config.v - 2, model.config.N)
    acc = exact_match(model, pairs, SamplerConfig(**cfg.sampler))
    _emit(cfg, [f"variant=eval metric=exact_match value={acc:.6f}"])
    return 0


def cmd_eval_corpus(cfg: RunConfig) -> int:
    temps = temperatures("temps", _require(cfg, "temps"))
    count = _count(cfg, 50, least=2)    # self-BLEU scores each sample against the others
    model = _load_model(cfg, "unconditional", "eval --corpus draws unconditional chains").model
    scfg = SamplerConfig(**cfg.sampler)
    corpus_path = _require(cfg, "corpus")
    vocab = _load_vocab(cfg, model)
    refs = [enc.ids[: enc.content_len].tolist()
            for enc in load_corpus(corpus_path, vocab, model.config.N)]
    points = quality_diversity_curve(model, temps, count,
                                     refs, sampler_cfg=scfg, seed=scfg.seed)
    _emit(cfg, [f"variant=tau{p.temperature} metric=quality_bleu value={p.quality_bleu:.6f}"
                for p in points]
               + [f"variant=tau{p.temperature} metric=self_bleu value={p.self_bleu:.6f}"
                  for p in points])
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    seed, count = _int(cfg, "seed", 0), _count(cfg, 32)
    T_values = [integer("steps", t) for t in str(cfg.get("steps", "4,8,10,16")).split(",")]
    if min(T_values) < 1:
        raise ConfigError(f"steps must be >= 1, got {min(T_values)}")
    if "checkpoint" in cfg.top:
        model = _load_model(cfg, "unconditional", "bench times unconditional decoding").model
    else:
        mcfg = desk_model_config(mode="unconditional",
                                 **{"v": 32, "N": 64, **cfg.model})
        model = init_model(mcfg, np.random.default_rng(seed))
    text, _ = bench_report(model, T_values, batch=count, seed=seed)
    _emit(cfg, text.splitlines())
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    task = cfg.get("task", "reverse_cipher")
    variants = [{"s": 1}, {"s": 2}]
    if task == "copy":
        variants = [{"s": 2, "length_pred": True}, {"s": 2, "length_pred": False}]
    table, machine = ablation_report(
        task, variants, train_kwargs=_task_train_kwargs(cfg),
        sampler_cfg=replace(ABLATION_SAMPLER, **cfg.sampler),
        seed=_int(cfg, "seed", 0))
    _emit(cfg, table.splitlines() + machine)
    return 0


def _emit(cfg: RunConfig, lines: list[str]):
    text = "\n".join(lines) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    sys.stdout.write(text)


@dataclass(frozen=True)
class Branch:
    """A command, or the branch of one that its `select` key picks, with the
    function that runs it, the top-level keys and config sections it reads,
    and the fields of those sections it does not read (`section.field`):
    fields it derives itself or that nothing in it uses."""

    command: str
    select: str
    fn: Callable[[RunConfig], int]
    summary: str
    keys: tuple[str, ...]
    sections: tuple[str, ...] = ()
    unread: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.command} --{self.select}" if self.select else self.command


def _branch(command, select, fn, summary, keys, sections="", unread=""):
    return Branch(command, select, fn, summary, tuple(keys.split()), tuple(sections.split()),
                  tuple(unread.split()))


_TASK_KEYS = "task seed v_task len_min len_max"
_DECODE_KEYS = "checkpoint vocab out"
# set from the task or the vocabulary, and from --seed
_DERIVED = "model.v model.mode model.N_source train.seed"

# A command runs the first of its branches whose `select` key is set, else
# its last branch.
COMMANDS = [
    _branch("train", "task", cmd_train_task, "train a denoiser on a synthetic task",
            _TASK_KEYS + " checkpoint out", "model train", _DERIVED),
    _branch("train", "corpus", cmd_train_corpus, "train a denoiser on a text corpus",
            "corpus vocab seed log_every checkpoint out", "model train", _DERIVED),
    _branch("sample", "", cmd_sample, "unconditional sampling from a checkpoint",
            _DECODE_KEYS + " count", "sampler", "sampler.rerank_width"),
    _branch("translate", "", cmd_translate, "conditional decoding of each line of --input",
            _DECODE_KEYS + " input", "sampler"),
    _branch("inpaint", "", cmd_inpaint, "fill `*` positions of --template, clamping the rest",
            _DECODE_KEYS + " template", "sampler", "sampler.rerank_width"),
    _branch("eval", "task", cmd_eval_task, "exact match on the task's held-out pairs",
            "task len_min len_max checkpoint count out", "sampler"),
    _branch("eval", "corpus", cmd_eval_corpus, "quality/diversity curve against a corpus",
            _DECODE_KEYS + " corpus temps count", "sampler",
            "sampler.rerank_width sampler.temperature"),
    _branch("bench", "checkpoint", cmd_bench, "decoding speed of a trained model",
            "checkpoint steps count seed out"),
    _branch("bench", "", cmd_bench, "decoding speed of a desk model vs causal greedy decoding",
            "steps count seed out", "model", "model.mode model.N_source"),
    _branch("ablate", "", cmd_ablate, "unroll-count / length-prediction ablation table",
            _TASK_KEYS + " out", "model train sampler", _DERIVED + " train.unroll_terms"),
]


def _usage() -> str:
    lines = ["usage: snda COMMAND [--config PATH] [--key value ...]", "",
             "Settings are --key value flags or `key = value` lines of a --config",
             "file (flags win). A command reads only the settings listed for it;",
             "any other is an error. --model.*, --train.* and --sampler.* stand",
             "for every field of that section but those listed after `except`.",
             "Chains read --sampler.* (T, seed, ...); --steps is bench's",
             "comma-separated list of T values, --seed the run seed of train,",
             "bench and ablate. eval --task takes its task's seed and v_task from",
             "the checkpoint, and --len_min and --len_max too where the checkpoint",
             "records its task: a flag that disagrees with that record is an",
             "error. Seeds must be >= 0.", "",
             "commands:"]
    for b in COMMANDS:
        reads = [f"--{k}" for k in b.keys] + [f"--{s}.*" for s in b.sections]
        if b.unread:
            reads += ["except"] + [f"--{k}" for k in b.unread]
        lines += [f"  {b.name:<18}  {b.summary}",
                  textwrap.fill(" ".join(reads), 78, initial_indent=" " * 6,
                                subsequent_indent=" " * 6)]
    return "\n".join(lines) + "\n"


USAGE = _usage()


def _parse_argv(argv: list[str]) -> tuple[Branch, RunConfig]:
    if not argv:
        raise ConfigError("missing command")
    branches = [b for b in COMMANDS if b.command == argv[0]]
    if not branches:
        raise ConfigError(f"unknown command: {argv[0]!r}")
    cfg = RunConfig()
    i = 1
    pending: list[tuple[str, str]] = []
    while i < len(argv):
        flag = argv[i]
        if not flag.startswith("--"):
            raise ConfigError(f"unexpected argument: {flag!r}")
        key = flag[2:]
        if i + 1 >= len(argv):
            raise ConfigError(f"flag {flag} needs a value")
        value = argv[i + 1]
        i += 2
        if key == "config":
            parse_config_file(value, cfg)
        else:
            pending.append((key, value))
    for key, value in pending:  # overrides win over the config file
        set_key(cfg, key, value)
    branch = next((b for b in branches if b.select in cfg.top), branches[-1])
    unread = [k for k in cfg.top if k not in branch.keys] + [
        f"{s}.{k}" for s in ("model", "train", "sampler") for k in getattr(cfg, s)
        if s not in branch.sections or f"{s}.{k}" in branch.unread]
    if unread:
        raise ConfigError(f"snda {branch.name} does not read --{unread[0]}")
    # checked here so that the error comes before any checkpoint or corpus is read or written
    if "seed" in cfg.top:
        seed_value("seed", integer("seed", cfg.top["seed"]))
    if "sampler" in branch.sections:
        _check_section(cfg, "sampler", lambda: SamplerConfig(**cfg.sampler))
        # SamplerConfig cannot tell a set temperature from its default
        if cfg.sampler.get("strategy") == "argmax_unrolled" and (
                "temperature" in cfg.sampler or "temps" in branch.keys):
            flag = "--sampler.temperature" if "temperature" in cfg.sampler else "--temps"
            raise ConfigError(f"{flag} is not read under sampler.strategy argmax_unrolled")
    # the configs the trainer or bench builds, with stand-ins for the v, N and
    # mode it sets itself: no check compares them with another setting
    if "model" in branch.sections:
        _check_section(cfg, "model", lambda: desk_model_config(
            **{"v": 2, "N": 1, "mode": "unconditional", **cfg.model}))
    if "train" in branch.sections:
        total = LM_TRAIN_STEPS if branch.select == "corpus" else TASK_TRAIN_STEPS
        _check_section(cfg, "train", lambda: desk_train_config(
            **{"total_steps": total, **cfg.train}))
    return branch, cfg


def _check_section(cfg: RunConfig, section: str, build: Callable):
    """Call build(), which makes the config of the --`section`.* settings;
    its ValueError becomes a usage error, which names the flag where the
    message starts with the flag's field."""
    try:
        build()
    except ValueError as e:
        msg = str(e)
        raise ConfigError(f"{section}.{msg}" if msg.split()[0] in getattr(cfg, section)
                          else msg) from None


def run(argv: list[str]) -> int:
    try:
        branch, cfg = _parse_argv(argv)
    except (ValueError, FileNotFoundError) as e:   # ConfigError, or set_key's `finite`
        sys.stderr.write(f"error: {e}\n{USAGE}")
        return 1
    try:
        return branch.fn(cfg)
    except (ConfigError, FileNotFoundError) as e:
        sys.stderr.write(f"error: {e}\n{USAGE}")
        return 1
    except (NumericError, CheckpointError, ValueError, ArithmeticError) as e:
        sys.stderr.write(f"runtime error: {e}\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
