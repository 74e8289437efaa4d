"""Command-line entry point: train / sample / translate / inpaint / eval /
bench / ablate over config files with --key value overrides."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, dump_config, parse_config_file, set_key
from .data import PAD, Vocab, encode, decode, load_corpus, TokenSeq
from .evaluation import (ABLATION_SAMPLER, ablation_report, exact_match,
                         quality_diversity_curve)
from .experiments import (bench_report, desk_model_config, heldout_pairs,
                          train_lm, train_synthetic)
from .model import build_conditioning, init_model
from .numerics import NumericError
from .sampling import SamplerConfig, Template, sample_chain, sample_reranked

USAGE = """usage: snda COMMAND [--config PATH] [--key value ...]

commands:
  train       train a denoiser (synthetic task or text corpus)
  sample      unconditional sampling from a checkpoint
  translate   conditional decoding for sources from --input
  inpaint     fill `*` positions of --template, clamping the rest
  eval        exact match (task) or quality/diversity curve (corpus)
  bench       decoding speed accounting vs a causal greedy baseline
  ablate      unroll-count / length-prediction ablation table

common flags: --config PATH, --seed INT, --checkpoint PATH, --out PATH,
  --count INT, --template STR, --temps CSV, --steps INT/CSV (chain steps;
  train takes --train.total_steps), --strategy {low_temp,argmax_unrolled},
  plus any dotted config key (model.*, train.*, sampler.*).
"""

_FLAG_ALIASES = {"seed", "checkpoint", "out", "count", "template", "temps",
                 "steps", "strategy", "task", "corpus", "vocab", "input"}


def _parse_argv(argv: list[str]) -> tuple[str, RunConfig]:
    if not argv:
        raise ConfigError("missing command")
    command = argv[0]
    if command not in ("train", "sample", "translate", "inpaint", "eval",
                       "bench", "ablate"):
        raise ConfigError(f"unknown command: {command!r}")
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
    return command, cfg


def _sampler_cfg(cfg: RunConfig) -> SamplerConfig:
    kwargs = dict(cfg.sampler)
    if cfg.get("steps") is not None and "T" not in kwargs:
        kwargs["T"] = int(cfg.get("steps"))
    if cfg.get("strategy") and "strategy" not in kwargs:
        kwargs["strategy"] = cfg.get("strategy")
    kwargs.setdefault("seed", int(cfg.get("seed", 0)))
    return SamplerConfig(**kwargs)


def _require(cfg: RunConfig, key: str):
    value = cfg.get(key)
    if value is None:
        raise ConfigError(f"missing required setting: {key}")
    return value


def _len_range(cfg: RunConfig) -> tuple[int, int]:
    return int(cfg.get("len_min", 4)), int(cfg.get("len_max", 12))


def _train_settings(cfg: RunConfig) -> tuple[dict, dict]:
    """(model.* settings except N, train.* settings) for a trainer; the keys
    a trainer derives itself are rejected."""
    for section, key in (("model", "v"), ("model", "mode"), ("model", "N_source"),
                         ("train", "seed")):
        if key in getattr(cfg, section):
            raise ConfigError(f"{section}.{key} is derived from the task, the "
                              "vocabulary or --seed and cannot be set")
    return {k: v for k, v in cfg.model.items() if k != "N"}, dict(cfg.train)


def _task_train_kwargs(cfg: RunConfig) -> dict:
    """train_synthetic keyword arguments for every task, model.* and train.*
    setting."""
    model_overrides, train_overrides = _train_settings(cfg)
    return dict(v_task=int(cfg.get("v_task", 14)), len_range=_len_range(cfg),
                N=int(cfg.model.get("N", 16)), model_overrides=model_overrides,
                **train_overrides)


def cmd_train(cfg: RunConfig) -> int:
    if cfg.get("steps") is not None:
        raise ConfigError("train takes its step count from --train.total_steps, "
                          "not --steps")
    seed = int(cfg.get("seed", 0))
    ckpt_path = cfg.get("checkpoint_out") or cfg.get("checkpoint") or "model.ckpt"
    log_path = cfg.get("out") or "metrics.log"
    lines: list[str] = []
    task = cfg.get("task")
    if task:
        if cfg.get("log_every") is not None:
            raise ConfigError("log_every applies to --corpus training; task training "
                              "logs every 50 steps")
        model, _ = train_synthetic(task, seed=seed, log_fn=lines.append,
                                   **_task_train_kwargs(cfg))
    else:
        with open(_require(cfg, "corpus"), encoding="utf-8") as f:
            docs = [doc for doc in (ln.rstrip("\n") for ln in f) if doc]
        if cfg.get("vocab"):
            vocab = Vocab.load(cfg.get("vocab"))
        else:
            vocab = Vocab.from_corpus(docs, kind="char")
            vocab.save(ckpt_path + ".vocab")
        model_overrides, train_overrides = _train_settings(cfg)
        model = train_lm(docs, vocab, seed=seed, N=int(cfg.model.get("N", 32)),
                         log_every=int(cfg.get("log_every", 50)), log_fn=lines.append,
                         model_overrides=model_overrides, **train_overrides)
    with open(log_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    save_checkpoint(model, ckpt_path, seed=seed)
    print(f"checkpoint written to {ckpt_path}; metrics log in {log_path}")
    return 0


def _load_model(cfg: RunConfig):
    path = _require(cfg, "checkpoint")
    model, step, seed = load_checkpoint(path)
    return model


def _load_vocab(cfg: RunConfig) -> Vocab:
    path = cfg.get("vocab") or (str(cfg.get("checkpoint")) + ".vocab")
    return Vocab.load(path)


def cmd_sample(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    vocab = _load_vocab(cfg)
    count = int(cfg.get("count", 1))
    scfg = _sampler_cfg(cfg)
    out_lines = []
    for i in range(count):
        one = replace(scfg, seed=scfg.seed + i)
        final = sample_chain(model, one).states[-1]
        n = next((k for k, t in enumerate(final) if t == PAD), len(final))
        out_lines.append(decode(TokenSeq(final, n), vocab))
    _emit(cfg, out_lines)
    return 0


def cmd_translate(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    vocab = _load_vocab(cfg)
    src_path = _require(cfg, "input")
    scfg = _sampler_cfg(cfg)
    out_lines = []
    with open(src_path, encoding="utf-8") as f:
        sources = [ln.rstrip("\n") for ln in f if ln.strip()]
    for i, text in enumerate(sources):
        src = encode(text, vocab, model.config.N_source)
        cond = build_conditioning(model, src.ids, src.content_len)
        one = replace(scfg, seed=scfg.seed + 65537 * i)
        best, _ = sample_reranked(model, one, cond=cond)
        n = next((k for k, t in enumerate(best) if t == PAD), len(best))
        out_lines.append(decode(TokenSeq(best, n), vocab))
    _emit(cfg, out_lines)
    return 0


def cmd_inpaint(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    vocab = _load_vocab(cfg)
    text = _require(cfg, "template")
    char_level = bool(cfg.get("char_template", vocab.kind == "char"))
    parts = list(text) if char_level else text.split()
    N = model.config.N
    tokens = np.full(N, PAD, dtype=np.int64)
    clamp = np.ones(N, dtype=bool)
    for i, part in enumerate(parts[:N]):
        if part == "*":
            clamp[i] = False
        else:
            tokens[i] = vocab.id_of(part)
    scfg = _sampler_cfg(cfg)
    final = sample_chain(model, scfg, init=Template(tokens, clamp)).states[-1]
    n = min(len(parts), N)
    _emit(cfg, [decode(TokenSeq(final, n), vocab)])
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    model = _load_model(cfg)
    scfg = _sampler_cfg(cfg)
    seed = int(cfg.get("seed", 0))
    if cfg.get("task"):
        pairs = heldout_pairs(cfg.get("task"), seed, int(cfg.get("count", 100)),
                              _len_range(cfg), int(cfg.get("v_task", 14)),
                              model.config.N)
        acc = exact_match(model, pairs, scfg)
        _emit(cfg, [f"variant=eval metric=exact_match value={acc:.6f}"])
        return 0
    corpus_path = _require(cfg, "corpus")
    vocab = _load_vocab(cfg)
    refs = [enc.ids[: enc.content_len].tolist()
            for enc in load_corpus(corpus_path, vocab, model.config.N)]
    temps = [float(t) for t in str(_require(cfg, "temps")).split(",")]
    points = quality_diversity_curve(model, temps, int(cfg.get("count", 50)),
                                     refs, sampler_cfg=scfg, seed=seed)
    _emit(cfg, [f"variant=tau{p.temperature} metric=quality_bleu value={p.quality_bleu:.6f}"
                for p in points]
               + [f"variant=tau{p.temperature} metric=self_bleu value={p.self_bleu:.6f}"
                  for p in points])
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.get("checkpoint"):
        model = _load_model(cfg)
    else:
        mcfg = desk_model_config(int(cfg.model.get("v", 32)),
                                 int(cfg.model.get("N", 64)), "unconditional",
                                 dropout=0.0)
        model = init_model(mcfg, np.random.default_rng(int(cfg.get("seed", 0))))
    T_values = [int(t) for t in str(cfg.get("steps", "4,8,10,16")).split(",")]
    text, _ = bench_report(model, T_values, batch=int(cfg.get("count", 32)),
                           seed=int(cfg.get("seed", 0)))
    _emit(cfg, text.splitlines())
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    task = cfg.get("task", "reverse_cipher")
    variants = [{"s": 1}, {"s": 2}]
    if task == "copy":
        variants = [{"s": 2, "length_pred": True}, {"s": 2, "length_pred": False}]
    if "unroll_terms" in cfg.train:
        raise ConfigError("ablate sets train.unroll_terms per variant")
    table, machine = ablation_report(
        task, variants, train_kwargs=_task_train_kwargs(cfg),
        sampler_cfg=replace(ABLATION_SAMPLER, **cfg.sampler),
        seed=int(cfg.get("seed", 0)))
    _emit(cfg, table.splitlines() + machine)
    return 0


def _emit(cfg: RunConfig, lines: list[str]):
    text = "\n".join(lines) + "\n"
    out = cfg.get("report") or cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    sys.stdout.write(text)


_COMMANDS = {
    "train": cmd_train, "sample": cmd_sample, "translate": cmd_translate,
    "inpaint": cmd_inpaint, "eval": cmd_eval, "bench": cmd_bench,
    "ablate": cmd_ablate,
}


def run(argv: list[str]) -> int:
    try:
        command, cfg = _parse_argv(argv)
    except (ConfigError, FileNotFoundError) as e:
        sys.stderr.write(f"error: {e}\n{USAGE}")
        return 1
    try:
        return _COMMANDS[command](cfg)
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
