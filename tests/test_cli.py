"""End-to-end CLI runs on tiny budgets via run(argv)."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snda
from snda import cli, evaluation
from snda.checkpoint import load_checkpoint, save_checkpoint
from snda.cli import run
from snda.data import Vocab, decode, encode, TokenSeq
from snda.sampling import SamplerConfig


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_usage_errors_exit_1(capsys, in_tmp):
    assert run([]) == 1
    assert run(["fly"]) == 1
    assert run(["train", "--banana", "1"]) == 1
    assert run(["sample"]) == 1  # missing checkpoint
    err = capsys.readouterr().err
    assert "usage" in err


def test_bad_checkpoint_exits_2(capsys, in_tmp):
    (in_tmp / "junk.ckpt").write_bytes(b"XXXXnothing")
    assert run(["sample", "--checkpoint", "junk.ckpt"]) == 2


TRAIN_TASK = ["train", "--task", "copy", "--v_task", "6",
              "--len_min", "2", "--len_max", "6", "--model.N", "8",
              "--train.total_steps", "30", "--train.batch_size", "8",
              "--seed", "0"]


def test_train_task_writes_checkpoint_and_log(capsys, in_tmp):
    code = run(TRAIN_TASK + ["--checkpoint", "m.ckpt", "--out", "metrics.log"])
    assert code == 0
    assert os.path.exists("m.ckpt")
    lines = open("metrics.log").read().splitlines()
    assert lines and all(ln.startswith("step=") for ln in lines)


def test_train_rerun_reproduces_metrics_log(in_tmp, capsys):
    run(TRAIN_TASK + ["--checkpoint", "a.ckpt", "--out", "a.log"])
    run(TRAIN_TASK + ["--checkpoint", "b.ckpt", "--out", "b.log"])
    assert open("a.log").read() == open("b.log").read()
    assert open("a.ckpt", "rb").read() == open("b.ckpt", "rb").read()


@pytest.fixture
def corpus_ckpt(in_tmp, capsys):
    lines = ["abab", "baba", "aabb"] * 10
    (in_tmp / "corpus.txt").write_text("\n".join(lines) + "\n")
    code = run(["train", "--corpus", "corpus.txt", "--model.N", "8",
                "--train.total_steps", "20", "--train.batch_size", "8",
                "--checkpoint", "lm.ckpt", "--out", "lm.log", "--seed", "1"])
    assert code == 0
    capsys.readouterr()
    return in_tmp


def test_sample_emits_count_lines(corpus_ckpt, capsys):
    code = run(["sample", "--checkpoint", "lm.ckpt", "--count", "3",
                "--steps", "2", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3


def test_inpaint_preserves_clamped_positions(corpus_ckpt, capsys):
    code = run(["inpaint", "--checkpoint", "lm.ckpt", "--template", "a*a*",
                "--steps", "2", "--seed", "0"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert len(line) == 4
    assert line[0] == "a" and line[2] == "a"


def test_translate_emits_one_line_per_source(in_tmp, capsys):
    run(TRAIN_TASK + ["--checkpoint", "mt.ckpt"])
    # char vocab whose ids line up with the task ids [2, 8)
    (in_tmp / "v.txt").write_text("<pad>\n<unk>\n" +
                                  "\n".join("abcdef") + "\n")
    (in_tmp / "src.txt").write_text("abc\nfed\n")
    capsys.readouterr()
    code = run(["translate", "--checkpoint", "mt.ckpt", "--vocab", "v.txt",
                "--input", "src.txt", "--steps", "2", "--seed", "0"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_eval_task_exact_match(in_tmp, capsys):
    run(TRAIN_TASK + ["--checkpoint", "me.ckpt"])
    capsys.readouterr()
    code = run(["eval", "--checkpoint", "me.ckpt", "--task", "copy",
                "--v_task", "6", "--len_min", "2", "--len_max", "6",
                "--count", "5", "--steps", "2", "--seed", "0"])
    assert code == 0
    assert "metric=exact_match" in capsys.readouterr().out


def test_eval_corpus_quality_diversity(corpus_ckpt, capsys):
    code = run(["eval", "--checkpoint", "lm.ckpt", "--corpus", "corpus.txt",
                "--temps", "0.5,1.0", "--count", "4", "--steps", "2",
                "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "metric=quality_bleu" in out and "metric=self_bleu" in out


def test_bench_reports_ratios(capsys, in_tmp):
    code = run(["bench", "--model.v", "8", "--model.N", "16",
                "--steps", "4,8", "--count", "4", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fwd-pass ratio" in out
    assert "4.00" in out  # N=16, T=4 -> ratio 4


def test_config_file_with_override(in_tmp, capsys):
    (in_tmp / "run.cfg").write_text(
        "task = copy\nv_task = 6\nlen_min = 2\nlen_max = 6\n"
        "model.N = 8\ntrain.total_steps = 30\ntrain.batch_size = 8\n")
    code = run(["train", "--config", "run.cfg", "--train.total_steps", "10",
                "--checkpoint", "c.ckpt", "--out", "c.log"])
    assert code == 0
    last = open("c.log").read().splitlines()[-1]
    assert last.startswith("step=10 ")  # the override won


def test_train_passes_model_and_train_settings(in_tmp, capsys):
    assert run(TRAIN_TASK + ["--model.layers", "3", "--train.lr_peak", "0.01",
                             "--checkpoint", "deep.ckpt"]) == 0
    assert load_checkpoint("deep.ckpt")[0].config.layers == 3
    (in_tmp / "corpus.txt").write_text("abab\nbaba\n")
    assert run(["train", "--corpus", "corpus.txt", "--model.N", "8", "--model.layers", "3",
                "--train.total_steps", "4", "--train.batch_size", "4",
                "--checkpoint", "lm.ckpt"]) == 0
    assert load_checkpoint("lm.ckpt")[0].config.layers == 3


@pytest.mark.parametrize("extra", [["--steps", "3"], ["--model.v", "9"],
                                   ["--train.seed", "2"], ["--log_every", "5"]])
def test_train_rejects_settings_it_would_drop(in_tmp, capsys, extra):
    assert run(TRAIN_TASK + extra) == 1
    assert not os.path.exists("model.ckpt")


def test_train_rejects_unknown_task(in_tmp, capsys):
    assert run(["train", "--task", "lm", "--train.total_steps", "2"]) != 0
    assert not os.path.exists("model.ckpt")


@pytest.mark.parametrize("how", ["flag", "config"])
def test_unknown_top_level_key_rejected(in_tmp, capsys, how):
    (in_tmp / "banana.cfg").write_text("banana = 1\n")
    extra = ["--banana", "1"] if how == "flag" else ["--config", "banana.cfg"]
    assert run(TRAIN_TASK + extra) == 1
    assert "does not read --banana" in capsys.readouterr().err
    assert not os.path.exists("model.ckpt")


@pytest.fixture
def tiny_ckpts(in_tmp, tiny_model, tiny_encdec):
    """lm.ckpt (unconditional) and mt.ckpt (encoder-decoder), both v=8 N=8
    over the char vocabulary a..f, plus a source file, a corpus and a config
    file."""
    for name, model in (("lm.ckpt", tiny_model), ("mt.ckpt", tiny_encdec)):
        save_checkpoint(model, name)
        Vocab(list("abcdef"), kind="char").save(name + ".vocab")
    (in_tmp / "src.txt").write_text("abc\nfed\ncab\n")
    (in_tmp / "corpus.txt").write_text("abcdef\nfedcba\n")
    (in_tmp / "temps.cfg").write_text("temps = 0.9\n")
    return in_tmp


@pytest.mark.parametrize("argv, unread", [
    ("sample --checkpoint lm.ckpt --steps 1 --temps 0.9", "temps"),
    ("sample --checkpoint lm.ckpt --steps 1 --config temps.cfg", "temps"),
    ("translate --checkpoint mt.ckpt --input src.txt --steps 1 --count 2", "count"),
    ("inpaint --checkpoint lm.ckpt --template a*b --steps 1 --count 2", "count"),
    ("eval --checkpoint mt.ckpt --task copy --v_task 6 --len_min 2 --len_max 6 --count 2 "
     "--steps 1 --temps 0.5", "temps"),
    ("bench --checkpoint lm.ckpt --steps 1 --count 2 --model.layers 3", "model.layers"),
    ("ablate --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --sampler.T 1 --checkpoint lm.ckpt",
     "checkpoint"),
    ("sample --checkpoint lm.ckpt --steps 1 --sampler.rerank_width 2", "sampler.rerank_width"),
    ("inpaint --checkpoint lm.ckpt --template a*b --steps 1 --sampler.rerank_width 2",
     "sampler.rerank_width"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2 --steps 1 "
     "--sampler.rerank_width 2", "sampler.rerank_width"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2 --steps 1 "
     "--sampler.temperature 0.5", "sampler.temperature"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2 --steps 1 "
     "--sampler.seed 3", "sampler.seed"),
    ("ablate --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --sampler.T 1 --train.unroll_terms 1",
     "train.unroll_terms"),
], ids=["sample-flag", "sample-config", "translate", "inpaint", "eval-task", "bench-checkpoint",
        "ablate", "sample-rerank", "inpaint-rerank", "eval-corpus-rerank",
        "eval-corpus-temperature", "eval-corpus-seed", "ablate-unroll-terms"])
def test_command_rejects_keys_it_does_not_read(tiny_ckpts, capsys, argv, unread):
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    err = capsys.readouterr().err
    assert f"error: snda {argv.split()[0]}" in err and f"does not read --{unread}" in err
    assert sorted(os.listdir(".")) == before


_EVAL_TASK = "eval --checkpoint mt.ckpt --task copy --count 2 --steps 1"


@pytest.mark.parametrize("argv, key", [
    ("sample --checkpoint lm.ckpt --steps 1 --count 2.9", "count"),
    ("sample --checkpoint lm.ckpt --steps 3.7", "steps"),
    ("sample --checkpoint lm.ckpt --steps 1 --seed 0.5", "seed"),
    ("sample --checkpoint lm.ckpt --sampler.T true", "sampler.T"),
    ("bench --checkpoint lm.ckpt --steps 1,2.5 --count 2", "steps"),
    (_EVAL_TASK + " --v_task 6.5 --len_min 2 --len_max 6", "v_task"),
    (_EVAL_TASK + " --v_task 6 --len_min true --len_max 6", "len_min"),
    (_EVAL_TASK + " --v_task 6 --len_min 2 --len_max 6.5", "len_max"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count true --steps 1",
     "count"),
    ("train --corpus corpus.txt --model.N 8 --train.total_steps 2 --train.batch_size 4 "
     "--log_every 2.5", "log_every"),
    ("train --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --seed true", "seed"),
], ids=["count", "steps", "seed", "sampler-T-bool", "bench-steps", "v_task", "len_min-bool",
        "len_max", "count-bool", "log_every", "seed-bool"])
def test_integer_settings_take_integers_only(tiny_ckpts, capsys, argv, key):
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    assert f"error: {key} must be an integer" in capsys.readouterr().err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("argv, key", [
    ("sample --checkpoint lm.ckpt --count 2 --steps 3 --sampler.temperature nan",
     "sampler.temperature"),
    ("sample --checkpoint lm.ckpt --count 2 --steps 3 --sampler.temperature inf",
     "sampler.temperature"),
    ("train --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --train.lr_peak nan", "train.lr_peak"),
    ("train --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --train.weight_decay -inf",
     "train.weight_decay"),
], ids=["temperature-nan", "temperature-inf", "lr_peak-nan", "weight_decay-inf"])
def test_float_settings_take_finite_numbers_only(tiny_ckpts, capsys, argv, key):
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    assert f"error: {key} must be a finite number" in capsys.readouterr().err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("value", ["no", "1"])
def test_bool_settings_take_booleans_only(tiny_ckpts, capsys, value):
    before = sorted(os.listdir("."))
    argv = f"sample --checkpoint lm.ckpt --steps 1 --sampler.early_stop {value} --out report.txt"
    assert run(argv.split()) == 1
    assert "error: sampler.early_stop must be true or false" in capsys.readouterr().err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("temps", ["0.5,nan", "a,b", "0.5,inf", "true"])
def test_temps_take_finite_numbers_only(tiny_ckpts, capsys, temps):
    before = sorted(os.listdir("."))
    argv = f"eval --checkpoint lm.ckpt --corpus corpus.txt --temps {temps} --count 2 --steps 1"
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    assert "error: temps must be a finite number" in capsys.readouterr().err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("temps", ["0,1", "-1", "1.5,0.2"])
def test_temps_out_of_rule_are_usage_errors(tiny_ckpts, capsys, temps):
    # junk.ckpt would fail if read: the temperatures are checked first
    (tiny_ckpts / "junk.ckpt").write_bytes(b"XXXXnothing")
    before = sorted(os.listdir("."))
    argv = f"eval --checkpoint junk.ckpt --corpus corpus.txt --temps {temps} --count 2 --steps 1"
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "error: temperatures must be nonempty, positive and ascending" in captured.err)
    assert sorted(os.listdir(".")) == before


def test_decoding_refuses_text_longer_than_the_model(tiny_ckpts, capsys):
    # both models hold N = N_source = 8 positions
    argv = "inpaint --checkpoint lm.ckpt --steps 1 --template " + "a*" * 5
    assert run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--template has 10 tokens; the model's N is 8" in captured.err
    (tiny_ckpts / "long.txt").write_text("abc\n\nabcdefabc\n")
    assert run("translate --checkpoint mt.ckpt --input long.txt --steps 1".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "--input line 3 has 9 tokens; the model's N_source is 8" in captured.err)
    # a template of exactly N positions fills all of them
    assert run("inpaint --checkpoint lm.ckpt --steps 1 --template a*a*a*a*".split()) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert len(line) == 8 and line[::2] == "aaaa"


@pytest.mark.parametrize("dtype", ["float16", "banana", "int32"])
def test_train_rejects_dtype_the_tape_cannot_hold(in_tmp, capsys, dtype):
    assert run(TRAIN_TASK + ["--model.dtype", dtype]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "dtype" in err
    assert os.listdir(".") == []


@pytest.mark.parametrize("argv, least", [
    ("sample --checkpoint lm.ckpt --steps 1 --count 0", 1),
    ("sample --checkpoint lm.ckpt --steps 1 --count -2", 1),
    (_EVAL_TASK.replace("--count 2", "--count 0") + " --v_task 6 --len_min 2 --len_max 6", 1),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 1 --steps 1", 2),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 0 --steps 1", 2),
    ("bench --checkpoint lm.ckpt --steps 1 --count 0", 1),
    ("bench --steps 1 --count -1 --model.N 8 --model.v 8", 1),
], ids=["sample-0", "sample-negative", "eval-task-0", "eval-corpus-1", "eval-corpus-0",
        "bench-checkpoint-0", "bench-negative"])
def test_count_below_its_least_is_a_usage_error(tiny_ckpts, capsys, argv, least):
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: count must be >= {least}" in captured.err
    assert sorted(os.listdir(".")) == before


_TRAIN_TINY = "--model.N 8 --train.total_steps 2 --train.batch_size 4"
_COPY_TASK = "--task copy --v_task 6 --len_min 2 --len_max 6"


@pytest.mark.parametrize("argv, key", [
    ("sample --checkpoint junk.ckpt --steps 1 --seed -1", "seed"),
    ("sample --checkpoint junk.ckpt --steps 1 --sampler.seed -1", "sampler.seed"),
    ("translate --checkpoint junk.ckpt --input src.txt --steps 1 --seed -1", "seed"),
    ("inpaint --checkpoint junk.ckpt --template a*b --steps 1 --sampler.seed -3",
     "sampler.seed"),
    ("eval --checkpoint junk.ckpt --corpus corpus.txt --temps 0.9 --count 2 --steps 1 "
     "--seed -5", "seed"),
    (f"eval --checkpoint junk.ckpt {_COPY_TASK} --count 2 --steps 1 --sampler.seed -1",
     "sampler.seed"),
    (f"train --corpus missing.txt {_TRAIN_TINY} --seed -2", "seed"),
    (f"train {_COPY_TASK} {_TRAIN_TINY} --seed -2", "seed"),
    ("bench --checkpoint junk.ckpt --steps 1 --count 2 --seed -1", "seed"),
    ("bench --steps 1 --count 2 --model.N 8 --model.v 8 --seed -1", "seed"),
    (f"ablate {_COPY_TASK} {_TRAIN_TINY} --sampler.T 1 --seed -1", "seed"),
    (f"ablate {_COPY_TASK} {_TRAIN_TINY} --sampler.T 1 --sampler.seed -1", "sampler.seed"),
], ids=["sample", "sample-sampler-seed", "translate", "inpaint", "eval-corpus", "eval-task",
        "train-corpus", "train-task", "bench-checkpoint", "bench", "ablate",
        "ablate-sampler-seed"])
def test_negative_seed_is_a_usage_error(tiny_ckpts, capsys, argv, key):
    # junk.ckpt and missing.txt would fail if read: the seed is checked first
    (tiny_ckpts / "junk.ckpt").write_bytes(b"XXXXnothing")
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {key} must be >= 0, got -" in captured.err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("argv, keys", [
    ("sample --checkpoint lm.ckpt --steps 2 --sampler.T 3", ("--steps", "--sampler.T")),
    ("sample --checkpoint lm.ckpt --steps 2 --seed 1 --sampler.seed 2",
     ("--seed", "--sampler.seed")),
    ("translate --checkpoint mt.ckpt --input src.txt --steps 2 --sampler.T 3",
     ("--steps", "--sampler.T")),
    ("translate --checkpoint mt.ckpt --input src.txt --seed 1 --sampler.seed 2",
     ("--seed", "--sampler.seed")),
    ("inpaint --checkpoint lm.ckpt --template a*b --steps 2 --sampler.T 3",
     ("--steps", "--sampler.T")),
    ("inpaint --checkpoint lm.ckpt --template a*b --seed 1 --sampler.seed 2",
     ("--seed", "--sampler.seed")),
    ("eval --checkpoint mt.ckpt --task copy --v_task 6 --len_min 2 --len_max 6 --count 2 "
     "--steps 2 --sampler.T 3", ("--steps", "--sampler.T")),
])
def test_decoding_rejects_two_keys_for_one_setting(tiny_ckpts, capsys, argv, keys):
    assert run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and all(key in captured.err for key in keys)


def test_eval_task_reads_seed_and_sampler_seed(tiny_ckpts, capsys):
    # --seed picks the held-out pairs there, --sampler.seed the chains
    assert run("eval --checkpoint mt.ckpt --task copy --v_task 6 --len_min 2 --len_max 6 "
               "--count 2 --steps 1 --seed 1 --sampler.seed 2".split()) == 0


def test_bench_rejects_encoder_decoder_checkpoint(tiny_ckpts, capsys):
    assert run(["bench", "--checkpoint", "mt.ckpt", "--steps", "1", "--count", "2"]) == 1
    assert "bench times unconditional decoding" in capsys.readouterr().err


def test_bench_passes_model_settings(in_tmp, capsys, monkeypatch):
    seen = []

    def bench_report(model, T_values, batch, seed):
        seen.append(model)
        return "", []

    monkeypatch.setattr(cli, "bench_report", bench_report)
    assert run(["bench", "--model.layers", "3", "--model.v", "8", "--model.N", "8",
                "--model.d_model", "32", "--steps", "2"]) == 0
    assert (seen[0].config.layers, seen[0].config.d_model, seen[0].config.v) == (3, 32, 8)
    assert run(["bench", "--model.mode", "encoder_decoder"]) == 1
    assert len(seen) == 1


def test_sample_prints_draw_samples(tiny_ckpts, tiny_model, capsys):
    assert run(["sample", "--checkpoint", "lm.ckpt", "--count", "4", "--steps", "3",
                "--seed", "5"]) == 0
    vocab = Vocab.load("lm.ckpt.vocab")
    want = [decode(TokenSeq(ids, len(ids)), vocab) for ids in evaluation.draw_samples(
        tiny_model, SamplerConfig(T=3, seed=5), 4, 5)]
    assert capsys.readouterr().out.splitlines() == want


def test_translate_prints_evaluation_translate(tiny_ckpts, tiny_encdec, capsys):
    assert run(["translate", "--checkpoint", "mt.ckpt", "--input", "src.txt", "--steps", "3",
                "--seed", "5", "--sampler.rerank_width", "2"]) == 0
    vocab = Vocab.load("mt.ckpt.vocab")
    sources = [encode(text, vocab, 8) for text in ("abc", "fed", "cab")]
    bests = evaluation.translate(tiny_encdec, sources,
                                 SamplerConfig(T=3, seed=5, rerank_width=2))
    want = [decode(TokenSeq(best, len(evaluation.strip_pad(best))), vocab) for best in bests]
    assert capsys.readouterr().out.splitlines() == want


def test_translate_answers_a_blank_input_line_with_an_empty_line(tiny_ckpts, tiny_encdec, capsys):
    (tiny_ckpts / "gaps.txt").write_text("abc\n\nfed\n")
    assert run(["translate", "--checkpoint", "mt.ckpt", "--input", "gaps.txt", "--steps", "3",
                "--seed", "5"]) == 0
    vocab = Vocab.load("mt.ckpt.vocab")
    # the blank line takes no source index, so "fed" decodes as source 1
    bests = evaluation.translate(tiny_encdec, [encode(text, vocab, 8) for text in ("abc", "fed")],
                                 SamplerConfig(T=3, seed=5))
    first, second = [decode(TokenSeq(best, len(evaluation.strip_pad(best))), vocab)
                     for best in bests]
    assert capsys.readouterr().out.splitlines() == [first, "", second]


def _quick_start_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [ln for block in blocks for ln in block.splitlines() if ln.strip()]


# appended to the README's commands to keep the run short; only step counts
_FEWER_STEPS = {"train": ["--train.total_steps", "8"], "bench": ["--steps", "4"],
                "ablate": ["--train.total_steps", "4", "--sampler.T", "2"]}


def _shortened(argv: list[str]) -> list[str]:
    """argv with fewer steps: a decoding command's --steps value becomes 2
    (or --sampler.T 2 is added), other commands get _FEWER_STEPS."""
    if argv[0] in _FEWER_STEPS:
        return argv + _FEWER_STEPS[argv[0]]
    if "--steps" in argv:
        i = argv.index("--steps") + 1
        return argv[:i] + ["2"] + argv[i + 1:]
    return argv + ["--sampler.T", "2"]


def test_readme_quick_start_runs(in_tmp, capsys):
    src = str(Path(snda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = _quick_start_commands()
    assert sum(c.startswith("snda ") for c in commands) >= 10
    for command in commands:
        if command.startswith("snda "):
            assert run(_shortened(shlex.split(command)[1:])) == 0, command
        else:
            if command.startswith("python3 "):
                command = shlex.quote(sys.executable) + command[len("python3"):]
            subprocess.run(command, shell=True, check=True, cwd=in_tmp, env=env)
    assert len(open("lm.log").read().splitlines()) == 1  # 8 steps: the last line only
    assert os.path.exists("cipher.ckpt") and os.path.exists("lm.ckpt.vocab")
