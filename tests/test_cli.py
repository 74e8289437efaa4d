"""End-to-end CLI runs on tiny budgets via run(argv)."""

import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import snda
from snda import cli, config, evaluation
from snda.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
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
                "--sampler.T", "2", "--sampler.seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3


def test_inpaint_preserves_clamped_positions(corpus_ckpt, capsys):
    code = run(["inpaint", "--checkpoint", "lm.ckpt", "--template", "a*a*",
                "--sampler.T", "2", "--sampler.seed", "0"])
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
                "--input", "src.txt", "--sampler.T", "2", "--sampler.seed", "0"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_eval_task_exact_match(in_tmp, capsys):
    run(TRAIN_TASK + ["--checkpoint", "me.ckpt"])
    capsys.readouterr()
    code = run(["eval", "--checkpoint", "me.ckpt", "--task", "copy",
                "--len_min", "2", "--len_max", "6",
                "--count", "5", "--sampler.T", "2", "--sampler.seed", "0"])
    assert code == 0
    assert "metric=exact_match" in capsys.readouterr().out


def test_eval_corpus_quality_diversity(corpus_ckpt, capsys):
    code = run(["eval", "--checkpoint", "lm.ckpt", "--corpus", "corpus.txt",
                "--temps", "0.5,1.0", "--count", "4", "--sampler.T", "2",
                "--sampler.seed", "0"])
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
    # each checkpoint records the steps its run trained
    assert read_checkpoint("deep.ckpt").step == 30
    assert read_checkpoint("lm.ckpt").step == 4


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
    ("sample --checkpoint lm.ckpt --sampler.T 1 --temps 0.9", "temps"),
    ("sample --checkpoint lm.ckpt --sampler.T 1 --config temps.cfg", "temps"),
    ("translate --checkpoint mt.ckpt --input src.txt --sampler.T 1 --count 2", "count"),
    ("inpaint --checkpoint lm.ckpt --template a*b --sampler.T 1 --count 2", "count"),
    ("eval --checkpoint mt.ckpt --task copy --len_min 2 --len_max 6 --count 2 "
     "--sampler.T 1 --temps 0.5", "temps"),
    ("bench --checkpoint lm.ckpt --steps 1 --count 2 --model.layers 3", "model.layers"),
    ("ablate --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --sampler.T 1 --checkpoint lm.ckpt",
     "checkpoint"),
    ("sample --checkpoint lm.ckpt --sampler.T 1 --sampler.rerank_width 2",
     "sampler.rerank_width"),
    ("inpaint --checkpoint lm.ckpt --template a*b --sampler.T 1 --sampler.rerank_width 2",
     "sampler.rerank_width"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2 --sampler.T 1 "
     "--sampler.rerank_width 2", "sampler.rerank_width"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2 --sampler.T 1 "
     "--sampler.temperature 0.5", "sampler.temperature"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2 --sampler.T 1 "
     "--seed 3", "seed"),
    ("ablate --task copy --v_task 6 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4 --sampler.T 1 --train.unroll_terms 1",
     "train.unroll_terms"),
    # the checkpoint holds the task's seed and v_task; chains read --sampler.* only
    ("eval --checkpoint mt.ckpt --task copy --count 2 --seed 5", "seed"),
    ("eval --checkpoint mt.ckpt --task copy --count 2 --v_task 6", "v_task"),
    ("sample --checkpoint lm.ckpt --steps 2", "steps"),
    ("sample --checkpoint lm.ckpt --seed 0", "seed"),
], ids=["sample-flag", "sample-config", "translate", "inpaint", "eval-task", "bench-checkpoint",
        "ablate", "sample-rerank", "inpaint-rerank", "eval-corpus-rerank",
        "eval-corpus-temperature", "eval-corpus-seed", "ablate-unroll-terms", "eval-task-seed",
        "eval-task-v_task", "sample-steps", "sample-seed"])
def test_command_rejects_keys_it_does_not_read(tiny_ckpts, capsys, argv, unread):
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    err = capsys.readouterr().err
    assert f"error: snda {argv.split()[0]}" in err and f"does not read --{unread}" in err
    assert sorted(os.listdir(".")) == before


_EVAL_TASK = "eval --checkpoint mt.ckpt --task copy --count 2 --sampler.T 1"


@pytest.mark.parametrize("argv, key", [
    ("sample --checkpoint lm.ckpt --sampler.T 1 --count 2.9", "count"),
    ("sample --checkpoint lm.ckpt --sampler.T 3.7", "sampler.T"),
    ("sample --checkpoint lm.ckpt --sampler.T 1 --sampler.seed 0.5", "sampler.seed"),
    ("sample --checkpoint lm.ckpt --sampler.T true", "sampler.T"),
    ("bench --checkpoint lm.ckpt --steps 1,2.5 --count 2", "steps"),
    ("train --task copy --v_task 6.5 --len_min 2 --len_max 6 --model.N 8 "
     "--train.total_steps 2 --train.batch_size 4", "v_task"),
    (_EVAL_TASK + " --len_min true --len_max 6", "len_min"),
    (_EVAL_TASK + " --len_min 2 --len_max 6.5", "len_max"),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count true --sampler.T 1",
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
    ("sample --checkpoint lm.ckpt --count 2 --sampler.T 3 --sampler.temperature nan",
     "sampler.temperature"),
    ("sample --checkpoint lm.ckpt --count 2 --sampler.T 3 --sampler.temperature inf",
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
    argv = f"sample --checkpoint lm.ckpt --sampler.T 1 --sampler.early_stop {value} --out report.txt"
    assert run(argv.split()) == 1
    assert "error: sampler.early_stop must be true or false" in capsys.readouterr().err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("temps", ["0.5,nan", "a,b", "0.5,inf", "true"])
def test_temps_take_finite_numbers_only(tiny_ckpts, capsys, temps):
    before = sorted(os.listdir("."))
    argv = f"eval --checkpoint lm.ckpt --corpus corpus.txt --temps {temps} --count 2 --sampler.T 1"
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    assert "error: temps must be a finite number" in capsys.readouterr().err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("temps", ["0,1", "-1", "1.5,0.2"])
def test_temps_out_of_rule_are_usage_errors(tiny_ckpts, capsys, temps):
    # junk.ckpt would fail if read: the temperatures are checked first
    (tiny_ckpts / "junk.ckpt").write_bytes(b"XXXXnothing")
    before = sorted(os.listdir("."))
    argv = f"eval --checkpoint junk.ckpt --corpus corpus.txt --temps {temps} --count 2 --sampler.T 1"
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "error: temperatures must be nonempty, positive and ascending" in captured.err)
    assert sorted(os.listdir(".")) == before


def test_decoding_refuses_text_longer_than_the_model(tiny_ckpts, capsys):
    # both models hold N = N_source = 8 positions
    argv = "inpaint --checkpoint lm.ckpt --sampler.T 1 --template " + "a*" * 5
    assert run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--template has 10 tokens; the model's N is 8" in captured.err
    (tiny_ckpts / "long.txt").write_text("abc\n\nabcdefabc\n")
    assert run("translate --checkpoint mt.ckpt --input long.txt --sampler.T 1".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "--input line 3 has 9 tokens; the model's N_source is 8" in captured.err)
    # a template of exactly N positions fills all of them
    assert run("inpaint --checkpoint lm.ckpt --sampler.T 1 --template a*a*a*a*".split()) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert len(line) == 8 and line[::2] == "aaaa"


def test_decoding_refuses_tokens_outside_the_vocabulary(tiny_ckpts, capsys, monkeypatch):
    # the vocabulary is a..f: any other token would decode as <unk>, an id no
    # training batch held
    decodes = []
    monkeypatch.setattr(cli, "sample_chain", lambda *a, **k: decodes.append(a))
    monkeypatch.setattr(cli, "translate", lambda *a, **k: decodes.append(a))
    assert run("inpaint --checkpoint lm.ckpt --sampler.T 1 --template a*zQ".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "error: --template token 3: 'z' is not in the vocabulary" in captured.err)
    (tiny_ckpts / "odd.txt").write_text("abc\n\nabz\n")
    assert run("translate --checkpoint mt.ckpt --input odd.txt --sampler.T 1".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "error: --input line 3, token 3: 'z' is not in the vocabulary" in captured.err)
    assert decodes == []


def test_train_corpus_refuses_tokens_outside_its_vocabulary(in_tmp, capsys):
    # with --vocab a..c, the z of line 3 would train as <unk>
    Vocab(list("abc"), kind="char").save("abc.vocab")
    (in_tmp / "odd.txt").write_text("abc\n\nzzzab\n")
    argv = f"train --corpus odd.txt {_TRAIN_TINY} --checkpoint m.ckpt".split()
    before = sorted(os.listdir("."))
    assert run(argv + ["--vocab", "abc.vocab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        "error: --corpus line 3, token 1: 'z' is not in the vocabulary" in captured.err)
    assert sorted(os.listdir(".")) == before
    # without --vocab the vocabulary is the corpus's own
    assert run(argv) == 0
    assert Vocab.load("m.ckpt.vocab").size == 6


@pytest.mark.parametrize("dtype", ["float16", "banana", "int32"])
def test_train_rejects_dtype_the_tape_cannot_hold(in_tmp, capsys, dtype):
    assert run(TRAIN_TASK + ["--model.dtype", dtype]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: model.dtype must be float32 or float64, got {dtype!r}")
    assert os.listdir(".") == []


@pytest.mark.parametrize("argv, least", [
    ("sample --checkpoint lm.ckpt --sampler.T 1 --count 0", 1),
    ("sample --checkpoint lm.ckpt --sampler.T 1 --count -2", 1),
    (_EVAL_TASK.replace("--count 2", "--count 0") + " --len_min 2 --len_max 6", 1),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 1 --sampler.T 1", 2),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 0 --sampler.T 1", 2),
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
    ("sample --checkpoint junk.ckpt --sampler.seed -1", "sampler.seed"),
    ("sample --checkpoint junk.ckpt --sampler.T 1 --sampler.seed -1", "sampler.seed"),
    ("translate --checkpoint junk.ckpt --input src.txt --sampler.T 1 --sampler.seed -1",
     "sampler.seed"),
    ("inpaint --checkpoint junk.ckpt --template a*b --sampler.T 1 --sampler.seed -3",
     "sampler.seed"),
    ("eval --checkpoint junk.ckpt --corpus corpus.txt --temps 0.9 --count 2 --sampler.T 1 "
     "--sampler.seed -5", "sampler.seed"),
    ("eval --checkpoint junk.ckpt --task copy --len_min 2 --len_max 6 --count 2 --sampler.T 1 "
     "--sampler.seed -1", "sampler.seed"),
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


@pytest.mark.parametrize("argv, message", [
    ("sample --checkpoint junk.ckpt --sampler.temperature -1",
     "sampler.temperature must be positive"),
    ("translate --checkpoint junk.ckpt --input src.txt --sampler.T -1", "sampler.T must be >= 0"),
    ("eval --checkpoint junk.ckpt --task copy --count 2 --sampler.rerank_width 0",
     "sampler.rerank_width must be >= 1"),
    ("inpaint --checkpoint junk.ckpt --template a*b --sampler.strategy banana",
     "unknown strategy: banana"),
    (f"ablate {_COPY_TASK} {_TRAIN_TINY} --sampler.T -1", "sampler.T must be >= 0"),
    ("sample --checkpoint junk.ckpt --sampler.schedule triangular --sampler.update_fraction 5",
     "sampler.update_fraction must be in (0, 1], got 5"),
    ("bench --checkpoint junk.ckpt --steps 0 --count 2", "steps must be >= 1, got 0"),
    ("bench --steps 4,-1 --count 2 --model.N 8 --model.v 8", "steps must be >= 1, got -1"),
    # settings the strategy or schedule does not read
    ("sample --checkpoint junk.ckpt --sampler.strategy argmax_unrolled --sampler.temperature 0.5",
     "--sampler.temperature is not read under sampler.strategy argmax_unrolled"),
    ("eval --checkpoint junk.ckpt --corpus corpus.txt --temps 0.9 --count 2 "
     "--sampler.strategy argmax_unrolled", "--temps is not read under sampler.strategy argmax"),
    ("translate --checkpoint junk.ckpt --input src.txt --sampler.strategy argmax_unrolled "
     "--sampler.update_fraction 0.3",
     "sampler.update_fraction is not read under strategy argmax_unrolled, got 0.3"),
    ("inpaint --checkpoint junk.ckpt --template a*b --sampler.schedule triangular "
     "--sampler.update_fraction 0.3",
     "sampler.update_fraction is not read under schedule triangular, got 0.3"),
    (f"ablate {_COPY_TASK} {_TRAIN_TINY} --sampler.uncertain_share 0.1",
     "sampler.uncertain_share is not read under strategy low_temp, got 0.1"),
], ids=["sample-temperature", "translate-T", "eval-task-rerank", "inpaint-strategy", "ablate-T",
        "sample-triangular-update-fraction", "bench-checkpoint-steps", "bench-steps",
        "sample-argmax-temperature", "eval-corpus-argmax", "translate-argmax-update-fraction",
        "inpaint-triangular-update-fraction", "ablate-low-temp-uncertain-share"])
def test_out_of_range_values_are_usage_errors(tiny_ckpts, capsys, argv, message):
    # junk.ckpt would fail if read, and no model is built: the values are checked first
    (tiny_ckpts / "junk.ckpt").write_bytes(b"XXXXnothing")
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    assert sorted(os.listdir(".")) == before


@pytest.mark.parametrize("argv, message", [
    ("train --corpus corpus.txt --model.d_model 0 --checkpoint m.ckpt",
     "model.d_model must be an integer >= 1, got 0"),
    (f"train --corpus corpus.txt {_TRAIN_TINY} --train.warmup_steps 3",
     "train.warmup_steps must not exceed total_steps"),
    (f"train {_COPY_TASK} --train.total_steps 2 --train.batch_size 0",
     "train.batch_size must be >= 1, got 0"),
    (f"train {_COPY_TASK} --model.N 8 --train.batch_size 4 --train.total_steps -3",
     "train.total_steps must be >= 1, got -3"),
    (f"train {_COPY_TASK} {_TRAIN_TINY} --train.warmup_steps -1",
     "train.warmup_steps must be >= 0, got -1"),
    (f"train {_COPY_TASK} {_TRAIN_TINY} --train.unroll_terms 0",
     "train.unroll_terms must be >= 1"),
    (f"train {_COPY_TASK} {_TRAIN_TINY} --train.lr_peak 0", "learning rates must be positive"),
    (f"train --corpus corpus.txt {_TRAIN_TINY} --train.ckpt_average_window -1",
     "train.ckpt_average_window must be >= 0, got -1"),
    (f"ablate {_COPY_TASK} {_TRAIN_TINY} --model.heads 3", "d_model must be divisible by heads"),
    (f"ablate {_COPY_TASK} {_TRAIN_TINY} --train.beta1 1", "train.beta1 and beta2 must be in"),
    ("bench --steps 1 --count 2 --model.N 8 --model.layers 0",
     "model.layers must be an integer >= 1, got 0"),
], ids=["train-corpus-model", "train-corpus-warmup", "train-task-batch", "train-task-steps",
        "train-task-negative-warmup", "train-task-unroll", "train-task-lr", "train-corpus-window", "ablate-model", "ablate-train", "bench-model"])
def test_model_and_train_values_are_usage_errors(tiny_ckpts, capsys, argv, message):
    # nothing is written or trained: the values are checked first
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--out", "report.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    assert sorted(os.listdir(".")) == before


def test_model_and_train_checks_refuse_nothing_the_trainer_takes():
    # warmup_steps defaults to min(100, total_steps // 2), and total_steps to the
    # trainer's own: 1200 for a task, 800 for a corpus
    for argv in ("train --task copy --train.total_steps 2",
                 "train --task copy --train.warmup_steps 1000",
                 "train --corpus c.txt --train.warmup_steps 800",
                 "ablate --train.warmup_steps 1000 --model.heads 8",
                 "bench --model.d_model 8 --model.heads 8 --model.N 3"):
        cli._parse_argv(argv.split())
    with pytest.raises(cli.ConfigError, match="train.warmup_steps must not exceed"):
        cli._parse_argv("train --corpus c.txt --train.warmup_steps 801".split())


@pytest.mark.parametrize("argv, vocab, size", [
    ("sample --checkpoint lm.ckpt", "small.vocab", 5),
    ("translate --checkpoint mt.ckpt --input src.txt", "big.vocab", 22),
    ("inpaint --checkpoint lm.ckpt --template a*b", "small.vocab", 5),
    ("eval --checkpoint lm.ckpt --corpus corpus.txt --temps 0.9 --count 2", "big.vocab", 22),
], ids=["sample", "translate", "inpaint", "eval-corpus"])
def test_vocabulary_of_the_wrong_size_is_a_usage_error(tiny_ckpts, capsys, argv, vocab, size):
    Vocab(list("abc"), kind="char").save("small.vocab")
    Vocab(list("abcdefghijklmnopqrst"), kind="char").save("big.vocab")
    assert run(argv.split() + ["--vocab", vocab, "--sampler.T", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and (
        f"error: vocabulary {vocab} has {size} tokens; the model's v is 8" in captured.err)


def test_eval_task_reads_its_task_from_the_checkpoint(tiny_ckpts, tiny_encdec, capsys,
                                                      monkeypatch):
    seen, real = [], cli.heldout_pairs

    def heldout_pairs(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "heldout_pairs", heldout_pairs)
    save_checkpoint(tiny_encdec, "mt5.ckpt", seed=5)
    assert run("eval --checkpoint mt5.ckpt --task reverse_cipher --len_min 2 --len_max 6 "
               "--count 3 --sampler.T 1".split()) == 0
    # v = v_task + 2: the pad and unk ids
    assert seen == [("reverse_cipher", 5, 3, (2, 6), 6, 8)]
    assert "metric=exact_match" in capsys.readouterr().out


def test_train_task_records_its_task(in_tmp, capsys):
    assert run(TRAIN_TASK + ["--checkpoint", "m.ckpt"]) == 0
    assert read_checkpoint("m.ckpt").task == ("copy", (2, 6))


@pytest.mark.parametrize("flags, error", [
    ("--task copy", "--task copy disagrees with mt5.ckpt, trained with --task reverse_cipher"),
    ("--task reverse_cipher --len_min 3", "--len_min 3 disagrees with mt5.ckpt, "
                                          "trained with --len_min 2"),
    ("--task reverse_cipher --len_min 2 --len_max 14", "--len_max 14 disagrees with "
                                                       "mt5.ckpt, trained with --len_max 6"),
], ids=["task", "len_min", "len_max"])
def test_eval_task_flags_must_repeat_the_recorded_task(tiny_ckpts, tiny_encdec, capsys,
                                                       flags, error):
    save_checkpoint(tiny_encdec, "mt5.ckpt", seed=5, task=("reverse_cipher", (2, 6)))
    assert run(f"eval --checkpoint mt5.ckpt {flags} --count 3 --sampler.T 1".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {error}\n" in captured.err


def test_eval_task_takes_its_length_range_from_the_record(tiny_ckpts, tiny_encdec, capsys,
                                                          monkeypatch):
    seen, real = [], cli.heldout_pairs
    monkeypatch.setattr(cli, "heldout_pairs", lambda *args: seen.append(args) or real(*args))
    save_checkpoint(tiny_encdec, "mt5.ckpt", seed=5, task=("reverse_cipher", (2, 6)))
    for flags in ("", " --len_min 2", " --len_min 2 --len_max 6"):
        assert run(f"eval --checkpoint mt5.ckpt --task reverse_cipher{flags} --count 3 "
                   "--sampler.T 1".split()) == 0
    assert seen == [("reverse_cipher", 5, 3, (2, 6), 6, 8)] * 3
    # without a record the flags hold as they are
    assert run("eval --checkpoint mt.ckpt --task copy --len_min 2 --len_max 5 --count 3 "
               "--sampler.T 1".split()) == 0
    assert seen[-1] == ("copy", 0, 3, (2, 5), 6, 8)


@pytest.mark.parametrize("argv, ckpt, mode", [
    ("sample --count 2", "mt.ckpt", "encoder_decoder"),
    ("inpaint --template a*b", "mt.ckpt", "encoder_decoder"),
    ("eval --corpus missing.txt --temps 0.9 --count 2", "mt.ckpt", "encoder_decoder"),
    ("translate --input missing.txt", "lm.ckpt", "unconditional"),
    ("eval --task copy --count 2", "lm.ckpt", "unconditional"),
], ids=["sample", "inpaint", "eval-corpus", "translate", "eval-task"])
def test_checkpoint_of_the_wrong_mode_is_a_usage_error(tiny_ckpts, capsys, argv, ckpt, mode):
    # the vocabulary, corpus and input named here do not exist: the mode is
    # checked before any of them is read
    vocab = [] if "--task" in argv else ["--vocab", "missing.vocab"]
    before = sorted(os.listdir("."))
    assert run(argv.split() + ["--checkpoint", ckpt, "--sampler.T", "1", "--out", "report.txt"]
               + vocab) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"; {ckpt} holds an {mode} model" in captured.err
    assert sorted(os.listdir(".")) == before


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
    assert run(["sample", "--checkpoint", "lm.ckpt", "--count", "4", "--sampler.T", "3",
                "--sampler.seed", "5"]) == 0
    vocab = Vocab.load("lm.ckpt.vocab")
    want = [decode(TokenSeq(ids, len(ids)), vocab) for ids in evaluation.draw_samples(
        tiny_model, SamplerConfig(T=3, seed=5), 4, 5)]
    assert capsys.readouterr().out.splitlines() == want


def test_translate_prints_evaluation_translate(tiny_ckpts, tiny_encdec, capsys):
    assert run(["translate", "--checkpoint", "mt.ckpt", "--input", "src.txt", "--sampler.T", "3",
                "--sampler.seed", "5", "--sampler.rerank_width", "2"]) == 0
    vocab = Vocab.load("mt.ckpt.vocab")
    sources = [encode(text, vocab, 8) for text in ("abc", "fed", "cab")]
    bests = evaluation.translate(tiny_encdec, sources,
                                 SamplerConfig(T=3, seed=5, rerank_width=2))
    want = [decode(TokenSeq(best, len(evaluation.strip_pad(best))), vocab) for best in bests]
    assert capsys.readouterr().out.splitlines() == want


def test_translate_answers_a_blank_input_line_with_an_empty_line(tiny_ckpts, tiny_encdec, capsys):
    (tiny_ckpts / "gaps.txt").write_text("abc\n\nfed\n")
    assert run(["translate", "--checkpoint", "mt.ckpt", "--input", "gaps.txt", "--sampler.T", "3",
                "--sampler.seed", "5"]) == 0
    vocab = Vocab.load("mt.ckpt.vocab")
    # the blank line takes no source index, so "fed" decodes as source 1
    bests = evaluation.translate(tiny_encdec, [encode(text, vocab, 8) for text in ("abc", "fed")],
                                 SamplerConfig(T=3, seed=5))
    first, second = [decode(TokenSeq(best, len(evaluation.strip_pad(best))), vocab)
                     for best in bests]
    assert capsys.readouterr().out.splitlines() == [first, "", second]


def _flags(text: str) -> set[str]:
    """The --flags that text names, outside pip lines and the --key placeholder."""
    return {flag.rstrip(".") for line in text.splitlines()
            if not line.lstrip().startswith("pip ")
            for flag in re.findall(r"--([\w.*]+)", line)} - {"key"}


def _flags_a_command_reads() -> set[str]:
    read = {"config"}   # every command reads a --config file
    for b in cli.COMMANDS:
        read.update(b.keys)
        for section in b.sections:
            names = {f"{section}.{f.name}" for f in fields(config._SECTIONS[section])}
            read.update(names - set(b.unread), {f"{section}.*"})
    return read


def test_readme_names_only_flags_a_command_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = _flags(readme)
    assert {"checkpoint", "template", "input", "train.*", "sampler.rerank_width"} <= named
    assert named - _flags_a_command_reads() == set()
    # a flag no command reads, or a field of a section that none reads, is caught
    planted = readme + "\n`--banana 1` and `--bench.steps 2`.\n"
    assert _flags(planted) - _flags_a_command_reads() == {"banana", "bench.steps"}


def _quick_start_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [ln for block in blocks for ln in block.splitlines() if ln.strip()]


# appended to the README's commands to keep the run short; only step counts
_FEWER_STEPS = {"train": ["--train.total_steps", "8"], "bench": ["--steps", "4"],
                "ablate": ["--train.total_steps", "4", "--sampler.T", "2"]}


def _shortened(argv: list[str]) -> list[str]:
    """argv with fewer steps: a decoding command's --sampler.T value becomes 2
    (or --sampler.T 2 is added), other commands get _FEWER_STEPS."""
    if argv[0] in _FEWER_STEPS:
        return argv + _FEWER_STEPS[argv[0]]
    if "--sampler.T" in argv:
        i = argv.index("--sampler.T") + 1
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
