"""Config files, dotted keys, overrides."""

import pytest

from snda.config import ConfigError, RunConfig, parse_config_file, set_key


def test_set_key_sections_and_types():
    cfg = RunConfig()
    set_key(cfg, "model.layers", "3")
    set_key(cfg, "train.lr_peak", "2e-3")
    set_key(cfg, "sampler.early_stop", "false")
    set_key(cfg, "task", "copy")
    assert cfg.model["layers"] == 3
    assert cfg.train["lr_peak"] == pytest.approx(2e-3)
    assert cfg.sampler["early_stop"] is False
    assert cfg.get("task") == "copy"


def test_integer_fields_take_integers_only():
    cfg = RunConfig()
    set_key(cfg, "train.total_steps", "2.0")
    set_key(cfg, "sampler.T", "4")
    assert cfg.train["total_steps"] == 2 and isinstance(cfg.train["total_steps"], int)
    with pytest.raises(ConfigError):
        set_key(cfg, "model.layers", "2.5")
    with pytest.raises(ConfigError):
        set_key(cfg, "train.ckpt_average_window", "ten")
    with pytest.raises(ConfigError, match="sampler.T"):
        set_key(cfg, "sampler.T", "true")


def test_unknown_keys_rejected():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        set_key(cfg, "model.width", "4")
    with pytest.raises(ConfigError):
        set_key(cfg, "optimizer.lr", "1")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "task = copy\n"
        "seed = 7        # trailing comment\n"
        "model.N = 16\n"
        "\n"
        "sampler.temperature = 0.3\n")
    cfg = parse_config_file(str(path))
    assert cfg.get("task") == "copy"
    assert cfg.get("seed") == 7
    assert cfg.model["N"] == 16
    assert cfg.sampler["temperature"] == pytest.approx(0.3)


def test_parse_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))

