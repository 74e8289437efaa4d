"""Run configuration: flat `key = value` files plus `--key value` overrides.

Nested settings use dotted keys (model.layers, train.total_steps,
sampler.temperature), one per field of the section's config class.
Unknown section keys, non-integer values for integer settings, anything
but a finite number for float settings and anything but true or false for
boolean settings are rejected so typos fail loudly; `snda.cli` rejects
any top-level key that the command does not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .evaluation import curve_temperatures
from .model import ModelConfig
from .numerics import finite
from .sampling import SamplerConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """Bad config file or flag."""


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "sampler": SamplerConfig}


@dataclass
class RunConfig:
    """Flattened settings for one CLI invocation."""

    top: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.top.get(key, default)


def _convert(raw: str):
    text = raw.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def integer(key: str, value) -> int:
    """The setting `key` as an int; booleans and fractions are errors."""
    if isinstance(value, str):
        value = _convert(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def temperatures(key: str, value) -> list[float]:
    """The comma-separated setting `key` as a quality-diversity curve's temperatures."""
    try:
        return curve_temperatures(finite(key, _convert(part)) for part in str(value).split(","))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def set_key(cfg: RunConfig, key: str, raw_value: str):
    value = _convert(raw_value)
    if "." in key:
        section, sub = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section: {section!r}")
        types = {f.name: f.type for f in fields(_SECTIONS[section])}
        if sub not in types:
            raise ConfigError(f"unknown config key: {key!r}")
        if types[sub] in ("int", "int | None"):
            value = integer(key, value)
        elif types[sub] == "float":
            value = finite(key, value)
        elif types[sub] == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        getattr(cfg, section)[sub] = value
    else:
        cfg.top[key] = value


def parse_config_file(path: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = text.partition("=")
            set_key(cfg, key.strip(), value)
    return cfg
