"""Experiment configuration: JSON round-trip, presets, dotted overrides."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .discrepancy import KernelSpec
from .model import CenterAttentionConfig
# ConfigError lives beside TrainConfig so that fit can raise it; callers import it from here
from .training import Ablation, ConfigError, LossWeights, TrainConfig


@dataclass
class ExperimentConfig:
    source_bundle: str | None = None
    target_bundle: str | None = None
    seeds: list = field(default_factory=lambda: [0])
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        if not self.seeds:
            raise ConfigError("need at least one seed")
        try:
            self.train.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e


_NESTED = {
    TrainConfig: {
        "ablation": Ablation,
        "attention": CenterAttentionConfig,
        "kernel": KernelSpec,
        "loss_weights": LossWeights,
    },
    ExperimentConfig: {"train": TrainConfig},
}


def _build(cls, data, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {', '.join(unknown)}")
    nested = _NESTED.get(cls, {})
    kwargs = {}
    for key, value in data.items():
        if key in nested:
            kwargs[key] = _build(nested[key], value, f"{path}{key}.")
        else:
            kwargs[key] = value
    try:
        obj = cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad config value near {path or 'top level'}: {e}") from e
    if isinstance(obj, TrainConfig):
        obj.unit_channels = tuple(obj.unit_channels)
        obj.seed = int(obj.seed)
    return obj


def config_from_dict(data):
    cfg = _build(ExperimentConfig, data)
    cfg.seeds = [int(s) for s in cfg.seeds]
    return cfg


def config_to_dict(cfg):
    d = asdict(cfg)

    def listify(obj):
        if isinstance(obj, dict):
            return {k: listify(v) for k, v in obj.items()}
        if isinstance(obj, tuple):
            return [listify(v) for v in obj]
        if isinstance(obj, list):
            return [listify(v) for v in obj]
        return obj

    return listify(d)


def load_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"unparseable config {p}: {e}") from e
    return data


def save_config(cfg, path):
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=1, sort_keys=True) + "\n")


def deep_merge(base, extra):
    """Recursive dict merge; values in ``extra`` win."""
    out = dict(base)
    for k, v in extra.items():
        if k in out and isinstance(out[k], dict) and isinstance(v, dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def apply_overrides(data, overrides):
    """Apply repeatable ``--set dotted.key=value`` pairs onto a config dict.

    Values parse as JSON where possible (numbers, booleans, lists), falling
    back to the raw string.
    """
    out = json.loads(json.dumps(data))  # deep copy of plain JSON data
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-mapping value")
        node[parts[-1]] = value
    return out


# Named presets carrying the per-dataset defaults: patch size and loss-weight
# pairs per scene family, the shared optimizer settings, and a synthetic
# configuration sized for desk-scale runs.  For the pavia preset the patch
# size ships as 9; the sensitivity sweep favored 11, one
# ``--set train.patch_size=11`` away.
PRESETS = {
    "houston": {
        "train": {
            "patch_size": 15,
            "loss_weights": {"lambda_lmmd": 0.2, "lambda_st": 0.2},
        },
        "seeds": [0, 1, 2, 3, 4],
    },
    "hyrank": {
        "train": {
            "patch_size": 7,
            "loss_weights": {"lambda_lmmd": 0.6, "lambda_st": 0.4},
        },
        "seeds": [0, 1, 2, 3, 4],
    },
    "pavia": {
        "train": {
            "patch_size": 9,
            "loss_weights": {"lambda_lmmd": 1.0, "lambda_st": 0.8},
        },
        "seeds": [0, 1, 2, 3, 4],
    },
    "synth": {
        "train": {
            "patch_size": 5,
            "epochs": 30,
            "normalization": "none",
            "unit_channels": [16, 32, 16],
            "loss_weights": {"lambda_lmmd": 0.2, "lambda_st": 0.2},
        },
        "seeds": [0, 1, 2],
    },
}


def resolve_config(preset=None, config_path=None, overrides=None, seed=None):
    """Preset -> file -> --set overrides -> --seed, then strict construction."""
    data = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        data = deep_merge(data, PRESETS[preset])
    if config_path is not None:
        data = deep_merge(data, load_config(config_path))
    data = apply_overrides(data, overrides)
    if seed is not None:
        data["seeds"] = [int(seed)]
    cfg = config_from_dict(data)
    cfg.validate()
    return cfg
