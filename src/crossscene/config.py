"""Experiment configuration: JSON round-trip, presets, dotted overrides."""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .data import write_atomic

# ConfigError lives beside TrainConfig so that fit can raise it; callers import it from here
from .training import ConfigError, TrainConfig


@dataclass
class ExperimentConfig:
    source_bundle: str | None = None
    target_bundle: str | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be a nonempty list of distinct seeds >= 0, got {self.seeds}")


_MISMATCH = object()


def _coerce(tp, value):
    """``value`` as an instance of the annotation ``tp``, or ``_MISMATCH``.

    An int is accepted for a float and a list for a tuple; only true and
    false match a bool, and a bool matches nothing else.  A float must be
    finite: JSON parsers accept NaN and Infinity, which no setting means.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        for arg in args:
            out = _coerce(arg, value)
            if out is not _MISMATCH:
                return out
        return _MISMATCH
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return _MISMATCH
        item_types = args * len(value) if origin is list else args
        if len(item_types) != len(value):
            return _MISMATCH
        items = [_coerce(t, v) for t, v in zip(item_types, value)]
        return _MISMATCH if any(v is _MISMATCH for v in items) else origin(items)
    if tp is float:
        finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
        return float(value) if finite else _MISMATCH
    return value if type(value) is tp else _MISMATCH


def _build(cls, data, path=""):
    """Construct ``cls`` from JSON data, checking every value against its field.

    Nested dataclass fields recurse; a wrong type, and any ``ValueError`` the
    dataclass raises on construction, becomes a ``ConfigError`` naming the
    dotted key.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        tp = hints[key]
        if is_dataclass(tp):
            kwargs[key] = _build(tp, value, f"{path}{key}.")
            continue
        kwargs[key] = _coerce(tp, value)
        if kwargs[key] is _MISMATCH:
            name = (tp.__name__ if isinstance(tp, type) else str(tp)).replace("float", "finite float")
            raise ConfigError(f"{path}{key} must be {name}, got {json.dumps(value, default=repr)}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}{e}") from e


def config_from_dict(data):
    return _build(ExperimentConfig, data)


def load_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except ValueError as e:  # not JSON, or not UTF-8
        raise ConfigError(f"unparseable config {p}: {e}") from e
    return data


def save_config(cfg, path):
    write_atomic(path, json.dumps(asdict(cfg), indent=1, sort_keys=True) + "\n")


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
# pairs per scene family, and a synthetic configuration sized for desk-scale
# runs.  For the pavia preset the patch size ships as 9; the sensitivity
# sweep favored 11, one ``--set train.patch_size=11`` away.
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
        data["seeds"] = [seed]
    return config_from_dict(data)
