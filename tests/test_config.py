"""Config round-trip, presets, overrides, strict key checking."""

import inspect
import json
import re
import typing
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest

from crossscene.config import (ConfigError, ExperimentConfig, apply_overrides, config_from_dict,
                               resolve_config, save_config)
from crossscene.engine import lr_schedule, sgd_momentum_step


def test_defaults_round_trip(tmp_path):
    cfg = resolve_config()
    save_config(cfg, tmp_path / "c.json")
    again = resolve_config(config_path=tmp_path / "c.json")
    assert asdict(cfg) == asdict(again)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"train": {"epcohs": 10}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"bundles": "x"})


def test_overrides_dotted_paths():
    data = apply_overrides({}, ["train.epochs=3", "train.ablation.use_pseudo_head=false",
                                "seeds=[1,2]", "source_bundle=here"])
    assert data["train"]["epochs"] == 3
    assert data["train"]["ablation"]["use_pseudo_head"] is False
    assert data["seeds"] == [1, 2]
    assert data["source_bundle"] == "here"


def test_override_requires_equals():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["train.epochs"])


def test_presets_carry_dataset_defaults():
    houston = resolve_config(preset="houston")
    assert houston.train.patch_size == 15
    assert houston.train.loss_weights.lambda_lmmd == pytest.approx(0.2)
    assert houston.train.loss_weights.lambda_st == pytest.approx(0.2)
    hyrank = resolve_config(preset="hyrank")
    assert hyrank.train.patch_size == 7
    assert (hyrank.train.loss_weights.lambda_lmmd,
            hyrank.train.loss_weights.lambda_st) == (0.6, 0.4)
    pavia = resolve_config(preset="pavia")
    assert pavia.train.patch_size == 9
    assert (pavia.train.loss_weights.lambda_lmmd,
            pavia.train.loss_weights.lambda_st) == (1.0, 0.8)
    assert len(pavia.seeds) == 5


def test_shared_optimizer_defaults():
    cfg = resolve_config()
    t = cfg.train
    assert (t.epochs, t.batch, t.lr0) == (200, 100, 0.01)
    # the schedule's decay and the SGD settings are the functions' defaults
    assert lr_schedule(1.0, 0.01) == 0.01 / 11 ** 0.75
    sgd = inspect.signature(sgd_momentum_step).parameters
    assert (sgd["momentum"].default, sgd["weight_decay"].default) == (0.9, 1e-4)
    assert t.loss_weights.tau == 0.95
    assert (t.loss_weights.lambda_lmmd, t.loss_weights.lambda_st) == (1.0, 1.0)


def test_seed_flag_overrides_seed_list():
    cfg = resolve_config(preset="pavia", seed=77)
    assert cfg.seeds == [77]


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        resolve_config(overrides=["train.loss_weights.tau=1.5"])
    with pytest.raises(ConfigError):
        resolve_config(overrides=["seeds=[]"])
    with pytest.raises(ConfigError):
        resolve_config(overrides=["train.attention.variant=z"])


def test_values_take_their_field_types():
    cfg = resolve_config(overrides=["train.lr0=1", "train.unit_channels=[16,32,16]"])
    assert type(cfg.train.lr0) is float and cfg.train.unit_channels == (16, 32, 16)
    for bad, key in [({"train": {"epochs": "5"}}, "train.epochs"),
                     ({"train": {"epochs": 5.0}}, "train.epochs"),
                     ({"train": {"ablation": {"use_attention": 1}}}, "train.ablation.use_attention"),
                     ({"seeds": [True]}, "seeds")]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(bad)


def test_readme_config_examples_resolve():
    """Every ```json block in README.md is a config the loader accepts."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        config_from_dict(json.loads(block))


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(config_path="/nonexistent/path.json")


def test_unparseable_config_file(tmp_path):
    p = tmp_path / "bad.json"
    for payload in (b"{not json", b"\xff{}"):  # the second is no UTF-8
        p.write_bytes(payload)
        with pytest.raises(ConfigError, match="unparseable"):
            resolve_config(config_path=p)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        resolve_config(preset="mars")


def _leaves(cls, prefix=""):
    """Dotted names of every non-dataclass field under ``cls``, in field order."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        tp = hints[f.name]
        out += _leaves(tp, f"{prefix}{f.name}.") if is_dataclass(tp) else [prefix + f.name]
    return out


LEAVES = _leaves(ExperimentConfig)

# The whole config surface.  A new knob is added here in the same change, and
# that change names the preset, ablation grid, demo, acceptance criterion or
# benchmark workload that sets it.
PINNED_LEAVES = (
    "source_bundle", "target_bundle", "seeds",
    "train.epochs", "train.batch", "train.lr0", "train.patch_size", "train.unit_channels",
    "train.normalization",
    "train.ablation.use_attention", "train.ablation.use_pseudo_head",
    "train.attention.variant",
    "train.loss_weights.lambda_lmmd", "train.loss_weights.lambda_st", "train.loss_weights.tau",
)

# --set values: non-finite, huge, subnormal, negative and zero numbers, and
# each JSON type a field might not expect
HOSTILE_VALUES = ("NaN", "Infinity", "-Infinity", "1e308", "-1e308", "1e-320", "1e9", "-1", "0",
                  "true", '"x"', "[]", "{}", "[[1]]", "null", "[1,2,3]", "1.5", '""')


def test_config_surface_is_pinned():
    assert tuple(LEAVES) == PINNED_LEAVES


@pytest.mark.parametrize("leaf", LEAVES)
def test_hostile_value_is_accepted_or_a_config_error(leaf):
    for value in HOSTILE_VALUES:
        try:
            resolve_config("synth", overrides=[f"{leaf}={value}"])
        except ConfigError:
            pass
        except Exception as e:  # anything else would reach the user as a traceback
            pytest.fail(f"{leaf}={value} raised {type(e).__name__}: {e}")
