"""End-to-end command-line interface: subcommands, artifacts, exit codes."""

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import crossscene
from crossscene import cli, evaluate, training
from crossscene.cli import build_parser, main, set_allocator_policy
from crossscene.config import resolve_config, save_config
from crossscene.data import load_scene
from crossscene.engine import NumericError
from crossscene.evaluate import evaluate_scene
from crossscene.training import fit


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(d / "data"), "--classes", "3", "--bands", "8",
               "--grid", "3", "--blob", "5", "--seed", "7"])
    assert rc == 0
    return d


def _cfg_file(d, seeds=(0,), **train_over):
    train = {"patch_size": 5, "epochs": 2, "batch": 50, "normalization": "none",
             "unit_channels": [16, 32, 16]}
    train.update(train_over)
    cfg = {"source_bundle": str(d / "data" / "source"),
           "target_bundle": str(d / "data" / "target"),
           "seeds": list(seeds), "train": train}
    p = d / "exp.json"
    p.write_text(json.dumps(cfg))
    return p


def test_synth_bundles_loadable_and_deterministic(synth_dir, tmp_path):
    scene, labels = load_scene(synth_dir / "data" / "source")
    assert (scene.height, scene.width, scene.bands) == (15, 15, 8)
    assert labels.num_classes == 3
    rc = main(["synth", "--out", str(tmp_path / "again"), "--classes", "3", "--bands", "8",
               "--grid", "3", "--blob", "5", "--seed", "7"])
    assert rc == 0
    a = (synth_dir / "data" / "source" / "cube.bin").read_bytes()
    b = (tmp_path / "again" / "source" / "cube.bin").read_bytes()
    assert a == b


def test_train_writes_artifacts(synth_dir):
    cfg = _cfg_file(synth_dir)
    out = synth_dir / "run1"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--deterministic"])
    assert rc == 0
    seed_dir = out / "seed_0"
    for name in ("checkpoint.bin", "index.json", "history.log", "report.txt"):
        assert (seed_dir / name).exists(), name
    assert (out / "resolved.cfg").exists()
    index = json.loads((seed_dir / "index.json").read_text())
    assert "extractor.conv1.weight" in index


def test_resolved_config_reproduces_run(synth_dir):
    out1 = synth_dir / "run1"
    out2 = synth_dir / "run2"
    rc = main(["train", "--config", str(out1 / "resolved.cfg"),
               "--out", str(out2), "--deterministic"])
    assert rc == 0
    a = (out1 / "seed_0" / "checkpoint.bin").read_bytes()
    b = (out2 / "seed_0" / "checkpoint.bin").read_bytes()
    assert a == b
    ha = (out1 / "seed_0" / "history.log").read_bytes()
    hb = (out2 / "seed_0" / "history.log").read_bytes()
    assert ha == hb


def test_train_two_seeds_matches_direct_fits(synth_dir, tmp_path, capsys):
    cfg_path = _cfg_file(synth_dir, seeds=(0, 1), epochs=1)
    out = tmp_path / "two"
    assert main(["train", "--config", str(cfg_path), "--out", str(out), "--deterministic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split("]")[0] for l in lines[:2]] == ["[seed 0", "[seed 1"]
    assert lines[2].startswith("mean over 2 seeds: OA ") and len(lines) == 3
    cfg = resolve_config(config_path=cfg_path)
    source, target = load_scene(cfg.source_bundle), load_scene(cfg.target_bundle)
    for seed in (0, 1):
        fit(cfg.train, source, target, seed=seed, out_dir=tmp_path / f"direct_{seed}",
            deterministic=True)
        for name in ("checkpoint.bin", "index.json", "history.log"):
            assert (out / f"seed_{seed}" / name).read_bytes() == \
                (tmp_path / f"direct_{seed}" / name).read_bytes(), (seed, name)
        assert (out / f"seed_{seed}" / "report.txt").exists()


def test_train_failure_removes_only_the_run_directories_it_made(synth_dir, tmp_path, monkeypatch, capsys):
    """A train that fails at its second seed exits 4 and leaves no seed_<s>/ it
    created, keeps one that was there before as it was, and removes an --out
    it created."""
    real_fit = training.fit

    def fit_failing_at_seed_1(config, source, target, seed=0, **kwargs):
        if seed == 1:
            raise NumericError("non-finite loss")
        return real_fit(config, source, target, seed, **kwargs)

    monkeypatch.setattr(training, "fit", fit_failing_at_seed_1)
    cfg_path = _cfg_file(synth_dir, seeds=(0, 1, 2), epochs=1)
    out = tmp_path / "kept"
    (out / "seed_2").mkdir(parents=True)
    (out / "seed_2" / "checkpoint.bin").write_bytes(b"earlier run")
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 4
    assert [p.name for p in out.iterdir()] == ["seed_2"]
    assert [p.name for p in (out / "seed_2").iterdir()] == ["checkpoint.bin"]
    assert (out / "seed_2" / "checkpoint.bin").read_bytes() == b"earlier run"
    fresh = tmp_path / "fresh"
    assert main(["train", "--config", str(cfg_path), "--out", str(fresh)]) == 4
    assert not fresh.exists()
    assert "numeric failure" in capsys.readouterr().err


def test_eval_prints_table_format(synth_dir, capsys):
    cfg = _cfg_file(synth_dir)
    ckpt = synth_dir / "run1" / "seed_0" / "checkpoint.bin"
    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
               "--bundle", str(synth_dir / "data" / "target"),
               "--out", str(synth_dir / "evalout")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "OA (%):" in text and "Kappa x 100:" in text
    oa_line = [l for l in text.splitlines() if l.startswith("OA")][0]
    assert len(oa_line.split(":")[1].strip().split(".")[1]) == 2  # two decimals
    assert (synth_dir / "evalout" / "report.txt").exists()


def test_map_byte_identical_across_runs(synth_dir):
    cfg = _cfg_file(synth_dir)
    ckpt = synth_dir / "run1" / "seed_0" / "checkpoint.bin"
    args = ["map", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--bundle", str(synth_dir / "data" / "target"), "--all-pixels"]
    assert main(args + ["--out", str(synth_dir / "map1")]) == 0
    assert main(args + ["--out", str(synth_dir / "map2")]) == 0
    a = (synth_dir / "map1" / "map.ppm").read_bytes()
    b = (synth_dir / "map2" / "map.ppm").read_bytes()
    assert a == b
    assert a.startswith(b"P6\n15 15\n255\n")
    assert len(a.split(b"\n255\n", 1)[1]) == 15 * 15 * 3


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "full_model" in out and "lmmd" in out
    assert "all checks pass" in out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "0", "abc"])
def test_gradcheck_bad_tolerance_exits_2(capsys, monkeypatch, tolerance):
    """Refused by the parser, before any check runs: with a NaN tolerance
    every check would FAIL, with an infinite one every check would pass."""
    monkeypatch.setattr("crossscene.cli.run_all_checks", None)  # never reached
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", f"--tolerance={tolerance}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("config error:") and "--tolerance" in err and "\n" not in err


def test_gradcheck_exits_1_when_a_check_fails(capsys, monkeypatch):
    from crossscene.engine.gradcheck import GradCheckReport

    reports = [GradCheckReport("conv2d", 1e-9), GradCheckReport("gelu", 0.5)]
    monkeypatch.setattr("crossscene.cli.run_all_checks", lambda seed, tolerance: (reports, False))
    rc = main(["gradcheck", "--tolerance", "1e-4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0].endswith("PASS") and out[1].endswith("FAIL")
    assert out[-1] == "FAILURES PRESENT (tolerance 0.0001)"


def test_ablate_variants_grid(synth_dir, capsys):
    # two epochs at lr0 0.1 on min-max input are enough for the block variants to part
    cfg_path = _cfg_file(synth_dir, lr0=0.1, normalization="minmax")
    out = synth_dir / "abl"
    rc = main(["ablate", "--config", str(cfg_path), "--grid", "variants", "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    assert [r["arm"] for r in rows] == ["variant_a", "variant_b", "variant_c", "variant_d"]
    assert sorted(out.iterdir()) == [out / "ablation.json", out / "resolved.cfg"]
    # each arm's change reaches the config: its OA is that of a direct run of the variant
    cfg = resolve_config(config_path=cfg_path)
    source, target = load_scene(cfg.source_bundle), load_scene(cfg.target_bundle)
    oas = []
    for row, variant in zip(rows, "abcd"):
        tc = replace(cfg.train, attention=replace(cfg.train.attention, variant=variant))
        report, _ = evaluate_scene(fit(tc, source, target).model, target[0], target[1], tc)
        assert row["oa"] == [report.oa, 0.0], variant
        oas.append(report.oa)
    assert len(set(oas)) > 1  # the variants train differently, so a lost change would show
    printed = capsys.readouterr().out
    assert "[variant_c seed 0] target OA" in printed


def test_ablate_heads_grid(synth_dir):
    cfg = _cfg_file(synth_dir, epochs=1)
    out = synth_dir / "abl8"
    rc = main(["ablate", "--config", str(cfg), "--grid", "heads", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "ablation.json").read_text())
    assert data["grid"] == "heads"
    assert len(data["rows"]) == 4


# keys that earlier versions accepted; each now names an option that is gone
@pytest.mark.parametrize("override", [
    "train.feature_mode=pool", "train.st_warmup_epochs=0",
    "train.attention.scale_divisor=sqrt_patch", "train.normalization=zscore", "train.seed=5",
])
def test_removed_config_key_exits_2(synth_dir, tmp_path, capsys, override):
    rc = main(["train", "--config", str(_cfg_file(synth_dir)), "--set", override,
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err
    assert override.split("=")[0].rsplit(".", 1)[-1] in err
    assert not (tmp_path / "x").exists()


def test_resolved_config_with_removed_keys_exits_2(synth_dir, tmp_path, capsys):
    # a resolved.cfg as the version before these options were removed wrote it
    cfg = tmp_path / "resolved.cfg"
    save_config(resolve_config(config_path=_cfg_file(synth_dir)), cfg)
    old = json.loads(cfg.read_text())
    removed = dict(feature_mode="pool", st_warmup_epochs=0, seed=0, alpha=10.0, beta=0.75,
                   momentum=0.9, weight_decay=1e-4,
                   kernel={"num_kernels": 5, "mul_factor": 2.0, "base_bandwidth": "median"})
    old["train"].update(removed)
    old["train"]["attention"]["scale_divisor"] = "sqrt_patch"
    cfg.write_text(json.dumps(old))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == ("config error: unknown config keys at train.: alpha, beta, feature_mode, "
                   "kernel, momentum, seed, st_warmup_epochs, weight_decay")
    for key in removed:
        del old["train"][key]
    cfg.write_text(json.dumps(old))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "config error: unknown config keys at train.attention.: scale_divisor"


# The whole CLI surface, as tests/test_config.py pins the config's.  `eval`
# and `map` keep `--seed` though neither reads it: perfbench/run.py passes
# `--seed` to every `map` call it makes.
PINNED_OPTIONS = {
    "train": ("--config", "--preset", "--set", "--seed", "--out", "--deterministic"),
    "eval": ("--config", "--preset", "--set", "--seed", "--checkpoint", "--bundle", "--out"),
    "map": ("--config", "--preset", "--set", "--seed", "--checkpoint", "--bundle", "--out",
            "--palette", "--all-pixels"),
    "gradcheck": ("--seed", "--tolerance"),
    "ablate": ("--config", "--preset", "--set", "--seed", "--grid", "--out"),
    "synth": ("--out", "--classes", "--bands", "--grid", "--blob", "--seed"),
}


def test_cli_surface_is_pinned():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: tuple(o for a in p._actions for o in a.option_strings
                           if o not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert surface == PINNED_OPTIONS


def test_removed_grid_name_exits_2(synth_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", str(_cfg_file(synth_dir)), "--grid", "table8",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: argument --grid: invalid choice: 'table8'")
    assert "\n" not in err
    assert not (tmp_path / "x").exists()


# (dotted key, the error's location and name): the two loss-term flags, now a
# lambda of 0, and the seven optimizer and kernel-family leaves, now constants
REMOVED_LEAVES = {
    "use_lmmd": ("train.ablation.use_lmmd", "train.ablation.: use_lmmd"),
    "use_self_training": ("train.ablation.use_self_training",
                          "train.ablation.: use_self_training"),
    **{key: (f"train.{key}", f"train.: {key}")
       for key in ("alpha", "beta", "momentum", "weight_decay")},
    **{key: (f"train.kernel.{key}", "train.: kernel")
       for key in ("num_kernels", "mul_factor", "base_bandwidth")},
}


@pytest.mark.parametrize("key", list(REMOVED_LEAVES))
def test_removed_loss_term_flag_exits_2(synth_dir, tmp_path, capsys, key):
    """A loss term is turned off by its lambda of 0, and the optimizer and
    kernel family are fixed; each removed leaf is an unknown key."""
    dotted, where = REMOVED_LEAVES[key]
    rc = main(["train", "--config", str(_cfg_file(synth_dir)), "--set", f"{dotted}=1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"config error: unknown config keys at {where}"
    assert not (tmp_path / "x").exists()


def test_modules_grid_arm_count():
    from crossscene.training import ABLATION_GRIDS
    assert len(ABLATION_GRIDS["modules"]) == 5
    assert [a for a, _ in ABLATION_GRIDS["modules"]] == \
        ["baseline", "attn", "attn+lmmd", "attn+st", "full"]


def test_exit_code_missing_data(synth_dir, tmp_path, capsys):
    cfg = _cfg_file(synth_dir)
    data = json.loads(cfg.read_text())
    data["source_bundle"] = str(tmp_path / "nowhere")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "nowhere" in capsys.readouterr().err


def test_exit_code_missing_cube_file(synth_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "meta.json").write_text("{}")
    (broken / "gt.bin").write_bytes(b"")
    cfg = _cfg_file(synth_dir)
    data = json.loads(cfg.read_text())
    data["source_bundle"] = str(broken)
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(data))
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "cube.bin" in capsys.readouterr().err


def test_exit_code_invalid_config(synth_dir, tmp_path, capsys):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", "train.nonsense=1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_numeric_failure(synth_dir, tmp_path, capsys):
    cfg = _cfg_file(synth_dir)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy's overflow warnings, from either stream thread
        rc = main(["train", "--config", str(cfg), "--set", "train.lr0=1e20",
                   "--out", str(tmp_path / "x")])
    assert rc == 4
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines()[-1].startswith("numeric failure: non-finite")


def test_exit_code_diverged_alignment_loss(synth_dir, tmp_path, capsys):
    """A step that overflows to NaN target probabilities reports the NaN
    alignment loss in its one exit-4 line, not a 0 from 'no class present'."""
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", "train.lr0=1e308",
               "--out", str(tmp_path / "x")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: non-finite")
    assert "lmmd=nan" in err[0]


def test_import_loads_no_scipy():
    """The package needs numpy only: importing the CLI loads no scipy module."""
    code = ("import sys, crossscene.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(crossscene.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_artifacts_do_not_depend_on_thread_variables(tmp_path):
    """``train --deterministic`` and ``map --all-pixels``, each in a fresh
    process, write the same bytes whatever the BLAS thread variables say.
    At the houston shape (48 bands, patch 15, batch 100, widths 32/64/32)
    conv2's weight gradient im2col(x)^T g has K = 100 * 15 * 15 = 22500, and
    OpenBLAS splits that sum differently at two threads than at one."""
    assert main(["synth", "--out", str(tmp_path / "data"), "--classes", "7", "--bands", "48",
                 "--grid", "3", "--blob", "6", "--seed", "3"]) == 0
    common = ["--preset", "houston", "--seed", "0", "--set", "train.epochs=1",
              "--set", f"source_bundle={tmp_path / 'data' / 'source'}",
              "--set", f"target_bundle={tmp_path / 'data' / 'target'}"]
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    base["PYTHONPATH"] = str(Path(crossscene.__file__).parents[1])
    envs = {"unset": base,
            "blas-2": dict(base, **{k: "2" for k in THREAD_VARIABLES}),
            "crossscene-2": dict(base, CROSSSCENE_THREADS="2")}  # the CLI's former knob
    files = ("train/seed_0/checkpoint.bin", "train/seed_0/history.log", "map/map.ppm")
    artifacts = {}
    for name, env in envs.items():
        out = tmp_path / name
        for argv in (["train", *common, "--out", str(out / "train"), "--deterministic"],
                     ["map", *common, "--checkpoint", str(out / files[0]),
                      "--bundle", str(tmp_path / "data" / "target"), "--out", str(out / "map"),
                      "--all-pixels"]):
            proc = subprocess.run([sys.executable, "-m", "crossscene", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (name, proc.stderr[-2000:])
        artifacts[name] = {f: (out / f).read_bytes() for f in files}
    differ = {name: [f for f in files if artifacts[name][f] != artifacts["unset"][f]]
              for name in envs}
    assert differ == {name: [] for name in envs}


@pytest.mark.parametrize("override", ["train.patch_size=4", "train.normalization=bogus",
                                      "train.unit_channels=[16,16,16]"])
def test_exit_code_bad_train_setting(synth_dir, tmp_path, capsys, override):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error") and "\n" not in err


@pytest.mark.parametrize("override", [
    "train.epochs=abc", "train.epochs=1.5",
    "train.unit_channels=5", "train.batch=x", 'seeds="x"', "seeds=5", "train.lr0=abc",
    "train.loss_weights.tau=abc", "train.patch_size=-3",
    "train.lr0=NaN", "train.loss_weights.lambda_lmmd=Infinity",
    "seeds=[1,1]",  # each seed writes seed_<s>/, so a repeat would train over its own run
])
def test_exit_code_bad_config_value(synth_dir, tmp_path, capsys, override):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err
    assert override.split("=")[0] in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bad", [
    "--classes 1", "--bands 1", "--gain 0", "--grid 0", "--blob 0",
    "--proto-low 0.9 --proto-high 0.1", "--gain nan", "--offset inf", "--noise -1",
    "--class-sigma -1",
    "--gain 1e39", "--offset 1e39", "--proto-high 1e39", "--noise 1e39",
])
def test_exit_code_bad_synth_argument(tmp_path, capsys, bad):
    """--classes, --bands, --grid and --blob values that synth_domain_pair
    refuses; the other flags are gone (the shift, noise and prototype range
    are the generator's settings, checked in test_data.py), a usage error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a second line
        try:
            rc = main(["synth", "--out", str(tmp_path / "x"), "--grid", "3", "--blob", "5"]
                      + bad.split())
        except SystemExit as e:
            rc = e.code
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err
    if bad.split()[0] not in ("--classes", "--bands", "--grid", "--blob"):
        assert err == f"config error: unrecognized arguments: {bad}"
    assert not (tmp_path / "x").exists()


def test_module_entry_point_runs_synth(tmp_path):
    # the package as imported here, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(crossscene.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "crossscene", "synth", "--out", str(tmp_path / "d"),
                           "--classes", "2", "--bands", "4", "--grid", "2", "--blob", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "target" / "cube.bin").is_file()


def test_exit_code_band_mismatch(synth_dir, tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "six"), "--classes", "3", "--bands", "6",
                 "--grid", "3", "--blob", "5", "--seed", "7"]) == 0
    cfg = json.loads(_cfg_file(synth_dir).read_text())
    cfg["target_bundle"] = str(tmp_path / "six" / "target")
    bad = tmp_path / "bands.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: band mismatch") and "\n" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("epochs", [0, 2])
def test_exit_code_unlabeled_bundle(synth_dir, tmp_path, capsys, role, epochs):
    blank = tmp_path / "blank"
    shutil.copytree(synth_dir / "data" / role, blank)
    (blank / "classes.json").unlink()  # its per-class counts would reject the blank raster first
    (blank / "gt.bin").write_bytes(bytes(len((blank / "gt.bin").read_bytes())))
    cfg = json.loads(_cfg_file(synth_dir, epochs=epochs).read_text())
    cfg[f"{role}_bundle"] = str(blank)
    bad = tmp_path / "blank.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err == f"data error: {role} bundle {blank} has no labeled pixel"
    assert not (tmp_path / "x").exists()


def _blank_target(synth_dir, tmp_path, names=True):
    """The target bundle with every label cleared; ``names``: keep its class
    names in classes.json (without the per-class counts)."""
    blank = tmp_path / "blank"
    shutil.copytree(synth_dir / "data" / "target", blank)
    (blank / "gt.bin").write_bytes(bytes(len((blank / "gt.bin").read_bytes())))
    classes = blank / "classes.json"
    if names:
        classes.write_text(json.dumps({"names": json.loads(classes.read_text())["names"]}))
    else:
        classes.unlink()
    return blank


@pytest.mark.parametrize("command", [["eval"], ["map"]], ids=["eval", "map"])
def test_unlabeled_bundle_has_nothing_to_score(synth_dir, ckpt_dir, tmp_path, capsys, command):
    blank = _blank_target(synth_dir, tmp_path)
    rc = main([*command, "--config", str(_cfg_file(synth_dir)), "--checkpoint",
               str(ckpt_dir / "checkpoint.bin"), "--bundle", str(blank),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err == f"data error: bundle {blank} has no labeled pixel"
    assert not (tmp_path / "out").exists()


def test_map_all_pixels_of_unlabeled_bundle(synth_dir, ckpt_dir, tmp_path, capsys):
    """Mapping an unlabeled scene writes the map its labeled copy gets."""
    blank = _blank_target(synth_dir, tmp_path)
    args = ["map", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
            str(ckpt_dir / "checkpoint.bin"), "--all-pixels"]
    assert main(args + ["--bundle", str(blank), "--out", str(tmp_path / "blank_map")]) == 0
    assert main(args + ["--bundle", str(synth_dir / "data" / "target"),
                        "--out", str(tmp_path / "map")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("map.ppm", "map.palette.json"):
        assert (tmp_path / "blank_map" / name).read_bytes() == (tmp_path / "map" / name).read_bytes()


def test_map_all_pixels_of_unlabeled_bundle_without_class_names(synth_dir, ckpt_dir, tmp_path,
                                                                capsys):
    blank = _blank_target(synth_dir, tmp_path, names=False)
    rc = main(["map", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
               str(ckpt_dir / "checkpoint.bin"), "--bundle", str(blank), "--all-pixels",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err == f"data error: bundle {blank} has no labeled pixel and names no class"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("palette,message", [
    ('[[0, 0, 0], [255, 0', "malformed palette"),
    ("[[0, 0, 0], [255, 0, 0]]", "has 2 entries"),
    ("[[0, 0, 0], [true, 0, 0], [0, 0, 255], [0, 255, 0]]", "integers in 0..255"),
    ("[[0, 0, 0], [12.9, 0, 0], [0, 0, 255], [0, 255, 0]]", "integers in 0..255"),
], ids=["malformed", "too-short", "bool-entry", "float-entry"])
def test_exit_code_bad_palette(synth_dir, ckpt_dir, tmp_path, capsys, palette, message):
    pal = tmp_path / "palette.json"
    pal.write_text(palette)
    rc = main(["map", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
               str(ckpt_dir / "checkpoint.bin"), "--bundle", str(synth_dir / "data" / "target"),
               "--palette", str(pal), "--out", str(tmp_path / "map")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error") and message in err and "\n" not in err
    assert not (tmp_path / "map").exists()


def test_exit_code_batch_exceeds_labeled_pixels(synth_dir, tmp_path, capsys):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", "train.batch=1000",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error") and "batch size 1000" in err and "\n" not in err
    assert not (tmp_path / "x").exists()


def _bad_path_argv(command, synth_dir, ckpt, out):
    run = ["--config", str(_cfg_file(synth_dir, epochs=1)), "--out", str(out)]
    scored = ["--checkpoint", str(ckpt), "--bundle", str(synth_dir / "data" / "target")]
    return {"train": ["train", *run],
            "ablate": ["ablate", *run, "--grid", "heads"],
            "eval": ["eval", *run, *scored],
            "map": ["map", *run, *scored],
            "synth": ["synth", "--out", str(out), "--classes", "2", "--bands", "4", "--grid", "2",
                      "--blob", "3"]}[command]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["train", "ablate", "eval", "map", "synth"])
def test_exit_code_out_is_a_file(synth_dir, ckpt_dir, tmp_path, capsys, monkeypatch, command,
                                 under):
    """An --out that is a file, or lies under one, exits 3 with one line;
    train and ablate say so before their first training step, eval and map
    before they score a pixel."""
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before --out was checked")

    def no_scoring(*args, **kwargs):
        raise AssertionError("predict_scene ran before --out was checked")

    monkeypatch.setattr(training, "train_step", no_step)
    monkeypatch.setattr(evaluate, "predict_scene", no_scoring)
    monkeypatch.setattr(cli, "predict_scene", no_scoring)
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory")
    out = blocker / "run" if under else blocker
    rc = main(_bad_path_argv(command, synth_dir, ckpt_dir / "checkpoint.bin", out))
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and "\n" not in err
    assert blocker.read_bytes() == b"not a directory"


def test_exit_code_palette_is_a_directory(synth_dir, ckpt_dir, tmp_path, capsys):
    rc = main(["map", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
               str(ckpt_dir / "checkpoint.bin"), "--bundle", str(synth_dir / "data" / "target"),
               "--palette", str(tmp_path), "--out", str(tmp_path / "map")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and str(tmp_path) in err and "\n" not in err
    assert not (tmp_path / "map").exists()


@pytest.fixture(scope="module")
def ckpt_dir(synth_dir):
    out = synth_dir / "ckpt_run"
    assert main(["train", "--config", str(_cfg_file(synth_dir, epochs=1)), "--out", str(out),
                 "--deterministic"]) == 0
    return out / "seed_0"


def _truncate(d):
    raw = (d / "checkpoint.bin").read_bytes()
    (d / "checkpoint.bin").write_bytes(raw[: len(raw) // 2])


def _edit_index(edit):
    def apply(d):
        index = json.loads((d / "index.json").read_text())
        edit(index)
        (d / "index.json").write_text(json.dumps(index))
    return apply


def _rename_first(index):
    name = next(iter(index))
    index[name + "_renamed"] = index.pop(name)


def _append_bytes(d):
    with open(d / "checkpoint.bin", "ab") as f:
        f.write(bytes(1000))


def _overlap_second(index):
    first, second = list(index)[:2]
    index[second]["offset"] = index[first]["offset"] + 4


def _write_index(text):
    return lambda d: (d / "index.json").write_text(text)


_CONV1 = "extractor.conv1.weight"


@pytest.mark.parametrize("fault,extra,message", [
    (_truncate, [], "truncated"),
    (None, ["--set", "train.unit_channels=[8,16,8]"], "shape mismatch"),
    (_edit_index(lambda ix: ix[_CONV1].update(dtype="f16")), [], "dtype tag"),
    (_edit_index(_rename_first), [], "missing="),
    (_append_bytes, [], "trailing bytes"),
    (_edit_index(_overlap_second), [], "the entries before it end at"),
    (_edit_index(lambda ix: ix[_CONV1].pop("shape")), [], "shape mismatch"),
    (_edit_index(lambda ix: ix.update({_CONV1: [0, [32, 3, 3, 8]]})), [], "to an object"),
    (_edit_index(lambda ix: ix[_CONV1].update(shape=5)), [], "shape mismatch"),
    (_write_index("5"), [], "to an object"),
    (_write_index("null"), [], "to an object"),
    (_edit_index(lambda ix: ix[_CONV1].update(dtype=["f32"])), [], "dtype tag"),
    (_edit_index(lambda ix: ix[_CONV1].update(dtype={})), [], "dtype tag"),
    (_edit_index(lambda ix: ix[_CONV1].update(offset=False)), [], "puts " + _CONV1),
    (_edit_index(lambda ix: ix[_CONV1].update(offset=0.0)), [], "puts " + _CONV1),
    (_edit_index(lambda ix: ix[_CONV1].update(shape=[16.0, 8, 3, 3])), [], "shape mismatch"),
], ids=["truncated", "other-width", "dtype-tag", "name-mismatch", "appended-bytes",
        "overlapping-offsets", "no-shape", "list-entry", "scalar-shape", "top-level-number",
        "top-level-null", "list-dtype", "object-dtype", "false-offset", "float-offset",
        "float-dim"])
def test_exit_code_bad_checkpoint(synth_dir, ckpt_dir, tmp_path, capsys, fault, extra, message):
    d = tmp_path / "ckpt"
    d.mkdir()
    for name in ("checkpoint.bin", "index.json"):
        (d / name).write_bytes((ckpt_dir / name).read_bytes())
    if fault is not None:
        fault(d)
    rc = main(["eval", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
               str(d / "checkpoint.bin"), "--bundle", str(synth_dir / "data" / "target")] + extra)
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error") and message in err and "\n" not in err


@pytest.mark.parametrize("payload", [
    None, "[]", '{"names": 5}', '{"names": ["a", "b", "c"], "counts": 7}',
    '{"names": ["a", "b", "c"], "counts": ["x"]}',
], ids=["truncated", "list", "names-not-a-list", "counts-not-a-list", "count-not-an-int"])
def test_exit_code_malformed_class_manifest(synth_dir, ckpt_dir, tmp_path, capsys, payload):
    bundle = tmp_path / "target"
    shutil.copytree(synth_dir / "data" / "target", bundle)
    raw = (bundle / "classes.json").read_text()
    (bundle / "classes.json").write_text(raw[: len(raw) // 2] if payload is None else payload)
    cfg = ["--config", str(_cfg_file(synth_dir))]
    for argv in (["eval", *cfg, "--checkpoint", str(ckpt_dir / "checkpoint.bin"),
                  "--bundle", str(bundle)],
                 ["train", *cfg, "--set", f"target_bundle={bundle}", "--out", str(tmp_path / "x")]):
        assert main(argv) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("data error") and "classes.json" in err and "\n" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", [-15, 0, "1e400", 15.7, '"15"', "true", "null"])
@pytest.mark.parametrize("key", ["height", "width", "bands"])
def test_exit_code_bad_bundle_dimension(synth_dir, ckpt_dir, tmp_path, capsys, key, value):
    """Each dimension in meta.json is a JSON integer of at least 1."""
    bundle = tmp_path / "target"
    shutil.copytree(synth_dir / "data" / "target", bundle)
    meta = json.loads((bundle / "meta.json").read_text())
    meta[key] = "@"
    (bundle / "meta.json").write_text(json.dumps(meta).replace('"@"', str(value)))
    assert main(["eval", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
                 str(ckpt_dir / "checkpoint.bin"), "--bundle", str(bundle)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error") and key in err and "\n" not in err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_allocator_policy_applies_on_glibc():
    assert set_allocator_policy() is True


def _no_libc(_name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [_no_libc, lambda _name: object()], ids=["no-libc", "no-mallopt"])
def test_allocator_policy_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert set_allocator_policy() is False
