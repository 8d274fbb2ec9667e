"""End-to-end command-line interface: subcommands, artifacts, exit codes."""

import ctypes
import json
import platform
import shutil

import pytest

from crossscene.cli import main, set_allocator_policy
from crossscene.data import load_scene


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(d / "data"), "--classes", "3", "--bands", "8",
               "--grid", "3", "--blob", "5", "--seed", "7"])
    assert rc == 0
    return d


def _cfg_file(d, **train_over):
    train = {"patch_size": 5, "epochs": 2, "batch": 50, "normalization": "none",
             "unit_channels": [16, 32, 16]}
    train.update(train_over)
    cfg = {"source_bundle": str(d / "data" / "source"),
           "target_bundle": str(d / "data" / "target"),
           "seeds": [0], "train": train}
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


def test_ablate_variants_grid(synth_dir, capsys):
    cfg = _cfg_file(synth_dir, epochs=1)
    out = synth_dir / "abl"
    rc = main(["ablate", "--config", str(cfg), "--grid", "variants",
               "--out", str(out), "--deterministic"])
    assert rc == 0
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    assert [r["arm"] for r in rows] == ["variant_a", "variant_b", "variant_c", "variant_d"]


def test_ablate_grid_aliases(synth_dir):
    cfg = _cfg_file(synth_dir, epochs=1)
    out = synth_dir / "abl8"
    rc = main(["ablate", "--config", str(cfg), "--grid", "table8",
               "--out", str(out), "--deterministic"])
    assert rc == 0
    data = json.loads((out / "ablation.json").read_text())
    assert data["grid"] == "heads"
    assert len(data["rows"]) == 4


def test_modules_grid_arm_count():
    from crossscene.cli import ABLATION_GRIDS
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_numeric_failure(synth_dir, tmp_path, capsys):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", "train.lr0=1e20",
               "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "numeric" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["train.patch_size=4", "train.normalization=bogus",
                                      "train.unit_channels=[16,16,16]"])
def test_exit_code_bad_train_setting(synth_dir, tmp_path, capsys, override):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error") and "\n" not in err


def test_exit_code_batch_exceeds_labeled_pixels(synth_dir, tmp_path, capsys):
    cfg = _cfg_file(synth_dir)
    rc = main(["train", "--config", str(cfg), "--set", "train.batch=1000",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error") and "batch size 1000" in err and "\n" not in err


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


@pytest.mark.parametrize("fault,extra,message", [
    (_truncate, [], "truncated"),
    (None, ["--set", "train.unit_channels=[8,16,8]"], "shape mismatch"),
    (_edit_index(lambda ix: ix["extractor.conv1.weight"].update(dtype="f16")), [], "dtype tag"),
    (_edit_index(_rename_first), [], "missing="),
], ids=["truncated", "other-width", "dtype-tag", "name-mismatch"])
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


def test_exit_code_malformed_class_manifest(synth_dir, ckpt_dir, tmp_path, capsys):
    bundle = tmp_path / "target"
    shutil.copytree(synth_dir / "data" / "target", bundle)
    raw = (bundle / "classes.json").read_text()
    (bundle / "classes.json").write_text(raw[: len(raw) // 2])
    rc = main(["eval", "--config", str(_cfg_file(synth_dir)), "--checkpoint",
               str(ckpt_dir / "checkpoint.bin"), "--bundle", str(bundle)])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error") and "classes.json" in err and "\n" not in err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_allocator_policy_applies_on_glibc():
    assert set_allocator_policy() is True


def _no_libc(_name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [_no_libc, lambda _name: object()], ids=["no-libc", "no-mallopt"])
def test_allocator_policy_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert set_allocator_policy() is False
