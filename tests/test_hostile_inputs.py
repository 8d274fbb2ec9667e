"""Hostile bundle files, checkpoint files and config values through the command line.

Every bundle and checkpoint file is emptied, cut by one byte, cut to half
its length or grown by one byte; a JSON file also gets a byte that is not
UTF-8, and each of its fields is set to each JSON type in turn.  Each case
runs in process through ``cli.main``: ``eval`` always, and ``train`` too for
a bundle file.  Each must end with exit 0, 2, 3 or 4 (3 for a cut or grown
raw file, which no reader can use) and at most one stderr line; an
exception escaping ``main`` is what a user would see as a traceback and
exit 1.

Every hostile value that the config loader accepts for a leaf also trains
one epoch through ``cli.main train``; it must end the same way, with no
numpy warning on the way.
"""

import json
import sys
import traceback
import warnings

import numpy as np
import pytest
from test_config import HOSTILE_VALUES, LEAVES

from crossscene.cli import main
from crossscene.config import ConfigError, resolve_config

# JSON values that a metadata field might not expect
HOSTILE_FIELD_VALUES = (None, True, -1, 0, 1.5, "x", [], {})

BUNDLE_FILES = ("meta.json", "cube.bin", "gt.bin", "classes.json")
FILES = ([f"{role}/{name}" for role in ("source", "target") for name in BUNDLE_FILES]
         + ["run/seed_0/checkpoint.bin", "run/seed_0/index.json"])


def _preset_args(root):
    return ["--preset", "synth", "--set", f"source_bundle={root / 'source'}",
            "--set", f"target_bundle={root / 'target'}", "--set", "train.epochs=1", "--seed", "0"]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A 3-class, 4-band, 15x15 bundle pair and one checkpoint trained on it."""
    root = tmp_path_factory.mktemp("hostile")
    assert main(["synth", "--out", str(root), "--classes", "3", "--bands", "4",
                 "--grid", "3", "--blob", "5", "--seed", "1"]) == 0
    assert main(["train", *_preset_args(root), "--out", str(root / "run")]) == 0
    return root


def _field_edits(name, raw):
    """{description: bytes} with one field of the JSON file ``name`` changed."""
    data = json.loads(raw)
    if name == "index.json":  # the first tensor's entry
        first = next(iter(data))
        targets = [(data[first], key, f"{first}.{key}") for key in data[first]]
    else:
        targets = [(data, key, key) for key in data]
    out = {}
    for obj, key, label in targets:
        original = obj[key]
        for value in HOSTILE_FIELD_VALUES:
            obj[key] = value
            out[f"{label}={json.dumps(value)}"] = json.dumps(data).encode()
        obj[key] = original
    return out


def _run(argv, capsys):
    """(exit code, stderr) of ``main(argv)``, with 1 for an escaping exception."""
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:
        rc = 1
        print(traceback.format_exc(), end="", file=sys.stderr)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("rel", FILES)
def test_hostile_file_exits_cleanly(tree, rel, tmp_path, capsys):
    path = tree / rel
    raw = path.read_bytes()
    cases = {"emptied": b"", "cut by 1 byte": raw[:-1], "cut to half": raw[:len(raw) // 2],
             "grown by 1 byte": raw + b"\0"}
    if path.suffix == ".json":
        cases["not UTF-8"] = b"\xff" + raw
        cases.update(_field_edits(path.name, raw))
    bundle = tree / ("source" if rel.startswith("source/") else "target")
    checkpoint = tree / "run" / "seed_0" / "checkpoint.bin"
    commands = {"eval": ["eval", "--preset", "synth", "--checkpoint", str(checkpoint),
                         "--bundle", str(bundle)]}
    if path.name in BUNDLE_FILES:
        commands["train"] = ["train", *_preset_args(tree), "--out", str(tmp_path / "train")]
    allowed = (3,) if path.suffix == ".bin" else (0, 2, 3, 4)
    faults = []
    try:
        for case, payload in cases.items():
            path.write_bytes(payload)
            for command, argv in commands.items():
                rc, err = _run(argv, capsys)
                if rc not in allowed or len(err.splitlines()) > 1 or "Traceback" in err:
                    faults.append(f"{command} with {rel} {case}: exit {rc}, stderr {err[-300:]!r}")
    finally:
        path.write_bytes(raw)
    assert faults == []


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_cube_exits_3(tree, bad, capsys):
    """A cube.bin that holds one NaN or infinity ends eval with exit 3 and one
    stderr line."""
    path = tree / "target" / "cube.bin"
    raw = path.read_bytes()
    cube = np.frombuffer(raw, dtype="<f4").copy()
    cube[len(cube) // 2] = float(bad)
    checkpoint = tree / "run" / "seed_0" / "checkpoint.bin"
    try:
        path.write_bytes(cube.tobytes())
        rc, err = _run(["eval", "--preset", "synth", "--checkpoint", str(checkpoint),
                        "--bundle", str(tree / "target")], capsys)
    finally:
        path.write_bytes(raw)
    assert rc == 3 and len(err.splitlines()) == 1 and "non-finite" in err, (rc, err)


@pytest.mark.parametrize("leaf", LEAVES)
def test_accepted_config_value_trains_cleanly(tree, leaf, tmp_path, capsys):
    faults = []
    for i, value in enumerate(HOSTILE_VALUES):
        overrides = [f"source_bundle={tree / 'source'}", f"target_bundle={tree / 'target'}",
                     "train.epochs=1", "seeds=[0]", f"{leaf}={value}"]
        try:
            resolve_config("synth", overrides=overrides)
        except ConfigError:
            continue
        argv = ["train", "--preset", "synth", "--out", str(tmp_path / f"run{i}")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = _run(argv + [a for o in overrides for a in ("--set", o)], capsys)
        last = (err.splitlines() or [""])[-1]
        if (rc not in (0, 2, 3, 4) or "Traceback" in err or caught
                or (rc != 0 and not last.startswith(("config error: ", "data error: ",
                                                     "numeric failure: ")))):
            faults.append(f"{leaf}={value}: exit {rc}, warnings {[str(w.message) for w in caught]}, "
                          f"stderr {err[-300:]!r}")
    assert faults == []
