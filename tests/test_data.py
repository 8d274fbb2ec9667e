"""Bundle I/O, artifact writes, normalization, patch extraction, streams, synthetic scenes."""

import errno
import io
import json
import warnings

import numpy as np
import pytest

from crossscene.config import resolve_config, save_config
from crossscene.data import (BundleError, LabelMap, PatchSource, Scene, ShiftSpec, batch_stream,
                             cycled_batches, labeled_pixels, load_scene, normalize_scene,
                             patch_source, save_bundle, synth_domain_pair, write_atomic)
from crossscene.evaluate import default_palette, write_map
from crossscene.model import CenterAttentionConfig, DualHeadClassifier, ExtractorConfig, save_checkpoint
from crossscene.training import write_history


def _toy_scene(rng, h=7, w=9, b=4):
    cube = rng.normal(size=(h, w, b)).astype(np.float32)
    labels = rng.integers(0, 3, size=(h, w)).astype(np.int32)
    return Scene(cube=cube, name="toy"), LabelMap(labels=labels, class_names=["a", "b"])


def test_bundle_round_trip_bitwise(tmp_path, rng):
    scene, labels = _toy_scene(rng)
    save_bundle(scene, labels, tmp_path / "toy")
    scene2, labels2 = load_scene(tmp_path / "toy")
    assert scene2.cube.dtype == np.float32
    assert np.array_equal(scene.cube.view(np.uint32), scene2.cube.view(np.uint32))
    assert np.array_equal(labels.labels, labels2.labels)
    assert labels2.class_names == ["a", "b"]


# artifact writers whose bytes depend on v
ARTIFACT_WRITERS = {
    "checkpoint": lambda d, v: save_checkpoint(
        DualHeadClassifier(ExtractorConfig(input_bands=4, patch_size=3), CenterAttentionConfig(), 2,
                           seed=v), d / "checkpoint.bin"),
    "history": lambda d, v: write_history([{"epoch": v}], d / "history.log"),
    "map": lambda d, v: write_map(np.full((2, 3), v), default_palette(2), d / "map.ppm"),
    "config": lambda d, v: save_config(resolve_config("synth", seed=v), d / "resolved.cfg"),
}


class _DiskFull(io.FileIO):
    """A file that takes half of the first write, then fails as a full disk would."""

    def write(self, data):
        super().write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("artifact", sorted(ARTIFACT_WRITERS))
def test_failed_write_leaves_earlier_artifact(tmp_path, monkeypatch, artifact):
    write = ARTIFACT_WRITERS[artifact]
    write(tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr("crossscene.data.open", lambda file, mode: _DiskFull(file, "wb"), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(tmp_path, 2)
    # the earlier files byte for byte, and no temp file beside them
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_atomic_keeps_default_permissions(tmp_path):
    write_atomic(tmp_path / "atomic", b"x")
    (tmp_path / "plain").write_bytes(b"x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]


def test_missing_file_error(tmp_path):
    with pytest.raises(BundleError, match="cube.bin"):
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "meta.json").write_text("{}")
        (tmp_path / "broken" / "gt.bin").write_bytes(b"")
        load_scene(tmp_path / "broken")


def test_shape_mismatch_error(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    d.joinpath("meta.json").write_text(json.dumps(
        {"height": 10, "width": 10, "bands": 4, "dtype": "f32", "layout": "bsq"}))
    d.joinpath("cube.bin").write_bytes(np.zeros(399, dtype="<f4").tobytes())  # 10*10*4 != 399
    d.joinpath("gt.bin").write_bytes(np.zeros(100, dtype="<u2").tobytes())
    with pytest.raises(BundleError, match="mismatch"):
        load_scene(d)


def test_unknown_dtype_error(tmp_path, rng):
    scene, labels = _toy_scene(rng)
    d = save_bundle(scene, labels, tmp_path / "t")
    meta = json.loads((d / "meta.json").read_text())
    meta["dtype"] = "f16"
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(BundleError, match="dtype"):
        load_scene(d)


def test_label_exceeds_manifest_error(tmp_path, rng):
    scene, labels = _toy_scene(rng)
    labels.labels[0, 0] = 9
    labels.expected_counts = None
    d = save_bundle(scene, labels, tmp_path / "t")
    with pytest.raises(BundleError, match="exceeds"):
        load_scene(d)


def test_count_manifest_mismatch(tmp_path, rng):
    scene, labels = _toy_scene(rng)
    labels.expected_counts = [1, 1]  # wrong on purpose
    d = save_bundle(scene, labels, tmp_path / "t")
    with pytest.raises(BundleError, match="counts"):
        load_scene(d)


def test_minmax_normalization():
    cube = np.array([[[2.0], [4.0]], [[6.0], [4.0]]], dtype=np.float32)
    out = normalize_scene(Scene(cube=cube), "minmax").cube
    assert np.allclose(sorted(out.ravel()), [0.0, 0.5, 0.5, 1.0])


def test_constant_band_maps_to_zero():
    cube = np.full((3, 3, 2), 5.0, dtype=np.float32)
    out = normalize_scene(Scene(cube=cube), "minmax").cube
    assert np.array_equal(out, np.zeros_like(cube))


def test_minmax_in_place_keeps_the_whole_array_formula(rng):
    """The in-place minmax gives the bits of the whole-array formula, with a
    constant band, and leaves the input cube alone."""
    cube = rng.normal(10.0, 3.0, size=(20, 30, 6)).astype(np.float32)
    cube[:, :, 2] = 4.5
    before = cube.copy()
    lo, hi = cube.min(axis=(0, 1), keepdims=True), cube.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    ref = np.where(span > 0, (cube - lo) / np.where(span > 0, span, 1.0), 0.0).astype(np.float32)
    out = normalize_scene(Scene(cube=cube), "minmax").cube
    assert out.dtype == np.float32 and np.array_equal(out.view(np.uint32), ref.view(np.uint32))
    assert np.array_equal(cube, before)


def test_normalize_none_is_identity(rng):
    scene, _ = _toy_scene(rng)
    assert normalize_scene(scene, "none") is scene


def test_scene_finiteness_check_allocates_no_copy(rng, traced_peak):
    """Building a Scene checks its cube for NaN and infinities without a
    bool array of the cube's shape (a quarter of a float32 cube)."""
    cube = rng.random((200, 300, 48), dtype=np.float32)  # 11 MiB
    scene, peak = traced_peak(lambda: Scene(cube=cube))
    assert scene.cube is cube
    assert peak < 0.01 * cube.nbytes / 2**20
    for bad in (np.nan, np.inf, -np.inf):
        cube[5, 7, 3] = bad
        with pytest.raises(BundleError, match="non-finite"):
            Scene(cube=cube)
    assert Scene(cube=np.zeros((0, 4, 2), np.float32)).height == 0


# A moderate cube, 200 x 300 x 48 float32 (11 MiB): loading it peaks at 1.05
# cubes (the cube, one band's buffer and the label raster; 2.03 when the file
# was read whole and then transposed), building a domain's source at 1.06
# (the padded cube at patch 7; 2.06 with a normalized copy beside it).  The
# bounds are README's.
LOAD_PEAK_CUBES, SOURCE_PEAK_CUBES = 1.1, 1.2


def test_load_scene_peak_memory_guard(tmp_path, traced_peak):
    """load_scene reads the band-sequential file into the one (h, w, b)
    array a band at a time: no bytes object, no transposed copy."""
    cube = np.random.default_rng(0).random((200, 300, 48), dtype=np.float32)
    save_bundle(Scene(cube=cube), LabelMap(labels=np.ones((200, 300), np.int32)), tmp_path / "b")
    (scene, _), peak = traced_peak(lambda: load_scene(tmp_path / "b"))
    assert np.array_equal(scene.cube.view(np.uint32), cube.view(np.uint32))
    assert peak <= LOAD_PEAK_CUBES * cube.nbytes / 2**20


@pytest.mark.parametrize("mode", ["none", "minmax"])
def test_patch_source_peak_memory_guard(rng, traced_peak, mode):
    """A domain's source is its one normalized, padded copy of the cube: no
    normalized copy of the scene beside it."""
    cube = rng.random((200, 300, 48), dtype=np.float32)
    src, peak = traced_peak(lambda: PatchSource(Scene(cube=cube), 7, mode))
    assert peak <= SOURCE_PEAK_CUBES * cube.nbytes / 2**20


@pytest.mark.parametrize("mode", ["none", "minmax"])
@pytest.mark.parametrize("ps", [1, 3, 7, 15])
def test_patch_source_is_the_padded_normalized_scene(rng, ps, mode):
    """The source's padded cube equals, as uint32, the reflect-padded
    normalized scene, with a constant band; its patches carry those bits, and
    the scene is left as it was."""
    cube = rng.normal(10.0, 3.0, size=(9, 11, 5)).astype(np.float32)
    cube[:, :, 2] = 4.5
    scene = Scene(cube=cube.copy())
    half = ps // 2
    ref = np.pad(normalize_scene(scene, mode).cube, ((half, half), (half, half), (0, 0)),
                 mode="reflect")
    src = PatchSource(scene, ps, mode)
    assert np.array_equal(src.rows(0, 9).view(np.uint32), ref.view(np.uint32))
    patch = src.batch(np.array([[4, 6]])).patches.data[0]
    assert np.array_equal(patch.view(np.uint32), ref[4 : 4 + ps, 6 : 6 + ps].view(np.uint32))
    assert (src.height, src.width, src.bands) == (9, 11, 5)
    assert np.array_equal(scene.cube.view(np.uint32), cube.view(np.uint32))


def test_patch_source_serves_only_its_config(rng):
    """patch_source builds a Scene's source, returns a source built for the
    same patch size and normalization, and refuses one built for others."""
    scene, _ = _toy_scene(rng)
    src = patch_source(scene, 3, "minmax")
    assert (src.ps, src.normalization) == (3, "minmax")
    assert patch_source(src, 3, "minmax") is src
    for ps, mode in ((5, "minmax"), (3, "none")):
        with pytest.raises(ValueError, match="cannot serve"):
            patch_source(src, ps, mode)


def _patches(scene, ps, pixels):
    return PatchSource(scene, ps).batch(np.array(pixels).reshape(-1, 2)).patches.data


def test_patch_center_identity(rng):
    scene, _ = _toy_scene(rng)
    pixels = [(0, 0), (3, 4), (6, 8)]
    for ps in (1, 3, 5):
        for (row, col), patch in zip(pixels, _patches(scene, ps, pixels)):
            assert np.array_equal(patch[ps // 2, ps // 2], scene.cube[row, col])


def test_patch_mirror_layout_2x2():
    # scene [[a,b],[c,d]], patch at (0,0): [[d,c,d],[b,a,b],[d,c,d]]
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    cube = np.array([[[a], [b]], [[c], [d]]], dtype=np.float32)
    patch = _patches(Scene(cube=cube), 3, [(0, 0)])[0, :, :, 0]
    assert np.array_equal(patch, [[d, c, d], [b, a, b], [d, c, d]])


def test_patch_pad_wider_than_scene():
    # a 1x3 row [a b c] at ps 9 reflects again past each edge: a b c b a b c b a
    a, b, c = 1.0, 2.0, 3.0
    cube = np.array([[[a], [b], [c]]], dtype=np.float32)
    patch = _patches(Scene(cube=cube), 9, [(0, 0)])[0, :, :, 0]
    assert np.array_equal(patch, np.tile([a, b, c, b, a, b, c, b, a], (9, 1)))


def test_patch_ps1_is_pixel(rng):
    scene, _ = _toy_scene(rng)
    assert np.array_equal(_patches(scene, 1, [(2, 3)])[0, 0, 0], scene.cube[2, 3])


def test_patch_errors(rng):
    scene, _ = _toy_scene(rng)
    with pytest.raises(ValueError, match="odd"):
        PatchSource(scene, 4)


def test_patch_batch_carries_pixels_and_labels(rng):
    scene, labels = _toy_scene(rng)
    pixels = labeled_pixels(labels)[:5]
    batch = PatchSource(scene, 3).batch(pixels, labels.labels[pixels[:, 0], pixels[:, 1]])
    assert np.array_equal(batch.refs, pixels) and len(batch) == 5
    assert np.array_equal(batch.labels, [labels.labels[r, c] for r, c in pixels])
    assert PatchSource(scene, 3).batch(pixels).labels is None


def test_labeled_pixels_raster_order():
    labels = np.array([[0, 2], [2, 1]])
    pixels = labeled_pixels(LabelMap(labels=labels))
    assert pixels.tolist() == [[0, 1], [1, 0], [1, 1]]


def test_batch_stream_counts_and_determinism():
    batches = batch_stream(250, 100, seed=4, epoch=0)
    assert len(batches) == 2  # floor(250 / 100)
    again = batch_stream(250, 100, seed=4, epoch=0)
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))
    assert len(np.unique(np.concatenate(batches))) == 200


def test_batch_stream_epochs_permute():
    e0 = np.concatenate(batch_stream(1000, 100, seed=1, epoch=0))
    e1 = np.concatenate(batch_stream(1000, 100, seed=1, epoch=1))
    assert not np.array_equal(e0, e1)


def test_batch_stream_errors():
    with pytest.raises(ValueError):
        batch_stream(0, 10, 0, 0)
    with pytest.raises(ValueError):
        batch_stream(4, 0, 0, 0)


def test_cycled_batches_cover_and_reshuffle():
    it = cycled_batches(30, 10, seed=2)
    first_pass = np.concatenate([next(it) for _ in range(3)])
    second_pass = np.concatenate([next(it) for _ in range(3)])
    assert sorted(first_pass) == sorted(second_pass) == list(range(30))
    assert not np.array_equal(first_pass, second_pass)  # reshuffled between passes


def test_cycled_batches_fewer_refs_than_batch():
    it = cycled_batches(5, 8, seed=3)
    batch = next(it)
    assert len(batch) == 8
    assert set(batch.tolist()) <= set(range(5))  # sampled with wraparound
    assert not np.array_equal(next(it), batch)  # reseeded per pass


def test_synth_identity_shift_means_match():
    (src, src_l), (tgt, _) = synth_domain_pair(
        num_classes=3, bands=6, blob_grid=3, blob_size=8,
        shift=ShiftSpec(1.0, 0.0), noise_sigma=0.0, seed=1)
    for c in range(1, 4):
        m_s = src.cube[src_l.labels == c].mean(axis=0)
        m_t = tgt.cube[src_l.labels == c].mean(axis=0)
        n = (src_l.labels == c).sum()
        assert np.abs(m_s - m_t).max() < 3 * 0.06 * 2 / np.sqrt(n) + 1e-3


def test_synth_affine_shift_means():
    (src, src_l), (tgt, _) = synth_domain_pair(
        num_classes=4, bands=8, blob_grid=4, blob_size=10,
        shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05, seed=3)
    for c in range(1, 5):
        sel = src_l.labels == c
        n = sel.sum()
        m_s = src.cube[sel].mean(axis=0)
        m_t = tgt.cube[sel].mean(axis=0)
        sigma = np.sqrt((1.3 * 0.06) ** 2 + 0.06**2 + 0.05**2)
        assert np.abs(m_t - (1.3 * m_s + 0.1)).max() < 3 * sigma / np.sqrt(n) + 0.01


def test_synth_seeds_change_values_not_layout():
    (s1, l1), _ = synth_domain_pair(seed=0)
    (s2, l2), _ = synth_domain_pair(seed=1)
    assert np.array_equal(l1.labels, l2.labels)
    assert not np.array_equal(s1.cube, s2.cube)


def test_synth_rejects_degenerate_shift():
    with pytest.raises(ValueError, match="gain"):
        synth_domain_pair(shift=ShiftSpec(0.0, 0.1))


# Arguments the generator cannot build a scene from, each with the words its
# message names: a zero or non-finite shift, a negative spread, a prototype
# range out of order, and four that would take a cube past the float32 range.
BAD_SYNTH_ARGUMENTS = {
    "gain=0": (dict(gain=0.0), "gain"),
    "gain=nan": (dict(gain=float("nan")), "gain"),
    "offset=inf": (dict(offset=float("inf")), "offset"),
    "noise=-1": (dict(noise_sigma=-1.0), "sigma"),
    "class_sigma=-1": (dict(class_sigma=-1.0), "sigma"),
    "proto_range=(0.9,0.1)": (dict(proto_range=(0.9, 0.1)), "prototype range"),
    "gain=1e39": (dict(gain=1e39), "float32"),
    "offset=1e39": (dict(offset=1e39), "float32"),
    "proto_range=(0.2,1e39)": (dict(proto_range=(0.2, 1e39)), "float32"),
    "noise=1e39": (dict(noise_sigma=1e39), "float32"),
}


@pytest.mark.parametrize("case", list(BAD_SYNTH_ARGUMENTS))
def test_synth_rejects_bad_argument(case):
    kwargs, message = BAD_SYNTH_ARGUMENTS[case]
    shift = {k: kwargs.pop(k) for k in ("gain", "offset") if k in kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a second line
        with pytest.raises(ValueError, match=message):
            synth_domain_pair(blob_grid=3, blob_size=5, shift=ShiftSpec(**shift), **kwargs)


def test_synth_determinism():
    (s1, _), (t1, _) = synth_domain_pair(seed=9)
    (s2, _), (t2, _) = synth_domain_pair(seed=9)
    assert np.array_equal(s1.cube, s2.cube) and np.array_equal(t1.cube, t2.cube)
