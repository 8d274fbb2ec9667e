"""Confusion-matrix metrics, aggregation, map rendering, scene evaluation."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from crossscene.evaluate import (MetricsReport, aggregate_runs, confusion,
                                 default_palette, evaluate_scene, format_mean_std,
                                 format_report, metrics, predict_scene, render_map,
                                 write_map)
from crossscene.data import LabelMap, PatchSource, ShiftSpec, labeled_pixels, synth_domain_pair
from crossscene.engine import conv
from crossscene.model import DualHeadClassifier, FeatureExtractor, Stem
from crossscene.training import TrainConfig, build_model, fit


def test_confusion_diagonal_when_perfect():
    preds = np.array([1, 2, 3, 1])
    cm = confusion(preds, preds, 3)
    assert np.array_equal(cm, np.diag([2, 1, 1]))


def test_confusion_empty_and_counts():
    assert np.array_equal(confusion([], [], 2), np.zeros((2, 2), dtype=np.int64))
    cm = confusion([1, 2, 2], [1, 1, 2], 2)
    assert np.array_equal(cm, [[1, 1], [0, 1]])


def test_confusion_skips_unlabeled():
    cm = confusion([1, 2, 1], [1, 0, 2], 2)
    assert cm.sum() == 2


def test_confusion_out_of_range():
    with pytest.raises(ValueError):
        confusion([3], [1], 2)


def test_metrics_perfect():
    rep = metrics(np.diag([5, 3, 2]))
    assert rep.oa == 1.0 and rep.aa == 1.0 and rep.kappa == 1.0


def test_metrics_hand_case():
    # [[2,1],[0,3]]: OA=5/6, AA=(2/3+1)/2=5/6, pe=(3*2+3*4)/36=1/2, kappa=2/3
    rep = metrics(np.array([[2, 1], [0, 3]]))
    assert abs(rep.oa - 5 / 6) < 1e-12
    assert abs(rep.aa - 5 / 6) < 1e-12
    assert abs(rep.kappa - 2 / 3) < 1e-12
    assert rep.n_eval == 6


def test_metrics_empty_row_excluded_from_aa():
    rep = metrics(np.array([[4, 0, 0], [0, 0, 0], [2, 0, 2]]))
    assert rep.empty_classes == [2]
    assert rep.aa == pytest.approx((1.0 + 0.5) / 2)


def test_metrics_degenerate_single_cell():
    rep = metrics(np.array([[7]]))
    assert rep.kappa == 0.0  # chance agreement pe = 1 by convention
    assert rep.oa == 1.0


def test_metrics_empty_matrix_error():
    with pytest.raises(ValueError):
        metrics(np.zeros((3, 3)))


def test_oa_is_support_weighted_mean_of_per_class(rng):
    for _ in range(20):
        cm = rng.integers(0, 30, size=(4, 4))
        cm[rng.integers(0, 4)] = 0  # sometimes an empty class
        if cm.sum() == 0:
            continue
        rep = metrics(cm)
        row = cm.sum(axis=1)
        weighted = (np.array(rep.per_class) * row / cm.sum()).sum()
        assert rep.oa == pytest.approx(weighted, abs=1e-12)


def test_kappa_invariant_to_count_scaling(rng):
    for _ in range(100):
        cm = rng.integers(0, 20, size=(3, 3)) + np.diag(rng.integers(1, 10, size=3))
        k = int(rng.integers(2, 7))
        assert metrics(cm * k).kappa == pytest.approx(metrics(cm).kappa, abs=1e-12)


def test_metrics_invariant_under_relabeling(rng):
    cm = rng.integers(0, 25, size=(5, 5)) + np.diag(rng.integers(1, 9, size=5))
    perm = rng.permutation(5)
    permuted = cm[np.ix_(perm, perm)]
    a, b = metrics(cm), metrics(permuted)
    assert a.oa == pytest.approx(b.oa, abs=1e-12)
    assert a.aa == pytest.approx(b.aa, abs=1e-12)
    assert a.kappa == pytest.approx(b.kappa, abs=1e-12)


def test_aggregate_runs():
    r1 = MetricsReport(oa=0.8, aa=0.7, kappa=0.6, per_class=[0.8], n_eval=10)
    r2 = MetricsReport(oa=0.9, aa=0.7, kappa=0.6, per_class=[0.9], n_eval=10)
    agg = aggregate_runs([r1, r2])
    assert agg["oa"][0] == pytest.approx(0.85)
    assert agg["oa"][1] == pytest.approx(0.07071067811865474)
    assert aggregate_runs([r1])["oa"][1] == 0.0
    assert agg["aa"][1] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        aggregate_runs([])


def test_format_mean_std_reporting_convention():
    assert format_mean_std(0.9205, 0.0031) == "92.05±0.31"
    assert format_mean_std(0.8023, 0.0192) == "80.23±1.92"


def test_format_report_kappa_times_100():
    rep = MetricsReport(oa=0.5, aa=0.5, kappa=0.25, per_class=[0.5, 0.5], n_eval=4)
    text = format_report(rep)
    assert "Kappa x 100: 25.00" in text
    assert "OA (%): 50.00" in text


def test_render_map_all_background():
    data = render_map(np.zeros((2, 3), dtype=int), [(0, 0, 0), (1, 2, 3)])
    header, payload = data.split(b"\n255\n", 1)
    assert header == b"P6\n3 2"
    assert payload == bytes(18)


def test_render_map_hand_assembled_payload():
    palette = [(0, 0, 0), (10, 20, 30), (40, 50, 60)]
    raster = np.array([[1, 2], [0, 1]])
    data = render_map(raster, palette)
    payload = data.split(b"\n255\n", 1)[1]
    assert len(payload) == 12
    assert payload == bytes([10, 20, 30, 40, 50, 60, 0, 0, 0, 10, 20, 30])


def test_render_map_deterministic_and_palette_check(tmp_path):
    raster = np.array([[0, 1], [1, 0]])
    palette = default_palette(1)
    a = render_map(raster, palette)
    b = render_map(raster, palette)
    assert a == b
    with pytest.raises(ValueError, match="palette"):
        render_map(np.array([[5]]), palette)
    write_map(raster, palette, tmp_path / "m.ppm")
    assert (tmp_path / "m.ppm").read_bytes() == a
    assert (tmp_path / "m.palette.json").exists()


def test_evaluate_scene_deterministic(tiny_pair, tiny_config):
    (src_scene, src_labels), _ = tiny_pair
    model = build_model(tiny_config, src_labels.num_classes, src_scene.bands)
    rep1, raster1 = evaluate_scene(model, src_scene, src_labels, tiny_config)
    rep2, raster2 = evaluate_scene(model, src_scene, src_labels, tiny_config)
    assert rep1.oa == rep2.oa and np.array_equal(raster1, raster2)
    assert rep1.n_eval == int((src_labels.labels > 0).sum())
    assert (raster1[src_labels.labels > 0] > 0).all()
    assert (raster1[src_labels.labels == 0] == 0).all()


def test_evaluate_scene_map_all(tiny_pair, tiny_config):
    (src_scene, src_labels), _ = tiny_pair
    model = build_model(tiny_config, src_labels.num_classes, src_scene.bands)
    _, raster = evaluate_scene(model, src_scene, src_labels, tiny_config, map_all=True)
    assert (raster > 0).all()


@pytest.fixture(scope="module")
def per_tap_pair():
    """The tiny pair at 40 bands: conv1 (40 -> 16) runs on the per-tap side,
    as at every real preset, and scene inference shares the stem."""
    return synth_domain_pair(num_classes=3, bands=40, blob_grid=3, blob_size=5,
                             shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05, seed=7)


def _check_independent_of_batch(pair, config, seed=0):
    (src_scene, src_labels), _ = pair
    model = build_model(config, src_labels.num_classes, src_scene.bands, seed=seed)
    full, _ = predict_scene(model, src_scene, src_labels, config, map_all=True, batch=500)
    raster_order = np.argwhere(np.ones(src_labels.labels.shape, dtype=bool))
    for batch in (1, 7, 100):  # two batches or strips at a time, on two threads
        raster, pixels = predict_scene(model, src_scene, src_labels, config, map_all=True,
                                       batch=batch)
        assert np.array_equal(raster, full)
        assert np.array_equal(pixels, raster_order)
    return model, full


def test_predict_scene_independent_of_batch(tiny_pair, tiny_config):
    model, _ = _check_independent_of_batch(tiny_pair, tiny_config)
    assert model.extractor.shares_stem  # 8 -> 16: conv1 on the im2col side


def test_predict_scene_independent_of_batch_per_tap_side(per_tap_pair, tiny_config):
    model, _ = _check_independent_of_batch(per_tap_pair, tiny_config)
    assert model.extractor.shares_stem


@pytest.mark.parametrize("classes,bands,patch,w1,seed", [(7, 48, 15, 32, 5), (12, 176, 7, 32, 5),
                                                        (5, 16, 5, 16, 7)],
                         ids=["houston", "hyrank", "synth"])
def test_predict_scene_independent_of_batch_at_preset_shapes(classes, bands, patch, w1, seed):
    """At the houston, hyrank and synth presets' class counts, bands, patch
    sizes and widths, labels hold although the head's logits need not
    (README).  The model seeds give three labels at each shape; at seed 0
    the houston-shaped model labels every pixel alike, and at seed 5 the
    synth-shaped one does, which would pin nothing."""
    pair = synth_domain_pair(num_classes=classes, bands=bands, blob_grid=4, blob_size=9, seed=7)
    config = TrainConfig(patch_size=patch, unit_channels=(w1, 2 * w1, w1))
    model, labels = _check_independent_of_batch(pair, config, seed=seed)
    assert model.extractor.shares_stem and len(np.unique(labels)) > 1


def _trained(pair, config, seed=0):
    """A model with non-trivial batch-norm statistics, so its labels vary."""
    (scene, labels), _ = pair
    model = build_model(config, labels.num_classes, scene.bands, seed=seed)
    src = PatchSource(scene, config.patch_size)
    model.features(src.batch(labeled_pixels(labels)).patches, training=True)
    return model


def _check_shared_matches_per_patch(pair, config, monkeypatch, strip_bytes, map_all, seed=0):
    (scene, labels), _ = pair
    model = _trained(pair, config, seed)
    sparse = LabelMap(labels=np.where(np.arange(labels.labels.size).reshape(labels.labels.shape)
                                      % 3 == 0, labels.labels, 0))
    monkeypatch.setattr(conv, "COL_BYTES", strip_bytes)
    assert model.extractor.shares_stem
    shared = [predict_scene(model, scene, lm, config, map_all=map_all, batch=batch)[0]
              for lm in (labels, sparse) for batch in (7, 100)]
    monkeypatch.setattr(FeatureExtractor, "shares_stem", False)
    for raster, (lm, batch) in zip(shared, [(lm, b) for lm in (labels, sparse) for b in (7, 100)]):
        per_patch, _ = predict_scene(model, scene, lm, config, map_all=map_all, batch=batch)
        assert np.array_equal(raster, per_patch)
    assert len(np.unique(shared[0])) > 1


@pytest.mark.parametrize("strip_bytes", [1, 100_000, conv.COL_BYTES])
@pytest.mark.parametrize("map_all", [True, False])
def test_predict_scene_shared_stem_matches_per_patch(per_tap_pair, tiny_config, monkeypatch,
                                                     strip_bytes, map_all):
    """Strips of every height (one pixel row at 1 byte) and both label
    densities give the raster the per-patch path gives."""
    _check_shared_matches_per_patch(per_tap_pair, tiny_config, monkeypatch, strip_bytes, map_all)


@pytest.mark.parametrize("strip_bytes", [1, 100_000, conv.COL_BYTES])
@pytest.mark.parametrize("map_all", [True, False])
def test_predict_scene_shared_stem_matches_per_patch_im2col_side(tiny_pair, tiny_config,
                                                                 monkeypatch, strip_bytes,
                                                                 map_all):
    """The same with conv1 on the im2col side (8 bands -> 16).  Model seed 4
    labels the tiny pair's pixels in two classes; seed 0 in one."""
    _check_shared_matches_per_patch(tiny_pair, tiny_config, monkeypatch, strip_bytes, map_all,
                                    seed=4)


@pytest.mark.parametrize("classes,bands,patch,w1,side,heights", [
    (5, 16, 5, 16, (5, 9), [12] * 4),  # synth-grid's 45x45 target: spans of 12
    (7, 48, 15, 32, (3, 10), [14, 14, 4]),  # houston-train's 30x30 target: spans of 15
    (12, 176, 7, 32, (10, 8), [10] * 8),  # hyrank-map's 80x80 target: spans of 10
], ids=["synth", "houston", "hyrank"])
def test_strip_plan_at_benchmark_shapes(monkeypatch, classes, bands, patch, w1, side, heights):
    """The pixel rows each strip of a full map computes stem maps for.  The
    rows are cut into spans of at most twice the halo every strip pays
    (``conv.class_rows(ps - 1, ps)``: 6, 36 and 12 rows at patch 5, 15 and
    7) and of at most ``conv.COL_BYTES`` of maps; a batch of 100 pixels that
    crosses a span's end opens the next strip."""
    (scene, labels), _ = synth_domain_pair(num_classes=classes, bands=bands, blob_grid=side[0],
                                           blob_size=side[1], seed=1)
    config = TrainConfig(patch_size=patch, unit_channels=(w1, 2 * w1, w1))
    model = build_model(config, labels.num_classes, scene.bands)
    strips = []

    def window_stems(self, rows):
        strips.append(rows.shape[0] - (patch - 1))
        return SimpleNamespace(gather=lambda tops: tops)

    monkeypatch.setattr(FeatureExtractor, "window_stems", window_stems)
    monkeypatch.setattr(DualHeadClassifier, "predict",
                        lambda self, tops: np.ones(len(tops), dtype=np.int64))
    predict_scene(model, scene, labels, config, map_all=True)
    assert sorted(strips, reverse=True) == heights


@pytest.mark.parametrize("bands,shared", [(16, False), (40, True)], ids=["im2col", "per-tap"])
def test_sparse_strips_share_the_stem_only_where_it_pays(monkeypatch, bands, shared):
    """With every third pixel labeled, a strip at patch 5 and width 16 holds
    one batch: 100 patches over about 7 pixel rows, 2500 patch positions
    against about 3400 class-map positions.  A patch position's stem costs
    about two class-map positions with conv1 on the per-tap side, so the
    strip shares it there, and about one on the im2col side, so it is cut
    as patches there."""
    (scene, labels), _ = synth_domain_pair(num_classes=5, bands=bands, blob_grid=5, blob_size=9,
                                           seed=1)
    sparse = LabelMap(labels=np.where(np.arange(labels.labels.size).reshape(labels.labels.shape)
                                      % 3 == 0, labels.labels, 0))
    config = TrainConfig(patch_size=5, unit_channels=(16, 32, 16))
    model = build_model(config, labels.num_classes, scene.bands)
    window_stems, calls = FeatureExtractor.window_stems, []

    def spy(self, rows):
        calls.append(rows.shape[0])
        return window_stems(self, rows)

    monkeypatch.setattr(FeatureExtractor, "window_stems", spy)
    predict_scene(model, scene, sparse, config)
    assert model.extractor.shares_stem and bool(calls) is shared


def test_predict_scene_calls_predict_once_per_batch(per_tap_pair, tiny_config, monkeypatch):
    """Every batch goes through ``DualHeadClassifier.predict`` (the benchmark
    times scene inference by that call), gathered stems included."""
    (scene, labels), _ = per_tap_pair
    model = _trained(per_tap_pair, tiny_config)
    calls = []

    def predict(self, x):
        calls.append(x)
        return np.ones(len(x.h.data if isinstance(x, Stem) else x.data), dtype=np.int64)

    monkeypatch.setattr(DualHeadClassifier, "predict", predict)
    for batch in (7, 100):
        calls.clear()
        predict_scene(model, scene, labels, tiny_config, map_all=True, batch=batch)
        assert len(calls) == -(-scene.height * scene.width // batch)
        assert all(isinstance(x, Stem) for x in calls)


@pytest.mark.parametrize("bands,w1", [(40, 16 + r) for r in range(1, 9)])
def test_predict_scene_falls_back_to_patches(bands, w1, monkeypatch):
    """Where the shared stem would not be exact, every batch is cut as patches."""
    (scene, labels), _ = synth_domain_pair(num_classes=3, bands=bands, blob_grid=2, blob_size=4,
                                           seed=3)
    config = TrainConfig(patch_size=5, normalization="none", unit_channels=(w1, 2 * w1, w1))
    model = build_model(config, labels.num_classes, scene.bands)

    def refuse(*args):
        raise AssertionError("window_stems called")

    monkeypatch.setattr(FeatureExtractor, "window_stems", refuse)
    raster, _ = predict_scene(model, scene, labels, config, map_all=True, batch=5)
    assert (raster > 0).all()


def test_predict_scene_at_patch_1(tiny_pair, tiny_config, monkeypatch):
    """At patch 1 no stem is shared (``conv2d_windows`` takes windows of 3
    and up), so every batch of a full map is cut as patches, and the labels
    do not depend on the batch.  Four epochs at seed 2 give three labels."""
    config = replace(tiny_config, patch_size=1, epochs=4)
    model = fit(config, *tiny_pair, seed=2).model
    monkeypatch.setattr(FeatureExtractor, "window_stems", None)  # never called
    target = tiny_pair[1]
    full, pixels = predict_scene(model, *target, config, map_all=True)
    for batch in (7, 500):
        assert np.array_equal(predict_scene(model, *target, config, map_all=True,
                                            batch=batch)[0], full)
    assert len(pixels) == full.size and len(np.unique(full)) == 3


@pytest.mark.slow
def test_overfit_source_scores_high(tiny_pair):
    from crossscene.training import LossWeights

    cfg = TrainConfig(epochs=125, batch=50, patch_size=5, normalization="none",
                      unit_channels=(16, 32, 16),
                      loss_weights=LossWeights(lambda_lmmd=0.0, lambda_st=0.0))  # supervised only
    res = fit(cfg, tiny_pair[0], tiny_pair[1])  # 500 steps on 225 px: overfit
    rep, _ = evaluate_scene(res.model, tiny_pair[0][0], tiny_pair[0][1], cfg)
    assert rep.oa > 0.95
