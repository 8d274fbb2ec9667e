"""Confusion-matrix metrics, aggregation, map rendering, scene evaluation."""

import numpy as np
import pytest

from crossscene.evaluate import (MetricsReport, aggregate_runs, confusion,
                                 default_palette, evaluate_scene, format_mean_std,
                                 format_report, metrics, predict_scene, render_map,
                                 write_map)
from crossscene.training import build_model


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


def test_predict_scene_independent_of_batch(tiny_pair, tiny_config):
    (src_scene, src_labels), _ = tiny_pair
    model = build_model(tiny_config, src_labels.num_classes, src_scene.bands)
    full, _ = predict_scene(model, src_scene, src_labels, tiny_config, map_all=True, batch=500)
    raster_order = np.argwhere(np.ones(src_labels.labels.shape, dtype=bool))
    for batch in (1, 7, 100):  # two batches at a time, on two threads
        raster, pixels = predict_scene(model, src_scene, src_labels, tiny_config, map_all=True,
                                       batch=batch)
        assert np.array_equal(raster, full)
        assert np.array_equal(pixels, raster_order)


@pytest.mark.slow
def test_overfit_source_scores_high(tiny_pair):
    from dataclasses import replace

    from crossscene.training import Ablation, TrainConfig, fit

    cfg = TrainConfig(epochs=125, batch=50, patch_size=5, normalization="none",
                      unit_channels=(16, 32, 16), seed=0,
                      ablation=Ablation(True, False, False, True))  # supervised only
    res = fit(cfg, tiny_pair[0], tiny_pair[1])  # 500 steps on 225 px: overfit
    rep, _ = evaluate_scene(res.model, tiny_pair[0][0], tiny_pair[0][1], cfg)
    assert rep.oa > 0.95
