"""Loss contracts, gradient routing between the heads, and the training loop."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossscene import engine as E
from crossscene import training
from crossscene.data import LabelMap, PatchBatch, PatchSource, labeled_pixels, normalize_scene
from crossscene.engine import (NumericError, Tensor, lr_schedule, sgd_momentum_step,
                               conv, zero_grads)
from crossscene.model import CenterAttentionConfig, DualHeadClassifier, ExtractorConfig
from crossscene.discrepancy import lmmd, one_hot
from crossscene.training import (LossWeights, StepStats, TrainConfig, build_model,
                                 cross_entropy, fit, select_pseudo,
                                 self_training_loss, source_classification_loss,
                                 total_loss, train_step, with_changes, write_history)


def _model(classes=3, bands=8, seed=0):
    cfg = ExtractorConfig(input_bands=bands, patch_size=5, unit_channels=(16, 32, 16))
    return DualHeadClassifier(cfg, CenterAttentionConfig(), classes, seed=seed)


# -- cross entropy -------------------------------------------------------------


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((5, 4), dtype=np.float32))
    loss = cross_entropy(logits, np.array([1, 2, 3, 4, 1]), 4)
    assert loss.item() == pytest.approx(math.log(4), rel=1e-6)


def test_cross_entropy_saturated_is_near_zero():
    logits = np.full((3, 4), -30.0, dtype=np.float32)
    logits[np.arange(3), [0, 1, 2]] = 30.0
    loss = cross_entropy(Tensor(logits), np.array([1, 2, 3]), 4)
    assert loss.item() < 1e-3


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="range"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), 3)


# -- pseudo-label selection ----------------------------------------------------


def test_select_pseudo_tau_one_rejects_all(rng):
    p = rng.dirichlet(np.ones(4), size=20)
    mask, _ = select_pseudo(p, 1.0)
    assert not mask.any()


def test_select_pseudo_strict_boundary():
    p = np.array([[0.96, 0.04], [0.95, 0.05]])
    mask, hard = select_pseudo(p, 0.95)
    assert list(mask) == [True, False]
    assert hard[0] == 1


def test_select_pseudo_tie_first_index():
    p = np.array([[0.5, 0.5]])
    _, hard = select_pseudo(p, 0.3)
    assert hard[0] == 1


def test_pseudo_count_monotone_in_tau(rng):
    p = rng.dirichlet(np.ones(3) * 0.5, size=200)
    counts = [select_pseudo(p, tau)[0].sum() for tau in (0.99, 0.9, 0.8, 0.6, 0.4)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


# -- gradient routing ----------------------------------------------------------


def test_cls_loss_never_reaches_pseudo_head(rng):
    m = _model()
    zero_grads(m.parameters())
    x = Tensor(rng.normal(size=(6, 5, 5, 8)).astype(np.float32))
    z = m.features(x, training=True)
    loss = source_classification_loss(m, z, np.array([1, 2, 3, 1, 2, 3]))
    loss.backward()
    for p in m.head_psd.parameters():
        assert np.all(p.grad == 0.0)
    assert any(np.abs(p.grad).max() > 0 for p in m.head_cls.parameters())


def test_st_loss_gradient_isolation_exact(rng):
    m = _model()
    zero_grads(m.parameters())
    x = Tensor(rng.normal(size=(6, 5, 5, 8)).astype(np.float32))
    z = m.features(x, training=True)
    with E.no_grad():
        p_t = E.softmax(m.head_cls(z))
    p_t.data[0] = [0.99, 0.005, 0.005]  # force at least one confident row
    loss, count = self_training_loss(m, z, p_t, LossWeights(tau=0.95))
    assert count >= 1
    E.scale(loss, 0.7).backward()
    for p in m.head_cls.parameters():
        assert np.all(p.grad == 0.0), p.name  # exact zero, by graph structure
    assert any(np.abs(p.grad).max() > 0 for p in m.head_psd.parameters())
    assert any(np.abs(p.grad).max() > 0 for p in m.extractor.parameters()
               if p.name.endswith("weight"))


def test_st_loss_single_head_mode_reaches_cls(rng):
    m = _model()
    zero_grads(m.parameters())
    x = Tensor(rng.normal(size=(6, 5, 5, 8)).astype(np.float32))
    z = m.features(x, training=True)
    p_t = np.full((6, 3), 1 / 3)
    p_t[:, 0] = 0.98
    p_t[:, 1:] = 0.01
    loss, count = self_training_loss(m, z, Tensor(p_t.astype(np.float32)),
                                     LossWeights(tau=0.9), use_pseudo_head=False)
    loss.backward()
    assert count == 6
    assert any(np.abs(p.grad).max() > 0 for p in m.head_cls.parameters())
    for p in m.head_psd.parameters():
        assert np.all(p.grad == 0.0)


def test_st_loss_nothing_selected(rng):
    m = _model()
    zero_grads(m.parameters())
    x = Tensor(rng.normal(size=(4, 5, 5, 8)).astype(np.float32))
    z = m.features(x, training=True)
    p_t = np.full((4, 3), 1 / 3, dtype=np.float32)
    loss, count = self_training_loss(m, z, Tensor(p_t), LossWeights(tau=0.95))
    assert count == 0 and loss.item() == 0.0
    for p in m.parameters():
        assert p.grad is None or np.all(p.grad == 0.0)


def test_st_loss_uniform_pseudo_head(rng):
    m = _model()
    m.head_psd.weight.data[...] = 0.0
    m.head_psd.bias.data[...] = 0.0
    x = Tensor(rng.normal(size=(4, 5, 5, 8)).astype(np.float32))
    z = m.features(x, training=True)
    p_t = np.zeros((4, 3), dtype=np.float32)
    p_t[:2, 0] = 0.99
    p_t[:2, 1:] = 0.005
    p_t[2:] = 1 / 3
    loss, count = self_training_loss(m, z, Tensor(p_t), LossWeights(tau=0.95))
    assert count == 2
    assert loss.item() == pytest.approx(math.log(3), rel=1e-5)


# -- loss composition ----------------------------------------------------------


def test_total_loss_degenerates_to_cls():
    l_cls = Tensor(np.asarray(1.5))
    l_lmmd = Tensor(np.asarray(0.3))
    l_st = Tensor(np.asarray(0.2))
    w = LossWeights(lambda_lmmd=0.0, lambda_st=0.0)
    total = total_loss(l_cls, l_lmmd, l_st, w)
    assert total.item() == pytest.approx(1.5)


def test_total_loss_linear_in_lambdas():
    l_cls = Tensor(np.asarray(1.0))
    l_lmmd = Tensor(np.asarray(0.4))
    l_st = Tensor(np.asarray(0.25))
    vals = []
    for lam in (0.5, 1.0, 2.0):
        w = LossWeights(lambda_lmmd=lam, lambda_st=lam)
        vals.append(total_loss(l_cls, l_lmmd, l_st, w).item())
    diffs = np.diff(vals)
    assert vals[0] == pytest.approx(1.0 + 0.5 * 0.65)
    assert diffs[1] == pytest.approx(2 * diffs[0])  # doubling lambda doubles the slope


def test_total_loss_leaves_out_a_none_term():
    l_cls, l_term = Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0))
    w = LossWeights(lambda_lmmd=1.0, lambda_st=1.0)
    assert total_loss(l_cls, None, l_term, w).item() == pytest.approx(2.0)
    assert total_loss(l_cls, l_term, None, w).item() == pytest.approx(2.0)
    assert total_loss(l_cls, None, None, w) is l_cls


def _uses_target(cfg):
    return cfg.loss_weights.lambda_lmmd > 0 or cfg.loss_weights.lambda_st > 0


def test_zero_lambda_never_computes_its_term(tiny_pair, tiny_config, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term with lambda 0 was computed")

    monkeypatch.setattr(training, "lmmd", refuse)
    cfg = with_changes(tiny_config, {"loss_weights": {"lambda_lmmd": 0.0, "tau": 0.4}})
    assert fit(cfg, *tiny_pair).history[-1]["pseudo_count"] > 0  # self-training still ran
    monkeypatch.undo()
    monkeypatch.setattr(training, "self_training_loss", refuse)
    cfg = with_changes(tiny_config, {"loss_weights": {"lambda_st": 0.0}})
    assert fit(cfg, *tiny_pair).history[-1]["loss_lmmd"] > 0  # alignment still ran


def test_fit_draws_a_target_batch_only_for_a_term(tiny_pair, tiny_config, monkeypatch):
    targets = []
    step = training.train_step

    def recording_step(model, source_batch, target_batch, config, progress):
        targets.append(target_batch is not None)
        return step(model, source_batch, target_batch, config, progress)

    monkeypatch.setattr(training, "train_step", recording_step)
    for lmmd_weight, st_weight in [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)]:
        cfg = with_changes(tiny_config, {"loss_weights": {"lambda_lmmd": lmmd_weight,
                                                          "lambda_st": st_weight}})
        targets.clear()
        fit(cfg, *tiny_pair)
        assert targets and set(targets) == {_uses_target(cfg)}, (lmmd_weight, st_weight)


# -- the step and the loop -----------------------------------------------------


def _step_once(pair, cfg, steps=1):
    (src_scene, src_labels), (tgt_scene, tgt_labels) = pair
    src_scene = normalize_scene(src_scene, cfg.normalization)
    tgt_scene = normalize_scene(tgt_scene, cfg.normalization)
    model = build_model(cfg, src_labels.num_classes, src_scene.bands)
    sp, tp = PatchSource(src_scene, cfg.patch_size), PatchSource(tgt_scene, cfg.patch_size)
    spix, tpix = labeled_pixels(src_labels), labeled_pixels(tgt_labels)
    out = []
    for k in range(steps):
        chunk = spix[k * cfg.batch : (k + 1) * cfg.batch]
        sb = sp.batch(chunk, src_labels.labels[chunk[:, 0], chunk[:, 1]])
        tb = tp.batch(tpix[k * cfg.batch : (k + 1) * cfg.batch]) if _uses_target(cfg) else None
        out.append(train_step(model, sb, tb, cfg, progress=0.0))
    return model, out


def serial_train_step(model, source_batch, target_batch, config, progress):
    """The oracle for ``train_step``: both extractor passes and one backward
    walk over the whole step, one after the other on the calling thread."""
    weights = config.loss_weights
    lr = lr_schedule(progress, config.lr0)
    params = model.parameters()
    zero_grads(params)

    z_s = model.features(source_batch.patches, training=True)
    l_cls = source_classification_loss(model, z_s, source_batch.labels)

    l_lmmd = None
    l_st = None
    pseudo_count = 0
    if target_batch is not None:
        z_t = model.features(target_batch.patches, training=True)
        with E.no_grad():
            p_t = E.softmax(model.head_cls(z_t))
        if weights.lambda_lmmd > 0:
            ys = one_hot(source_batch.labels, model.num_classes)
            l_lmmd = lmmd(z_s, ys, z_t, p_t.data)
        if weights.lambda_st > 0:
            l_st, pseudo_count = self_training_loss(
                model, z_t, p_t, weights, use_pseudo_head=config.ablation.use_pseudo_head)

    total = total_loss(l_cls, l_lmmd, l_st, weights)
    total.backward()
    sgd_momentum_step(params, lr)
    return StepStats(
        lr=lr,
        loss_total=float(total.item()),
        loss_cls=float(l_cls.item()),
        loss_lmmd=float(l_lmmd.item()) if l_lmmd is not None else 0.0,
        loss_st=float(l_st.item()) if l_st is not None else 0.0,
        pseudo_count=pseudo_count,
    )


STREAM_ARMS = {
    "full": {},
    "attention off": {"ablation": {"use_attention": False}},
    "source only": {"loss_weights": {"lambda_lmmd": 0.0, "lambda_st": 0.0}},
}


def compare_streamed_to_serial(steps=3):
    """{arm: [names of state arrays whose bits differ, pseudo labels taken]}
    after ``steps`` of ``train_step`` and of ``serial_train_step`` from one
    init on the ``tiny_pair`` domains."""
    from crossscene.data import ShiftSpec, synth_domain_pair

    (src, src_labels), (tgt, tgt_labels) = synth_domain_pair(
        num_classes=3, bands=8, blob_grid=3, blob_size=5, shift=ShiftSpec(1.3, 0.1),
        noise_sigma=0.05, seed=7)
    base = TrainConfig(epochs=2, batch=50, patch_size=5, normalization="none",
                       unit_channels=(16, 32, 16),
                       loss_weights=LossWeights(tau=0.4))  # low enough to take pseudo labels
    sp, tp = PatchSource(src, base.patch_size), PatchSource(tgt, base.patch_size)
    spix, tpix = labeled_pixels(src_labels), labeled_pixels(tgt_labels)
    out = {}
    for arm, changes in STREAM_ARMS.items():
        cfg = with_changes(base, changes)
        needs_target = _uses_target(cfg)
        streamed, serial = (build_model(cfg, src_labels.num_classes, src.bands) for _ in range(2))
        pseudo = 0
        for k in range(steps):
            chunk = spix[k * cfg.batch : (k + 1) * cfg.batch]
            sb = sp.batch(chunk, src_labels.labels[chunk[:, 0], chunk[:, 1]])
            tb = tp.batch(tpix[k * cfg.batch : (k + 1) * cfg.batch]) if needs_target else None
            a = train_step(streamed, sb, tb, cfg, progress=k / steps)
            b = serial_train_step(serial, sb, tb, cfg, progress=k / steps)
            assert a == b, (arm, k, a, b)
            pseudo += a.pseudo_count
        mine, oracle = _training_state(streamed), _training_state(serial)
        out[arm] = [[name for name in oracle if mine[name].tobytes() != oracle[name].tobytes()],
                    pseudo]
    return out


def _training_state(model):
    """Parameters, BN running buffers and momentum buffers, by name."""
    state = dict(model.named_state())
    state.update({f"{p.name}.momentum": p.momentum for p in model.parameters()})
    return state


def test_streamed_train_step_matches_serial_oracle():
    """Parameters, momentum and BN running buffers are bit for bit those of
    the serial step.  Run in a fresh process, where importing the CLI first
    fixes one BLAS thread per stream, so the two streams overlap."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = ("import crossscene.cli, json, test_training; "
            "print(json.dumps(test_training.compare_streamed_to_serial()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {arm: differ for arm, (differ, _) in result.items()} == {arm: [] for arm in STREAM_ARMS}
    assert result["full"][1] > 0  # the self-training path ran


def test_init_loss_near_log_c(tiny_pair, tiny_config):
    _, stats = _step_once(tiny_pair, tiny_config)
    assert stats[0].loss_cls == pytest.approx(math.log(3), abs=0.5)


def test_train_step_determinism(tiny_pair, tiny_config):
    _, a = _step_once(tiny_pair, tiny_config, steps=3)
    _, b = _step_once(tiny_pair, tiny_config, steps=3)
    for sa, sb in zip(a, b):
        assert sa.loss_total == sb.loss_total  # bitwise: same floats
        assert sa.loss_lmmd == sb.loss_lmmd


def test_source_only_step_is_plain_supervised(tiny_pair, tiny_config):
    cfg = with_changes(tiny_config, {"loss_weights": {"lambda_lmmd": 0.0, "lambda_st": 0.0}})
    _, stats = _step_once(tiny_pair, cfg)
    s = stats[0]
    assert s.loss_total == s.loss_cls
    assert s.loss_lmmd == 0.0 and s.loss_st == 0.0 and s.pseudo_count == 0


# Peak of the arrays numpy allocates in one source-only step at the houston
# shape (patch 15, 48 bands, channels 32/64/32, 7 classes) with 10 patches:
# 6.14 MiB when the attention block is recomputed in the backward and its
# tape keeps only GELU's Phi(x), and an im2col GEMM with whole columns
# allocates its output after them; 6.49 MiB when the output came first and
# so lived beside the padded copy of g that conv3's gx columns are cut
# from; 7.27 MiB when the tape keeps the block's six inner maps, 8.22 MiB
# when GELU keeps x and Phi(x) and batch norm a sign mask, 10.24 MiB when
# every op output stays pinned by its consumers.  The bound is 6.14 MiB
# plus ~6%.
STEP_PEAK_BOUND_MIB = 6.5
# The same step with 100 patches, where the walk peaks in conv3's VJP:
# 36.75 MiB with the block recomputed, 39.26 MiB when the recompute node
# still holds the saved Phi(x) arrays during the rerun's walk, 47.87 MiB
# when the tape keeps the block's six maps.  The bound is the first plus ~5%.
STREAM_PEAK_BOUND_MIB = 38.6
# One stream's step of 100 patches at the hyrank shape (patch 7, 176 bands,
# channels 32/64/32, 12 classes): 8.53 MiB with conv.COL_BYTES at 4 MiB,
# where its 5.6 MB column matrices go in pieces, bn2's VJP binds and conv3's
# (8.48) is next; 8.71 MiB when the depthwise VJP scattered gx into padded
# buffers and bound; 13.09 MiB with the budget at 12 MiB, which kept the
# columns whole.  The bound is the first plus ~5%.
HYRANK_STREAM_PEAK_BOUND_MIB = 9.0
HOUSTON, HYRANK = (15, 48, 7), (7, 176, 12)  # patch size, bands, classes


def _step_peak(rng, traced_peak, n, shape):
    ps, bands, classes = shape
    cfg = TrainConfig(batch=n, patch_size=ps, unit_channels=(32, 64, 32))
    model = build_model(cfg, classes, bands)
    batch = PatchBatch(patches=Tensor(rng.normal(size=(n, ps, ps, bands)).astype(np.float32)),
                       labels=np.arange(n) % classes + 1, refs=np.zeros((n, 2), dtype=np.int64))
    train_step(model, batch, None, cfg, progress=0.0)  # grads and momenta now exist
    gc.collect()
    return traced_peak(lambda: train_step(model, batch, None, cfg, progress=0.0))[1]


def test_train_step_peak_memory_guard(rng, traced_peak):
    assert _step_peak(rng, traced_peak, 10, HOUSTON) < STEP_PEAK_BOUND_MIB


def test_houston_stream_step_peak_memory_guard(rng, traced_peak):
    assert _step_peak(rng, traced_peak, 100, HOUSTON) < STREAM_PEAK_BOUND_MIB


def test_hyrank_stream_step_peak_memory_guard(rng, traced_peak):
    assert _step_peak(rng, traced_peak, 100, HYRANK) < HYRANK_STREAM_PEAK_BOUND_MIB


def test_train_step_bits_do_not_depend_on_the_column_budget(monkeypatch):
    """Two-stream steps at the houston and hyrank shapes (100 + 100
    patches), where conv2d builds its column matrices in pieces, leave the
    parameters, momenta and BN buffers of steps that build each one whole."""
    default = conv.COL_BYTES
    for ps, bands, classes in (HOUSTON, HYRANK):
        rng = np.random.default_rng(0)
        n, cfg = 100, TrainConfig(batch=100, patch_size=ps, unit_channels=(32, 64, 32))
        refs = np.zeros((n, 2), dtype=np.int64)
        source = PatchBatch(Tensor(rng.normal(size=(n, ps, ps, bands)).astype(np.float32)),
                            np.arange(n) % classes + 1, refs)
        target = PatchBatch(Tensor(rng.normal(size=(n, ps, ps, bands)).astype(np.float32)),
                            None, refs)
        assert conv._col_bytes(source.patches.data, 32) > default  # the default splits

        def state_after_two_steps(budget):
            monkeypatch.setattr(conv, "COL_BYTES", budget)
            model = build_model(cfg, classes, bands)
            for k in range(2):
                train_step(model, source, target, cfg, progress=k / 2)
            return _training_state(model)

        whole = state_after_two_steps(1 << 40)
        for budget in (default, 1):
            pieces = state_after_two_steps(budget)
            assert [k for k in whole if whole[k].tobytes() != pieces[k].tobytes()] == [], \
                (ps, budget)


@pytest.mark.parametrize("variant,ps,bands,widths,n", [
    ("d", 15, 48, (32, 64, 32), 100),  # the houston shape
    *[(v, 5, 8, (16, 32, 16), 12) for v in "abcd"],
], ids=["houston-d", "a", "b", "c", "d"])
def test_recomputed_block_keeps_the_bits(monkeypatch, variant, ps, bands, widths, n):
    """Two two-stream steps leave the parameters, momenta and BN buffers of
    steps that record the attention block as it runs.  Variant c runs GELU
    after the depthwise conv and a runs none, so the saved Phi(x) arrays are
    taken back in another order or not at all."""
    rng = np.random.default_rng(0)
    cfg = TrainConfig(batch=n, patch_size=ps, unit_channels=widths,
                      attention=CenterAttentionConfig(variant=variant))
    refs = np.zeros((n, 2), dtype=np.int64)
    source = PatchBatch(Tensor(rng.normal(size=(n, ps, ps, bands)).astype(np.float32)),
                        np.arange(n) % 7 + 1, refs)
    target = PatchBatch(Tensor(rng.normal(size=(n, ps, ps, bands)).astype(np.float32)), None, refs)

    def state_after_two_steps():
        model = build_model(cfg, 7, bands)
        for k in range(2):
            train_step(model, source, target, cfg, progress=k / 2)
        return _training_state(model)

    recomputed = state_after_two_steps()
    monkeypatch.setattr(E, "recompute", lambda fn, x, params: fn(x))
    recorded = state_after_two_steps()
    assert [k for k in recorded if recorded[k].tobytes() != recomputed[k].tobytes()] == []


def test_loss_decreases_over_first_steps(tiny_pair, tiny_config):
    (src_scene, src_labels), _ = tiny_pair
    from dataclasses import replace

    cfg = replace(tiny_config, epochs=5)
    res = fit(cfg, tiny_pair[0], tiny_pair[1])
    losses = [h["loss_cls"] for h in res.history]
    assert losses[-1] < losses[0]


def test_non_finite_loss_aborts(tiny_pair, tiny_config):
    (src_scene, src_labels), (tgt_scene, tgt_labels) = tiny_pair
    model = build_model(tiny_config, src_labels.num_classes, src_scene.bands)
    model.head_cls.weight.data[...] = np.nan
    sp = PatchSource(normalize_scene(src_scene, "none"), 5)
    pixels = labeled_pixels(src_labels)[:50]
    batch = sp.batch(pixels, src_labels.labels[pixels[:, 0], pixels[:, 1]])
    with pytest.raises(NumericError, match="non-finite"):
        train_step(model, batch, None, tiny_config, progress=0.0)


def test_fit_zero_epochs_keeps_init(tiny_pair, tiny_config, tmp_path):
    from dataclasses import replace

    cfg = replace(tiny_config, epochs=0)
    res = fit(cfg, tiny_pair[0], tiny_pair[1], out_dir=tmp_path)
    fresh = build_model(cfg, 3, 8)
    for (name, a), (_, b) in zip(res.model.named_state().items(), fresh.named_state().items()):
        assert np.array_equal(a, b), name
    assert (tmp_path / "checkpoint.bin").exists()
    assert (tmp_path / "history.log").read_text() == ""


def test_fit_history_and_lr_monotone(tiny_pair, tiny_config, tmp_path):
    from dataclasses import replace

    cfg = replace(tiny_config, epochs=4)
    res = fit(cfg, tiny_pair[0], tiny_pair[1], out_dir=tmp_path, deterministic=True)
    assert len(res.history) == 4
    lrs = [h["lr"] for h in res.history]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    for rec in res.history:
        assert set(rec) >= {"epoch", "lr", "loss_cls", "loss_lmmd", "loss_st",
                            "pseudo_count", "wall_time"}
        assert rec["wall_time"] == 0.0  # deterministic mode
    lines = (tmp_path / "history.log").read_text().splitlines()
    assert len(lines) == 4


# the fixture's tau, at which tiny_pair takes no pseudo label, and one that
# does take labels, so that the self-training loss runs on selected rows
@pytest.mark.parametrize("tau", [0.95, 0.4])
def test_fit_ignores_target_label_values(tiny_pair, tiny_config, tmp_path, tau):
    tgt_scene, tgt_labels = tiny_pair[1]
    relabeled = np.array([0, 3, 1, 2])[tgt_labels.labels]  # same labeled mask, classes permuted
    assert (relabeled != tgt_labels.labels).any()
    cfg = with_changes(tiny_config, {"loss_weights": {"tau": tau}})
    res = fit(cfg, tiny_pair[0], tiny_pair[1], out_dir=tmp_path / "a", deterministic=True)
    if tau == 0.4:
        assert sum(rec["pseudo_count"] for rec in res.history) > 0
    fit(cfg, tiny_pair[0], (tgt_scene, LabelMap(labels=relabeled)),
        out_dir=tmp_path / "b", deterministic=True)
    for name in ("checkpoint.bin", "history.log"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_fit_band_mismatch(tiny_pair, tiny_config):
    from crossscene.data import Scene

    (src_scene, src_labels), _ = tiny_pair
    bad = Scene(cube=np.zeros((10, 10, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="band"):
        fit(tiny_config, (src_scene, src_labels),
            (bad, LabelMap(labels=np.zeros((10, 10), dtype=int))))


def test_fit_batch_larger_than_source(tiny_pair, tiny_config):
    from dataclasses import replace

    cfg = replace(tiny_config, batch=100000)
    with pytest.raises(ValueError, match="batch"):
        fit(cfg, tiny_pair[0], tiny_pair[1])


def test_write_history_round_trip(tmp_path):
    import json

    recs = [{"epoch": 0, "lr": 0.01, "loss": 1.0}]
    write_history(recs, tmp_path / "h.log")
    lines = (tmp_path / "h.log").read_text().splitlines()
    assert json.loads(lines[0])["epoch"] == 0


def test_run_grid_returns_mean_and_std(tiny_pair, tiny_config, tmp_path):
    from crossscene.training import run_grid

    [(name, reports, summary)] = run_grid(
        tiny_config, [0, 1], [("", {})], tiny_pair[0], tiny_pair[1], out_dir=tmp_path)
    assert name == "" and len(reports) == 2
    mean, std = summary["oa"]
    assert 0.0 <= mean <= 1.0 and std >= 0.0
    expected = abs(reports[0].oa - reports[1].oa) / np.sqrt(2)
    assert std == pytest.approx(expected, abs=1e-12)  # two-point sample std
    assert (tmp_path / "seed_0" / "checkpoint.bin").exists()
    assert (tmp_path / "seed_1" / "checkpoint.bin").exists()


def test_run_grid_sharing_one_source_per_domain_matches_separate_sources(tiny_pair, tiny_config,
                                                                        monkeypatch):
    """A two-arm grid given each domain's PatchSource, which every run and
    its scoring share without building another, reports the metrics of arms
    fit and scored from the Scenes, each with sources of its own.  A source
    built for another patch size or normalization is refused."""
    from crossscene.evaluate import evaluate_scene
    from crossscene.training import run_grid, with_changes

    cfg = with_changes(tiny_config, {"normalization": "minmax"})
    arms = [("attn", {}), ("baseline", {"ablation": {"use_attention": False}})]
    tgt_scene, tgt_labels = tiny_pair[1]
    separate = []
    for _, changes in arms:
        arm = with_changes(cfg, changes)
        model = fit(arm, tiny_pair[0], tiny_pair[1], 0).model
        report = evaluate_scene(model, tgt_scene, tgt_labels, arm)[0]
        separate.append((report.oa, report.aa, report.kappa))
    sources = [(PatchSource(scene, cfg.patch_size, cfg.normalization), labels)
               for scene, labels in tiny_pair]
    with pytest.raises(ValueError, match="cannot serve"):
        fit(tiny_config, *sources)  # normalization "none"
    monkeypatch.setattr(PatchSource, "__init__", lambda *args: pytest.fail("a second source"))
    shared = [(r.oa, r.aa, r.kappa) for _, [r], _ in run_grid(cfg, [0], arms, *sources)]
    assert shared == separate


def test_with_changes_edits_nested_fields(tiny_config):
    from crossscene.training import with_changes

    cfg = with_changes(tiny_config, {"epochs": 3, "ablation": {"use_pseudo_head": False},
                                     "attention": {"variant": "b"}})
    assert (cfg.epochs, cfg.ablation.use_pseudo_head, cfg.attention.variant) == (3, False, "b")
    assert cfg.ablation.use_attention and cfg.batch == tiny_config.batch
    assert tiny_config.ablation.use_pseudo_head and tiny_config.attention.variant == "d"
