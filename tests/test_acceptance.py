"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py`. The synthetic end-to-end
criterion trains a 5-arm ablation grid over 3 seeds and takes several
minutes on one CPU core; everything else is fast. The real-data criterion
is skipped (not failed) unless CROSSSCENE_PAVIA_DIR points at bundles.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.checks import run_all_checks
from crossscene.data import ShiftSpec, load_scene, synth_domain_pair
from crossscene.discrepancy import lmmd, lmmd_oracle, mmd_biased, one_hot
from crossscene.engine import Tensor, lr_schedule, zero_grads
from crossscene.evaluate import evaluate_scene, metrics
from crossscene.model import (CenterAttentionBlock, CenterAttentionConfig,
                              DualHeadClassifier, ExtractorConfig)
from crossscene.training import (ABLATION_GRIDS, LossWeights, TrainConfig, fit,
                                 self_training_loss, with_changes)

# The controlled domain-adaptation experiment: values pinned by the criterion
# (shift, noise, classes, bands, ~2000 px/domain, 30 epochs, 3 seeds) plus
# the free experiment knobs recorded in the design notes.
SYNTH = dict(num_classes=5, bands=16, blob_grid=5, blob_size=9,
             shift=ShiftSpec(gain=1.3, offset=0.1), noise_sigma=0.05,
             proto_range=(0.35, 0.65), class_sigma=0.06)
SYNTH_TRAIN = dict(epochs=30, batch=100, patch_size=5, normalization="none",
                   unit_channels=(16, 32, 16),
                   loss_weights=LossWeights(lambda_lmmd=0.2, lambda_st=0.2))
SEEDS = (0, 1, 2)
ARMS = ABLATION_GRIDS["modules"]  # baseline, attn, attn+lmmd, attn+st, full


def _line(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    return ok


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    reports, ok = run_all_checks(seed=0, tolerance=1e-4, step=1e-5)
    elapsed = time.perf_counter() - t0
    worst = max(reports, key=lambda r: r.max_rel_err)
    names = {r.name for r in reports}
    coverage = (names >= {f"attention_block_{v}" for v in "abcd"}
                and "lmmd" in names and "full_model" in names)
    ok = ok and coverage and elapsed < 120
    assert _line("1 gradient-correctness",
                 ok, f"{len(reports)} checks, worst {worst.name} {worst.max_rel_err:.2e}, "
                     f"{elapsed:.1f}s")


def test_criterion_2_lmmd_oracle_equivalence():
    rng = np.random.default_rng(42)
    bw = 1.3
    worst = 0.0
    for _ in range(50):
        n_s, n_t = rng.integers(2, 9), rng.integers(2, 9)
        c, d = rng.integers(1, 5), rng.integers(1, 6)
        zs, zt = rng.normal(size=(n_s, d)), rng.normal(size=(n_t, d))
        ys = one_hot(rng.integers(1, c + 1, size=n_s), c)
        pt = rng.dirichlet(np.ones(c), size=n_t)
        worst = max(worst, abs(lmmd(Tensor(zs), ys, Tensor(zt), pt, bw).item()
                               - lmmd_oracle(zs, ys, zt, pt, bw)))
    zs, zt = rng.normal(size=(6, 3)), rng.normal(size=(8, 3))
    uni = abs(lmmd(Tensor(zs), np.ones((6, 1)), Tensor(zt), np.ones((8, 1)), bw).item()
              - mmd_biased(zs, zt, bw).item())
    ok = worst < 1e-10 and uni < 1e-10
    assert _line("2 lmmd-oracle-equivalence", ok,
                 f"50 instances, worst |diff| {worst:.2e}; C=1 vs mmd {uni:.2e}")


def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(0)
    checks = {}

    # attention block zero-weight identity, all four variants
    x = Tensor(rng.normal(size=(2, 5, 5, 8)).astype(np.float32))
    ident = True
    for variant in "abcd":
        blk = CenterAttentionBlock(8, CenterAttentionConfig(variant=variant),
                                   np.random.default_rng(1), np.float32, "b")
        for layer in (blk.key, blk.value, blk.query):
            layer.weight.data[...] = 0.0
            layer.bias.data[...] = 0.0
        ident &= np.array_equal(blk(x).data, x.data)
    checks["zero-weight-identity"] = ident

    # softmax normalization
    p = E.softmax(Tensor(rng.normal(size=(40, 6)) * 8)).data
    checks["softmax-normalized"] = bool((p >= 0).all()
                                        and np.abs(p.sum(1) - 1).max() < 1e-6)

    # self-training gradients never reach the main head (exact zeros)
    model = DualHeadClassifier(ExtractorConfig(input_bands=6, patch_size=5,
                                               unit_channels=(16, 32, 16)),
                               CenterAttentionConfig(), 3, seed=0)
    zero_grads(model.parameters())
    xb = Tensor(rng.normal(size=(6, 5, 5, 6)).astype(np.float32))
    z = model.features(xb, training=True)
    with E.no_grad():
        p_t = E.softmax(model.head_cls(z))
    p_t.data[:3] = [0.98, 0.01, 0.01]
    loss, count = self_training_loss(model, z, p_t, LossWeights(tau=0.95))
    E.scale(loss, 0.3).backward()
    checks["st-isolated-from-cls"] = count > 0 and all(
        np.all(q.grad == 0.0) for q in model.head_cls.parameters())

    # perturbing the pseudo head leaves inference bitwise unchanged
    model.features(xb, training=True)
    before = model.predict(xb)
    zb = model.features(xb, training=False).data.copy()
    model.head_psd.weight.data += 55.0
    checks["psd-free-inference"] = (np.array_equal(before, model.predict(xb))
                                    and np.array_equal(zb, model.features(xb, training=False).data))

    # learning-rate schedule endpoints
    checks["lr-endpoints"] = (abs(lr_schedule(0.0, 0.01, 10, 0.75) - 0.01) < 1e-12
                              and abs(lr_schedule(1.0, 0.01, 10, 0.75) - 1.6556e-3) < 1e-6)

    ok = all(checks.values())
    assert _line("3 structural-invariants", ok,
                 ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_4_metrics_oracle():
    rep = metrics(np.array([[2, 1], [0, 3]]))
    hand = (abs(rep.oa - 5 / 6) < 1e-12 and abs(rep.aa - 5 / 6) < 1e-12
            and abs(rep.kappa - 2 / 3) < 1e-12)
    rng = np.random.default_rng(7)
    scale_ok = True
    for _ in range(100):
        cm = rng.integers(0, 25, size=(3, 3)) + np.diag(rng.integers(1, 8, size=3))
        k = int(rng.integers(2, 9))
        scale_ok &= abs(metrics(cm * k).kappa - metrics(cm).kappa) < 1e-12
    ok = hand and scale_ok
    assert _line("4 metrics-oracle", ok,
                 f"hand case {'ok' if hand else 'FAIL'}, "
                 f"kappa scale invariance over 100 matrices {'ok' if scale_ok else 'FAIL'}")


@pytest.mark.slow
def test_criterion_5_synthetic_domain_adaptation():
    t0 = time.perf_counter()
    oa = {arm: [] for arm, _ in ARMS}
    for seed in SEEDS:
        source, target = synth_domain_pair(seed=seed, **SYNTH)
        for arm, changes in ARMS:
            cfg = with_changes(TrainConfig(**SYNTH_TRAIN), changes)
            result = fit(cfg, source, target, seed=seed)
            report, _ = evaluate_scene(result.model, target[0], target[1], cfg)
            oa[arm].append(report.oa * 100)
    elapsed = time.perf_counter() - t0

    table = " | ".join(
        f"{arm} {np.mean(vals):.1f}" for arm, vals in oa.items())
    print(f"\n  per-arm mean target OA: {table}", flush=True)
    for arm, vals in oa.items():
        print(f"    {arm:10s} " + "  ".join(f"{v:6.2f}" for v in vals), flush=True)

    gap = np.mean(oa["full"]) - np.mean(oa["baseline"])
    best_seeds = sum(
        all(oa["full"][i] >= oa[arm][i] for arm, _ in ARMS) for i in range(len(SEEDS)))
    ok = gap >= 5.0 and best_seeds >= 2 and elapsed < 15 * 60
    assert _line("5 synthetic-domain-adaptation", ok,
                 f"full - baseline = {gap:+.2f} pts (>= 5), "
                 f"full best in {best_seeds}/3 seeds (>= 2), {elapsed / 60:.1f} min (< 15)")


def test_criterion_6_determinism(tmp_path):
    source, target = synth_domain_pair(seed=3, num_classes=3, bands=8,
                                       blob_grid=3, blob_size=5,
                                       shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05)
    cfg = TrainConfig(epochs=5, batch=50, patch_size=5, normalization="none",
                      unit_channels=(16, 32, 16),
                      loss_weights=LossWeights(lambda_lmmd=0.2, lambda_st=0.2, tau=0.7))
    fit(cfg, source, target, seed=11, out_dir=tmp_path / "a", deterministic=True)
    fit(cfg, source, target, seed=11, out_dir=tmp_path / "b", deterministic=True)
    ck = (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
         (tmp_path / "b" / "checkpoint.bin").read_bytes()
    hist = (tmp_path / "a" / "history.log").read_bytes() == \
           (tmp_path / "b" / "history.log").read_bytes()
    idx = (tmp_path / "a" / "index.json").read_bytes() == \
          (tmp_path / "b" / "index.json").read_bytes()
    ok = ck and hist and idx
    assert _line("6 determinism", ok,
                 f"checkpoint bitwise={'ok' if ck else 'FAIL'}, "
                 f"history bitwise={'ok' if hist else 'FAIL'}")


def test_criterion_7_real_pavia_conditional():
    root = os.environ.get("CROSSSCENE_PAVIA_DIR")
    if not root or not (Path(root) / "source").is_dir() or not (Path(root) / "target").is_dir():
        print("\nACCEPTANCE 7 real-pavia: SKIP (set CROSSSCENE_PAVIA_DIR to bundles "
              "with source/ and target/)", flush=True)
        pytest.skip("real Pavia bundles not supplied")
    source = load_scene(Path(root) / "source")
    target = load_scene(Path(root) / "target")
    cfg = TrainConfig(patch_size=9, loss_weights=LossWeights(lambda_lmmd=1.0, lambda_st=0.8))
    oas = []
    for seed in range(5):
        result = fit(cfg, source, target, seed=seed)
        report, _ = evaluate_scene(result.model, target[0], target[1], cfg)
        oas.append(report.oa)
    mean_oa = float(np.mean(oas))
    ok = mean_oa >= 0.85
    assert _line("7 real-pavia", ok, f"5-seed mean target OA {mean_oa * 100:.2f}% (>= 85)")
