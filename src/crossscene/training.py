"""Loss composition, pseudo-label routing, and the training loop.

Per step, the labeled source batch and the unlabeled target batch are
forwarded separately (each domain normalizes with its own batch statistics;
the running buffers accumulate from both).  The total loss is

    total = cls + lambda_lmmd * alignment + lambda_st * self_training

where the alignment term is the class-conditional kernel discrepancy between
the two feature batches and the self-training term applies hard pseudo
labels (main-head predictions above the confidence threshold) to the pseudo
head only.  Pseudo labels and alignment weights are detached: bad target
predictions can never push gradients into the main head.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine as E
from .data import (NORMALIZATIONS, PatchSource, batch_stream, cycled_batches, labeled_refs,
                   normalize_scene, subsample_refs)
from .discrepancy import KernelSpec, lmmd, one_hot
from .engine import NumericError, Tensor, lr_schedule, sgd_momentum_step, zero_grads
from .model import CenterAttentionConfig, DualHeadClassifier, ExtractorConfig, save_checkpoint


class ConfigError(ValueError):
    """An experiment configuration is malformed, or does not fit its data."""


@dataclass
class LossWeights:
    lambda_lmmd: float = 1.0
    lambda_st: float = 1.0
    tau: float = 0.95

    def validate(self):
        if self.lambda_lmmd < 0 or self.lambda_st < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")


@dataclass
class Ablation:
    use_attention: bool = True
    use_lmmd: bool = True
    use_self_training: bool = True
    use_pseudo_head: bool = True


@dataclass
class TrainConfig:
    epochs: int = 200
    batch: int = 100
    lr0: float = 0.01
    alpha: float = 10.0
    beta: float = 0.75
    momentum: float = 0.9
    weight_decay: float = 1e-4
    patch_size: int = 9
    seed: int = 0
    unit_channels: tuple = (32, 64, 32)
    feature_mode: str = "pool"
    normalization: str = "minmax"
    target_cap: int | None = None
    soft_pseudo: bool = False
    st_warmup_epochs: int = 0
    ablation: Ablation = field(default_factory=Ablation)
    attention: CenterAttentionConfig = field(default_factory=CenterAttentionConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def validate(self):
        if self.epochs < 0 or self.batch < 1:
            raise ValueError("epochs must be >= 0 and batch >= 1")
        if self.lr0 <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("bad optimizer settings")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}; "
                             f"choose from {list(NORMALIZATIONS)}")
        # the extractor's geometry checks do not depend on the band count
        extractor_config(self, input_bands=1).validate()
        self.loss_weights.validate()
        self.attention.validate()
        self.kernel.validate()


# -- losses -------------------------------------------------------------------


def cross_entropy(predictions, targets, num_classes=None, from_logits=True):
    """Mean cross-entropy; stable log-sum-exp path when given logits.

    ``targets`` may be integer labels (1..C) or one-hot / soft rows (n, C).
    """
    targets = np.asarray(targets)
    if targets.ndim == 1:
        if num_classes is None:
            num_classes = predictions.shape[1]
        if targets.min() < 1 or targets.max() > num_classes:
            raise ValueError("label out of range")
        targets = one_hot(targets, num_classes)
    y = Tensor(targets.astype(predictions.dtype))
    logp = E.log_softmax(predictions) if from_logits else E.log(predictions)
    per_sample = E.scale(E.tsum(E.mul(y, logp), axis=1), -1.0)
    return E.tmean(per_sample)


def source_classification_loss(model, z_s, labels):
    """Supervised loss on the main head; no path touches the pseudo head."""
    logits = model.head_logits(z_s, "cls")
    return cross_entropy(logits, labels, num_classes=model.num_classes)


def select_pseudo(p_t, tau):
    """(mask, hard labels 1..C) for rows whose max probability exceeds tau.

    Strict inequality; argmax ties resolve to the first index.  Both outputs
    are plain arrays, detached from any gradient graph.
    """
    p = np.asarray(p_t.data if isinstance(p_t, Tensor) else p_t)
    mask = p.max(axis=1) > tau
    hard = p.argmax(axis=1) + 1
    return mask, hard


def self_training_loss(model, z_t, p_t, weights, use_pseudo_head=True, soft=False):
    """Confidence-filtered cross-entropy on the pseudo head (or the main head
    when the dual-head route is ablated).  Returns a constant zero when no
    sample clears the threshold."""
    mask, hard = select_pseudo(p_t, weights.tau)
    if not mask.any():
        return Tensor(np.zeros((), dtype=z_t.dtype)), 0
    idx = np.nonzero(mask)[0]
    z_sel = E.gather_rows(z_t, idx)
    logits = model.head_logits(z_sel, "psd" if use_pseudo_head else "cls")
    if soft:
        targets = np.asarray(p_t.data if isinstance(p_t, Tensor) else p_t)[idx]
    else:
        targets = hard[idx]
    return cross_entropy(logits, targets, num_classes=model.num_classes), int(mask.sum())


def total_loss(l_cls, l_lmmd, l_st, weights, ablation):
    """cls + lambda_lmmd * lmmd + lambda_st * st, honoring the ablation flags."""
    total = l_cls
    if ablation.use_lmmd and l_lmmd is not None:
        total = E.add(total, E.scale(l_lmmd, weights.lambda_lmmd))
    if ablation.use_self_training and l_st is not None:
        total = E.add(total, E.scale(l_st, weights.lambda_st))
    return total


# -- the step and the loop ----------------------------------------------------


@dataclass
class StepStats:
    lr: float
    loss_total: float
    loss_cls: float
    loss_lmmd: float
    loss_st: float
    pseudo_count: int
    batch_size: int


def train_step(model, source_batch, target_batch, config, progress, st_active=True):
    """One optimization step; returns the step's loss components.

    The target batch may be None when neither alignment nor self-training is
    enabled (a source-only arm); then the step is plain supervised SGD.
    """
    abl = config.ablation
    weights = config.loss_weights
    lr = lr_schedule(progress, config.lr0, config.alpha, config.beta)
    params = model.parameters()
    zero_grads(params)

    z_s = model.features(source_batch.patches, training=True)
    l_cls = source_classification_loss(model, z_s, source_batch.labels)

    l_lmmd = None
    l_st = None
    pseudo_count = 0
    if target_batch is not None and (abl.use_lmmd or abl.use_self_training):
        z_t = model.features(target_batch.patches, training=True)
        p_t = E.softmax(model.head_logits(z_t, "cls")).detach()
        if abl.use_lmmd:
            ys = one_hot(source_batch.labels, model.num_classes)
            l_lmmd = lmmd(z_s, ys, z_t, p_t.data, config.kernel)
        if abl.use_self_training and st_active:
            l_st, pseudo_count = self_training_loss(
                model, z_t, p_t, weights,
                use_pseudo_head=abl.use_pseudo_head, soft=config.soft_pseudo)

    total = total_loss(l_cls, l_lmmd, l_st, weights, abl)
    if not np.isfinite(total.data):
        raise NumericError(
            f"non-finite loss (cls={l_cls.item():.6g}, "
            f"lmmd={l_lmmd.item() if l_lmmd is not None else 0:.6g}, "
            f"st={l_st.item() if l_st is not None else 0:.6g})")
    total.backward()
    sgd_momentum_step(params, lr, config.momentum, config.weight_decay)
    return StepStats(
        lr=lr,
        loss_total=float(total.item()),
        loss_cls=float(l_cls.item()),
        loss_lmmd=float(l_lmmd.item()) if l_lmmd is not None else 0.0,
        loss_st=float(l_st.item()) if l_st is not None else 0.0,
        pseudo_count=pseudo_count,
        batch_size=len(source_batch.refs),
    )


@dataclass
class FitResult:
    model: DualHeadClassifier
    history: list
    checkpoint: Path | None = None


def extractor_config(config, input_bands):
    return ExtractorConfig(
        input_bands=input_bands,
        patch_size=config.patch_size,
        unit_channels=tuple(config.unit_channels),
        use_attention=config.ablation.use_attention,
        feature_mode=config.feature_mode,
    )


def build_model(config, num_classes, input_bands):
    return DualHeadClassifier(extractor_config(config, input_bands), config.attention,
                              num_classes, seed=config.seed)


def fit(config, source, target, out_dir=None, deterministic=False):
    """Train on a (Scene, LabelMap) source and an unlabeled target scene.

    Target labels are never read here; they stay in the bundle for later
    evaluation.  With ``out_dir`` the checkpoint, the per-epoch history
    (one JSON record per line) and nothing else are written there.  In
    deterministic mode the wall-time field is recorded as 0 so reruns
    produce byte-identical artifacts.
    """
    config.validate()
    src_scene, src_labels = source
    tgt_scene, _tgt_labels = target
    if src_scene.bands != tgt_scene.bands:
        raise ValueError(
            f"band mismatch: source has {src_scene.bands}, target has {tgt_scene.bands}")

    src_scene = normalize_scene(src_scene, config.normalization)
    tgt_scene = normalize_scene(tgt_scene, config.normalization)
    num_classes = src_labels.num_classes
    model = build_model(config, num_classes, src_scene.bands)

    src_refs = labeled_refs(src_labels)
    tgt_refs = labeled_refs(_tgt_labels, hide_labels=True)
    tgt_refs = subsample_refs(tgt_refs, config.target_cap, config.seed)
    steps_per_epoch = len(src_refs) // config.batch
    if steps_per_epoch == 0 and config.epochs > 0:
        raise ConfigError(
            f"batch size {config.batch} exceeds the {len(src_refs)} labeled source pixels")

    src_patches = PatchSource(src_scene, config.patch_size)
    tgt_patches = PatchSource(tgt_scene, config.patch_size)
    needs_target = config.ablation.use_lmmd or config.ablation.use_self_training
    stream_seeds = np.random.SeedSequence(config.seed).generate_state(2).tolist()
    tgt_iter = cycled_batches(tgt_refs, config.batch, stream_seeds[1]) if needs_target else None

    total_steps = config.epochs * steps_per_epoch
    done = 0
    history = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        st_active = epoch >= config.st_warmup_epochs
        sums = np.zeros(4)
        pseudo = 0
        seen = 0
        last_lr = None
        for refs in batch_stream(src_refs, config.batch, stream_seeds[0], epoch):
            sbatch = src_patches.batch(refs)
            tbatch = tgt_patches.batch(next(tgt_iter), with_labels=False) if needs_target else None
            w = done / total_steps
            stats = train_step(model, sbatch, tbatch, config, w, st_active=st_active)
            done += 1
            sums += (stats.loss_total, stats.loss_cls, stats.loss_lmmd, stats.loss_st)
            pseudo += stats.pseudo_count
            seen += config.batch
            last_lr = stats.lr
        elapsed = 0.0 if deterministic else time.perf_counter() - t0
        history.append({
            "epoch": epoch,
            "lr": last_lr,
            "loss": sums[0] / steps_per_epoch,
            "loss_cls": sums[1] / steps_per_epoch,
            "loss_lmmd": sums[2] / steps_per_epoch,
            "loss_st": sums[3] / steps_per_epoch,
            "pseudo_count": int(pseudo),
            "pseudo_rate": pseudo / seen if (seen and needs_target) else 0.0,
            "wall_time": round(elapsed, 6),
        })

    checkpoint = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        checkpoint, _ = save_checkpoint(model, out / "checkpoint.bin", out / "index.json")
        write_history(history, out / "history.log")
    return FitResult(model=model, history=history, checkpoint=checkpoint)


def write_history(history, path):
    """One JSON record per line, keys in a fixed order."""
    lines = [json.dumps(rec, sort_keys=True) for rec in history]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def fit_multi_seed(config, seeds, source, target, evaluate_fn, out_dir=None,
                   deterministic=False):
    """Independent runs over a seed list.

    ``evaluate_fn(model, config) -> MetricsReport`` scores each trained model
    (typically on the held-back target labels).  Returns (per-seed FitResults,
    per-seed reports, mean/sample-std summary per metric).
    """
    from dataclasses import replace

    from .evaluate import aggregate_runs

    results, reports = [], []
    for seed in seeds:
        cfg = replace(config, seed=int(seed))
        run_dir = Path(out_dir) / f"seed_{seed}" if out_dir is not None else None
        res = fit(cfg, source, target, out_dir=run_dir, deterministic=deterministic)
        results.append(res)
        reports.append(evaluate_fn(res.model, cfg))
    return results, reports, aggregate_runs(reports)
