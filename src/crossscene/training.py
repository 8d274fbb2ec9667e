"""Loss composition, pseudo-label routing, the training loop, and the run grid.

Per step, the labeled source batch and the unlabeled target batch are
forwarded separately, on two threads (each domain normalizes with its own
batch statistics; the running buffers accumulate from both, source first).
The total loss is

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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import engine as E
from .data import (NORMALIZATIONS, BundleError, PatchSource, batch_stream, cycled_batches,
                   labeled_pixels, normalize_scene, write_atomic)
from .discrepancy import KernelSpec, lmmd, one_hot
from .engine import NumericError, Tensor, lr_schedule, sgd_momentum_step, zero_grads
from .evaluate import aggregate_runs, evaluate_scene, format_report
from .model import (CenterAttentionConfig, DualHeadClassifier, ExtractorConfig, apply_bn_updates,
                    save_checkpoint)


class ConfigError(ValueError):
    """An experiment configuration is malformed, or does not fit its data."""


@dataclass
class LossWeights:
    lambda_lmmd: float = 1.0
    lambda_st: float = 1.0
    tau: float = 0.95

    def __post_init__(self):
        for name in ("lambda_lmmd", "lambda_st"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")


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
    unit_channels: tuple[int, int, int] = (32, 64, 32)
    normalization: str = "minmax"
    ablation: Ablation = field(default_factory=Ablation)
    attention: CenterAttentionConfig = field(default_factory=CenterAttentionConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        for name in ("epochs", "alpha", "beta", "momentum", "weight_decay", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be > 0, got {self.lr0}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {list(NORMALIZATIONS)}, "
                             f"got {self.normalization!r}")
        # ExtractorConfig checks the geometry; it does not depend on the band count
        extractor_config(self, input_bands=1)


# -- losses -------------------------------------------------------------------


def cross_entropy(logits, labels, num_classes):
    """Mean cross-entropy of logits against labels 1..C, through the stable
    log-sum-exp path."""
    y = Tensor(one_hot(labels, num_classes).astype(logits.dtype))
    per_sample = E.scale(E.tsum(E.mul(y, E.log_softmax(logits)), axis=1), -1.0)
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


def self_training_loss(model, z_t, p_t, weights, use_pseudo_head=True):
    """Confidence-filtered cross-entropy on the pseudo head (or the main head
    when the dual-head route is ablated).  Returns a constant zero when no
    sample clears the threshold."""
    mask, hard = select_pseudo(p_t, weights.tau)
    if not mask.any():
        return Tensor(np.zeros((), dtype=z_t.dtype)), 0
    idx = np.nonzero(mask)[0]
    z_sel = E.gather_rows(z_t, idx)
    logits = model.head_logits(z_sel, "psd" if use_pseudo_head else "cls")
    return cross_entropy(logits, hard[idx], num_classes=model.num_classes), int(mask.sum())


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


def train_step(model, source_batch, target_batch, config, progress):
    """One optimization step; returns the step's loss components.

    The target batch may be None when neither alignment nor self-training is
    enabled (a source-only arm); then the step is plain supervised SGD on one
    stream.  Otherwise the two extractor passes, which share nothing until the
    loss, run as two streams (``E.fork_join``): the target's forward on the
    engine's side thread, with its BN running-buffer updates deferred and
    applied after the source's, as a serial forward orders them.  The heads
    and losses run on leaf copies of the two feature batches; their gradients
    then seed the two extractor walks, again run together
    (``E.backward_pair``).  The step's bits are those of running both passes
    one after the other on one thread.
    """
    abl = config.ablation
    weights = config.loss_weights
    lr = lr_schedule(progress, config.lr0, config.alpha, config.beta)
    params = model.parameters()
    zero_grads(params)

    feat_t = z_t = None
    if target_batch is not None and (abl.use_lmmd or abl.use_self_training):
        bn_updates = []
        feat_s, feat_t = E.fork_join(
            lambda: model.features(source_batch.patches, training=True),
            lambda: model.features(target_batch.patches, training=True, bn_updates=bn_updates))
        apply_bn_updates(bn_updates)
        z_t = Tensor(feat_t.data, requires_grad=True)
    else:
        feat_s = model.features(source_batch.patches, training=True)
    z_s = Tensor(feat_s.data, requires_grad=True)
    l_cls = source_classification_loss(model, z_s, source_batch.labels)

    l_lmmd = None
    l_st = None
    pseudo_count = 0
    if z_t is not None:
        p_t = E.softmax(model.head_logits(z_t, "cls")).detach()
        if abl.use_lmmd:
            ys = one_hot(source_batch.labels, model.num_classes)
            l_lmmd = lmmd(z_s, ys, z_t, p_t.data, config.kernel)
        if abl.use_self_training:
            l_st, pseudo_count = self_training_loss(
                model, z_t, p_t, weights, use_pseudo_head=abl.use_pseudo_head)

    total = total_loss(l_cls, l_lmmd, l_st, weights, abl)
    if not np.isfinite(total.data):
        raise NumericError(
            f"non-finite loss (cls={l_cls.item():.6g}, "
            f"lmmd={l_lmmd.item() if l_lmmd is not None else 0:.6g}, "
            f"st={l_st.item() if l_st is not None else 0:.6g})")
    total.backward()
    E.backward_pair(feat_s, z_s.grad, feat_t, z_t.grad if z_t is not None else None)
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
        unit_channels=config.unit_channels,
        use_attention=config.ablation.use_attention,
    )


def build_model(config, num_classes, input_bands):
    return DualHeadClassifier(extractor_config(config, input_bands), config.attention,
                              num_classes, seed=config.seed)


def fit(config, source, target, out_dir=None, deterministic=False):
    """Train on a (Scene, LabelMap) source and an unlabeled target scene.

    Target label values are never read here: the target's labeled mask only
    picks the pixels to adapt on, and the labels stay in the bundle for later
    evaluation.  With ``out_dir`` the checkpoint, the per-epoch history
    (one JSON record per line) and nothing else are written there.  In
    deterministic mode the wall-time field is recorded as 0 so reruns
    produce byte-identical artifacts.
    """
    src_scene, src_labels = source
    tgt_scene, tgt_labels = target
    if src_scene.bands != tgt_scene.bands:
        raise BundleError(
            f"band mismatch: source has {src_scene.bands} bands, target has {tgt_scene.bands}")

    src_scene = normalize_scene(src_scene, config.normalization)
    tgt_scene = normalize_scene(tgt_scene, config.normalization)
    num_classes = src_labels.num_classes
    model = build_model(config, num_classes, src_scene.bands)

    src_pixels = labeled_pixels(src_labels)
    tgt_pixels = labeled_pixels(tgt_labels)
    steps_per_epoch = len(src_pixels) // config.batch
    if steps_per_epoch == 0 and config.epochs > 0:
        raise ConfigError(
            f"batch size {config.batch} exceeds the {len(src_pixels)} labeled source pixels")

    src_patches = PatchSource(src_scene, config.patch_size)
    tgt_patches = PatchSource(tgt_scene, config.patch_size)
    needs_target = config.ablation.use_lmmd or config.ablation.use_self_training
    stream_seeds = np.random.SeedSequence(config.seed).generate_state(2).tolist()
    tgt_iter = cycled_batches(len(tgt_pixels), config.batch, stream_seeds[1])

    total_steps = config.epochs * steps_per_epoch
    done = 0
    history = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        sums = np.zeros(4)
        pseudo = 0
        seen = 0
        last_lr = None
        for idx in batch_stream(len(src_pixels), config.batch, stream_seeds[0], epoch):
            pixels = src_pixels[idx]
            sbatch = src_patches.batch(pixels, src_labels.labels[pixels[:, 0], pixels[:, 1]])
            tbatch = tgt_patches.batch(tgt_pixels[next(tgt_iter)]) if needs_target else None
            w = done / total_steps
            stats = train_step(model, sbatch, tbatch, config, w)
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
        checkpoint, _ = save_checkpoint(model, out / "checkpoint.bin")
        write_history(history, out / "history.log")
    return FitResult(model=model, history=history, checkpoint=checkpoint)


def write_history(history, path):
    """One JSON record per line, keys in a fixed order."""
    lines = [json.dumps(rec, sort_keys=True) for rec in history]
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def with_changes(obj, changes):
    """``obj`` with ``changes`` applied, where a dict value edits a nested dataclass."""
    return replace(obj, **{key: with_changes(getattr(obj, key), value)
                           if isinstance(value, dict) else value
                           for key, value in changes.items()})


def run_grid(train, seeds, arms, source, target, out_dir=None, deterministic=False):
    """Fit and score one run per (arm, seed): arms outer, seeds inner.

    An arm is ``(name, changes)``, with ``changes`` a nested dict applied to
    ``train`` by ``with_changes`` (e.g. ``{"attention": {"variant": "c"}}``).
    Each run is scored on the target labels, which ``fit`` itself never reads,
    and prints one line.  With ``out_dir`` each run writes ``seed_<s>/`` there
    (checkpoint, index, history and ``report.txt``), so give it one arm.
    Returns ``(name, reports, aggregate_runs(reports))`` per arm.
    """
    results = []
    for name, changes in arms:
        base = with_changes(train, changes)
        reports = []
        for seed in seeds:
            cfg = replace(base, seed=int(seed))
            run_dir = Path(out_dir) / f"seed_{seed}" if out_dir is not None else None
            res = fit(cfg, source, target, out_dir=run_dir, deterministic=deterministic)
            report, _ = evaluate_scene(res.model, target[0], target[1], cfg)
            if run_dir is not None:
                write_atomic(run_dir / "report.txt",
                             format_report(report, target[1].class_names) + "\n")
            label = f"{name} seed {seed}" if name else f"seed {seed}"
            print(f"[{label}] target OA {report.oa * 100:.2f}  AA {report.aa * 100:.2f}  "
                  f"Kappa x 100 {report.kappa * 100:.2f}")
            reports.append(report)
        results.append((name, reports, aggregate_runs(reports)))
    return results
