"""Scene data handling: bundles on disk, patches, batch streams, synthesis.

A scene bundle is a directory with ``cube.bin`` (float32 little-endian,
band-sequential), ``meta.json``, ``gt.bin`` (uint16 little-endian, row-major,
0 = unlabeled) and an optional ``classes.json`` with names and expected
per-class counts.  The synthetic generator writes the same format, so the
whole pipeline can be exercised without any real imagery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .engine import Tensor


class BundleError(ValueError):
    """A scene bundle is missing, malformed, or inconsistent."""


@dataclass
class Scene:
    """A hyperspectral cube, stored (height, width, bands), float32."""

    cube: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.cube.ndim != 3:
            raise BundleError(f"scene cube must be 3-D, got shape {self.cube.shape}")
        if not np.isfinite(self.cube).all():
            raise BundleError(f"scene {self.name!r} contains non-finite values")

    @property
    def height(self):
        return self.cube.shape[0]

    @property
    def width(self):
        return self.cube.shape[1]

    @property
    def bands(self):
        return self.cube.shape[2]


@dataclass
class LabelMap:
    """Integer class raster aligned with a scene; 0 marks unlabeled pixels."""

    labels: np.ndarray
    class_names: list = field(default_factory=list)
    expected_counts: list | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise BundleError("label raster must be 2-D")
        if self.labels.min() < 0:
            raise BundleError("negative label value")

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def num_classes(self):
        if self.class_names:
            return len(self.class_names)
        return int(self.labels.max())


class SampleRef(NamedTuple):
    row: int
    col: int
    label: int  # 1..C, or 0 when the label is hidden/absent


@dataclass
class PatchBatch:
    """A stack of centered patches: (n, ps, ps, bands) plus optional labels."""

    patches: Tensor
    labels: np.ndarray | None
    refs: list

    def __len__(self):
        return self.patches.shape[0]


# -- bundle I/O --------------------------------------------------------------


def save_bundle(scene, label_map, bundle_dir):
    """Write a scene + labels as a bundle directory (cube is stored BSQ)."""
    out = Path(bundle_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube = np.ascontiguousarray(scene.cube.astype("<f4"))
    (out / "cube.bin").write_bytes(cube.transpose(2, 0, 1).tobytes())
    meta = {
        "height": scene.height,
        "width": scene.width,
        "bands": scene.bands,
        "dtype": "f32",
        "layout": "bsq",
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    gt = label_map.labels.astype("<u2")
    (out / "gt.bin").write_bytes(gt.tobytes())
    if label_map.class_names:
        payload = {"names": list(label_map.class_names)}
        if label_map.expected_counts is not None:
            payload["counts"] = [int(c) for c in label_map.expected_counts]
        (out / "classes.json").write_text(json.dumps(payload, indent=1) + "\n")
    return out


def load_scene(bundle_dir):
    """Load a bundle directory -> (Scene, LabelMap).

    Raises BundleError on missing files, metadata/shape mismatches, unknown
    dtypes, or labels exceeding the class manifest.
    """
    bundle = Path(bundle_dir)
    meta_path = bundle / "meta.json"
    cube_path = bundle / "cube.bin"
    gt_path = bundle / "gt.bin"
    for p in (meta_path, cube_path, gt_path):
        if not p.is_file():
            raise BundleError(f"missing bundle file: {p}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as e:
        raise BundleError(f"unparseable {meta_path}: {e}") from e
    try:
        h, w, b = int(meta["height"]), int(meta["width"]), int(meta["bands"])
    except (KeyError, TypeError, ValueError) as e:
        raise BundleError(f"bad metadata in {meta_path}: {e}") from e
    if meta.get("dtype") != "f32":
        raise BundleError(f"unknown cube dtype {meta.get('dtype')!r} (only f32 supported)")
    if meta.get("layout") != "bsq":
        raise BundleError(f"unknown cube layout {meta.get('layout')!r} (only bsq supported)")

    raw = np.frombuffer(cube_path.read_bytes(), dtype="<f4")
    if raw.size != h * w * b:
        raise BundleError(
            f"cube size mismatch in {cube_path}: metadata says {h}x{w}x{b}={h * w * b} "
            f"values, file holds {raw.size}"
        )
    cube = raw.reshape(b, h, w).transpose(1, 2, 0).astype(np.float32)

    gt_raw = np.frombuffer(gt_path.read_bytes(), dtype="<u2")
    if gt_raw.size != h * w:
        raise BundleError(f"label raster size mismatch in {gt_path}")
    labels = gt_raw.reshape(h, w).astype(np.int32)

    class_names, counts = [], None
    classes_path = bundle / "classes.json"
    if classes_path.is_file():
        try:
            payload = json.loads(classes_path.read_text())
        except json.JSONDecodeError as e:
            raise BundleError(f"unparseable {classes_path}: {e}") from e
        class_names = list(payload.get("names", []))
        counts = payload.get("counts")
        if class_names and labels.max() > len(class_names):
            raise BundleError(
                f"label value {labels.max()} exceeds the {len(class_names)} classes "
                f"declared in {classes_path}"
            )
        if counts is not None:
            actual = [int((labels == c + 1).sum()) for c in range(len(class_names))]
            if actual != [int(c) for c in counts]:
                raise BundleError(
                    f"per-class counts in {classes_path} do not match the raster: "
                    f"expected {counts}, found {actual}"
                )
    scene = Scene(cube=cube, name=bundle.name)
    return scene, LabelMap(labels=labels, class_names=class_names, expected_counts=counts)


# -- normalization -----------------------------------------------------------

NORMALIZATIONS = ("none", "minmax", "zscore")


def normalize_scene(scene, mode="minmax"):
    """Per-band scaling over the whole scene; constant bands map to 0."""
    if mode == "none":
        return Scene(cube=scene.cube.copy(), name=scene.name)
    cube = scene.cube.astype(np.float32)
    if mode == "minmax":
        lo = cube.min(axis=(0, 1), keepdims=True)
        hi = cube.max(axis=(0, 1), keepdims=True)
        span = hi - lo
        span_safe = np.where(span > 0, span, 1.0)
        out = np.where(span > 0, (cube - lo) / span_safe, 0.0)
    elif mode == "zscore":
        mu = cube.mean(axis=(0, 1), keepdims=True)
        sd = cube.std(axis=(0, 1), keepdims=True)
        sd_safe = np.where(sd > 0, sd, 1.0)
        out = np.where(sd > 0, (cube - mu) / sd_safe, 0.0)
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return Scene(cube=out.astype(np.float32), name=scene.name)


# -- patch extraction --------------------------------------------------------


def _reflect_indices(start, count, size):
    """Mirror out-of-range indices about the edges without repeating them."""
    idx = np.arange(start, start + count)
    if size == 1:
        return np.zeros(count, dtype=np.int64)
    period = 2 * (size - 1)
    m = np.abs(idx) % period
    return np.where(m < size, m, period - m).astype(np.int64)


def extract_patch(scene, row, col, ps):
    """Centered ps x ps x bands patch with mirror-reflected borders."""
    if ps % 2 == 0:
        raise ValueError(f"patch size must be odd, got {ps}")
    if not (0 <= row < scene.height and 0 <= col < scene.width):
        raise ValueError(f"patch center ({row}, {col}) outside scene bounds")
    half = ps // 2
    rows = _reflect_indices(row - half, ps, scene.height)
    cols = _reflect_indices(col - half, ps, scene.width)
    return scene.cube[np.ix_(rows, cols)]


class PatchSource:
    """Patch extractor with a pre-reflected cube for fast repeated access."""

    def __init__(self, scene, ps):
        if ps % 2 == 0:
            raise ValueError(f"patch size must be odd, got {ps}")
        self.scene = scene
        self.ps = ps
        half = ps // 2
        rows = _reflect_indices(-half, scene.height + 2 * half, scene.height)
        cols = _reflect_indices(-half, scene.width + 2 * half, scene.width)
        self._padded = scene.cube[np.ix_(rows, cols)]

    def patch(self, row, col):
        ps = self.ps
        return self._padded[row : row + ps, col : col + ps]

    def batch(self, refs, with_labels=True, dtype=np.float32):
        """Assemble a PatchBatch for a list of SampleRefs."""
        ps = self.ps
        out = np.empty((len(refs), ps, ps, self.scene.bands), dtype=dtype)
        for i, r in enumerate(refs):
            out[i] = self._padded[r.row : r.row + ps, r.col : r.col + ps]
        labels = np.array([r.label for r in refs], dtype=np.int64) if with_labels else None
        return PatchBatch(patches=Tensor(out), labels=labels, refs=list(refs))


# -- sample enumeration and batch streams ------------------------------------


def enumerate_labeled(label_map):
    """Labeled pixels grouped by class, raster order inside each class."""
    rows, cols = np.nonzero(label_map.labels > 0)
    labels = label_map.labels[rows, cols]
    grouped = {}
    for r, c, l in zip(rows.tolist(), cols.tolist(), labels.tolist()):
        grouped.setdefault(int(l), []).append(SampleRef(r, c, int(l)))
    return dict(sorted(grouped.items()))


def labeled_refs(label_map, hide_labels=False):
    """All labeled pixels in raster order; labels optionally hidden (set 0)."""
    rows, cols = np.nonzero(label_map.labels > 0)
    labels = label_map.labels[rows, cols]
    if hide_labels:
        return [SampleRef(int(r), int(c), 0) for r, c in zip(rows, cols)]
    return [SampleRef(int(r), int(c), int(l)) for r, c, l in zip(rows, cols, labels)]


def subsample_refs(refs, cap, seed):
    """Uniform seeded subsample without replacement (order preserved)."""
    if cap is None or len(refs) <= cap:
        return list(refs)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCA9)))
    keep = np.sort(rng.choice(len(refs), size=cap, replace=False))
    return [refs[i] for i in keep]


def batch_stream(refs, batch_size, seed, epoch, drop_last=True):
    """Deterministic shuffled batches for one epoch.

    The permutation depends only on (seed, epoch).  With ``drop_last`` the
    trailing partial batch is dropped (training); without it the tail is kept
    (inference passes).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not refs:
        raise ValueError("empty reference list")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(epoch))))
    order = rng.permutation(len(refs))
    batches = []
    stop = len(refs) - (len(refs) % batch_size) if drop_last else len(refs)
    for start in range(0, stop, batch_size):
        chunk = order[start : start + batch_size]
        if drop_last and len(chunk) < batch_size:
            break
        batches.append([refs[i] for i in chunk])
    return batches


def cycled_batches(refs, batch_size, seed):
    """Endless full-batch stream; each pass reshuffles with its pass index."""
    epoch = 0
    while True:
        got = False
        for batch in batch_stream(refs, batch_size, seed, epoch, drop_last=True):
            got = True
            yield batch
        if not got:
            # fewer refs than one batch: sample with wraparound, still seeded
            rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(epoch), 1)))
            order = rng.choice(len(refs), size=batch_size, replace=True)
            yield [refs[i] for i in order]
        epoch += 1


# -- synthetic two-domain scenes ---------------------------------------------


@dataclass
class ShiftSpec:
    """Per-band affine shift applied to the target domain: t = gain*s + offset."""

    gain: float | np.ndarray = 1.0
    offset: float | np.ndarray = 0.0

    def validate(self, bands):
        gain = np.broadcast_to(np.asarray(self.gain, dtype=np.float64), (bands,))
        offset = np.broadcast_to(np.asarray(self.offset, dtype=np.float64), (bands,))
        if np.any(gain == 0):
            raise ValueError("degenerate shift: zero gain")
        return gain, offset


def synth_domain_pair(num_classes=5, bands=16, blob_grid=5, blob_size=9,
                      shift=None, noise_sigma=0.05, seed=0, class_sigma=0.06,
                      proto_range=(0.2, 0.8)):
    """Two aligned synthetic scenes with a controlled domain shift.

    Classes are Gaussian spectral prototypes laid out in a fixed grid of
    square blobs (layout independent of the seed).  The target scene applies
    a per-band affine transform to the prototypes and adds i.i.d. noise.
    ``proto_range`` sets the uniform draw for prototype reflectances; a
    narrower range packs the classes closer together, making the transfer
    problem harder for a source-only model.
    Returns ((source Scene, LabelMap), (target Scene, LabelMap)).
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if bands < 2:
        raise ValueError("need at least 2 bands")
    shift = shift or ShiftSpec()
    gain, offset = shift.validate(bands)

    side = blob_grid * blob_size
    labels = np.zeros((side, side), dtype=np.int32)
    for bi in range(blob_grid):
        for bj in range(blob_grid):
            cls = (bi * blob_grid + bj) % num_classes + 1
            labels[bi * blob_size : (bi + 1) * blob_size,
                   bj * blob_size : (bj + 1) * blob_size] = cls

    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5CE)))
    protos = rng.uniform(proto_range[0], proto_range[1], size=(num_classes, bands))

    idx = labels - 1
    src = protos[idx] + class_sigma * rng.standard_normal((side, side, bands))
    tgt = (protos * gain + offset)[idx] \
        + class_sigma * rng.standard_normal((side, side, bands)) \
        + noise_sigma * rng.standard_normal((side, side, bands))

    names = [f"class_{c}" for c in range(1, num_classes + 1)]
    counts = [int((labels == c).sum()) for c in range(1, num_classes + 1)]
    source = (Scene(cube=src.astype(np.float32), name="synth_source"),
              LabelMap(labels=labels.copy(), class_names=list(names), expected_counts=list(counts)))
    target = (Scene(cube=tgt.astype(np.float32), name="synth_target"),
              LabelMap(labels=labels.copy(), class_names=list(names), expected_counts=list(counts)))
    return source, target
