"""Scene data handling: bundles on disk, patches, batch streams, synthesis.

A scene bundle is a directory with ``cube.bin`` (float32 little-endian,
band-sequential), ``meta.json``, ``gt.bin`` (uint16 little-endian, row-major,
0 = unlabeled) and an optional ``classes.json`` with names and expected
per-class counts.  The synthetic generator writes the same format, so the
whole pipeline can be exercised without any real imagery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

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
        # min and max propagate NaN and show an infinity without a bool copy of the cube
        if not (np.isfinite(self.cube.min(initial=0)) and np.isfinite(self.cube.max(initial=0))):
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


@dataclass
class PatchBatch:
    """Centered patches (n, ps, ps, bands), optional labels, and their (n, 2) pixels."""

    patches: Tensor
    labels: np.ndarray | None
    refs: np.ndarray

    def __len__(self):
        return self.patches.shape[0]


# -- bundle I/O --------------------------------------------------------------


def write_atomic(path, data):
    """Write ``data`` (bytes, or str as UTF-8) to ``path``, whole or not at all.

    The bytes go to a temp file in the same directory, are flushed to disk,
    and replace ``path`` in one ``os.replace``: a reader sees the old file or
    the new one, and a failed write leaves the old file and no temp file.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    # named by process, not by tempfile.mkstemp, so the file gets the usual
    # umask permissions instead of 0600
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_bundle(scene, label_map, bundle_dir):
    """Write a scene + labels as a bundle directory (cube is stored BSQ)."""
    out = Path(bundle_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube = np.ascontiguousarray(scene.cube.astype("<f4"))
    write_atomic(out / "cube.bin", cube.transpose(2, 0, 1).tobytes())
    meta = {
        "height": scene.height,
        "width": scene.width,
        "bands": scene.bands,
        "dtype": "f32",
        "layout": "bsq",
    }
    write_atomic(out / "meta.json", json.dumps(meta, indent=1) + "\n")
    gt = label_map.labels.astype("<u2")
    write_atomic(out / "gt.bin", gt.tobytes())
    if label_map.class_names:
        payload = {"names": list(label_map.class_names)}
        if label_map.expected_counts is not None:
            payload["counts"] = [int(c) for c in label_map.expected_counts]
        write_atomic(out / "classes.json", json.dumps(payload, indent=1) + "\n")
    return out


def is_list_of(value, tp):
    """Whether ``value`` is a JSON list of ``tp``; a bool is no int, a float no int."""
    return isinstance(value, list) and all(type(v) is tp for v in value)


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
    except ValueError as e:  # not JSON, or not UTF-8
        raise BundleError(f"unparseable {meta_path}: {e}") from e
    if not isinstance(meta, dict):
        raise BundleError(f"bad metadata in {meta_path}: not a JSON object")
    for key in ("height", "width", "bands"):
        if type(meta.get(key)) is not int or meta[key] < 1:  # a bool is no int
            raise BundleError(f"bad metadata in {meta_path}: {key} must be an integer >= 1, "
                              f"got {meta.get(key)!r}")
    h, w, b = meta["height"], meta["width"], meta["bands"]
    if meta.get("dtype") != "f32":
        raise BundleError(f"unknown cube dtype {meta.get('dtype')!r} (only f32 supported)")
    if meta.get("layout") != "bsq":
        raise BundleError(f"unknown cube layout {meta.get('layout')!r} (only bsq supported)")

    # the byte length is checked before any read: a partial element cannot be decoded
    size = cube_path.stat().st_size
    if size != h * w * b * 4:
        raise BundleError(f"cube size mismatch in {cube_path}: metadata says {h}x{w}x{b} f32 "
                          f"values ({h * w * b * 4} bytes), the file has {size} bytes")
    # the one copy, filled a band at a time through one band's buffer
    cube = np.empty((h, w, b), dtype=np.float32)
    band = np.empty((h, w), dtype="<f4")
    with open(cube_path, "rb") as f:
        for k in range(b):
            if f.readinto(band.reshape(-1).view(np.uint8)) != band.nbytes:
                raise BundleError(f"{cube_path} ended in band {k} of {b} while it was read")
            cube[:, :, k] = band

    gt_raw = gt_path.read_bytes()
    if len(gt_raw) != h * w * 2:
        raise BundleError(f"label raster size mismatch in {gt_path}: metadata says {h}x{w} u16 "
                          f"labels ({h * w * 2} bytes), the file has {len(gt_raw)} bytes")
    labels = np.frombuffer(gt_raw, dtype="<u2").reshape(h, w).astype(np.int32)

    class_names, counts = [], None
    classes_path = bundle / "classes.json"
    if classes_path.is_file():
        try:
            payload = json.loads(classes_path.read_text())
        except ValueError as e:  # not JSON, or not UTF-8
            raise BundleError(f"unparseable {classes_path}: {e}") from e
        if not (isinstance(payload, dict) and is_list_of(payload.get("names"), str)
                and is_list_of(payload.get("counts", []), int)):
            raise BundleError(f"malformed {classes_path}: names must be a list of strings, "
                              f"counts (optional) a list of integers")
        class_names, counts = payload["names"], payload.get("counts")
        if class_names and labels.max() > len(class_names):
            raise BundleError(
                f"label value {labels.max()} exceeds the {len(class_names)} classes "
                f"declared in {classes_path}"
            )
        if counts is not None:
            actual = [int((labels == c + 1).sum()) for c in range(len(class_names))]
            if actual != counts:
                raise BundleError(
                    f"per-class counts in {classes_path} do not match the raster: "
                    f"expected {counts}, found {actual}"
                )
    scene = Scene(cube=cube, name=bundle.name)
    return scene, LabelMap(labels=labels, class_names=class_names, expected_counts=counts)


# -- normalization -----------------------------------------------------------

NORMALIZATIONS = ("none", "minmax")


def normalize_scene(scene, mode="minmax", out=None):
    """Per-band scaling over the whole scene; constant bands map to 0.

    Returns a new float32 Scene.  Given ``out``, a float32 array of the
    scene's values (``PatchSource`` passes its padded cube), it scales ``out``
    in place by the scene's statistics instead and returns it.  Mode
    ``"none"`` returns ``scene`` (or ``out``) itself: callers do not write to
    the result.
    """
    if mode not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return scene if out is None else out
    values = scene.cube.astype(np.float32, copy=out is None)  # without out, the one copy
    lo = values.min(axis=(0, 1), keepdims=True)
    span = values.max(axis=(0, 1), keepdims=True) - lo
    cube = values if out is None else out
    cube -= lo
    cube /= np.where(span > 0, span, 1.0)
    cube[:, :, ~(span[0, 0] > 0)] = 0.0
    return Scene(cube=cube, name=scene.name) if out is None else cube


# -- patch extraction --------------------------------------------------------


class PatchSource:
    """Patch extractor over a scene normalized by ``normalize_scene`` and
    mirrored past its edges, the edge pixel not repeated.

    The padded cube is the source's one copy of the scene, and the scene can
    be dropped once the source exists.  It is normalized in place by the
    scene's statistics: reflection only copies values, so each value gets the
    bits it gets in the normalized scene.
    """

    def __init__(self, scene, ps, normalization="none"):
        if ps % 2 == 0:
            raise ValueError(f"patch size must be odd, got {ps}")
        self.height, self.width, self.bands = scene.cube.shape
        self.ps, self.normalization = ps, normalization
        half = ps // 2
        padded = np.pad(scene.cube.astype(np.float32, copy=False),
                        ((half, half), (half, half), (0, 0)), mode="reflect")
        self._padded = normalize_scene(scene, normalization, out=padded)

    def batch(self, pixels, labels=None):
        """A PatchBatch of the patches centered on the (n, 2) ``(row, col)`` pixels."""
        ps = self.ps
        out = np.empty((len(pixels), ps, ps, self.bands), dtype=np.float32)
        # one slice copy per pixel beats a fancy-index gather at the preset shapes
        for i, (r, c) in enumerate(pixels.tolist()):
            out[i] = self._padded[r : r + ps, c : c + ps]
        return PatchBatch(patches=Tensor(out), labels=labels, refs=pixels)

    def rows(self, start, stop):
        """The padded rows the patches centred on rows start..stop-1 cover:
        (stop - start + ps - 1, width + ps - 1, bands), a view.  The patch of
        pixel (r, c) is its window whose top-left is (r - start, c)."""
        return self._padded[start : stop + self.ps - 1]


def patch_source(domain, ps, normalization):
    """The PatchSource of a Scene, or ``domain`` itself if it is a
    PatchSource built for patch size ``ps`` and ``normalization``.  A source
    built for others raises ValueError: it is never reused for a config it
    does not fit."""
    if not isinstance(domain, PatchSource):
        return PatchSource(domain, ps, normalization)
    if (domain.ps, domain.normalization) != (ps, normalization):
        raise ValueError(f"a patch source built for patch size {domain.ps} and normalization "
                         f"{domain.normalization!r} cannot serve patch size {ps} and "
                         f"normalization {normalization!r}")
    return domain


# -- sample enumeration and batch streams ------------------------------------


def labeled_pixels(label_map):
    """(n, 2) ``(row, col)`` of every labeled pixel, in raster order."""
    return np.argwhere(label_map.labels > 0)


def batch_stream(count, batch_size, seed, epoch):
    """Index arrays of deterministic shuffled full batches over ``count`` samples.

    The permutation depends only on (seed, epoch); the trailing partial batch
    is dropped.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if count < 1:
        raise ValueError("no samples to draw batches from")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(epoch))))
    order = rng.permutation(count)
    stop = count - count % batch_size
    return [order[start : start + batch_size] for start in range(0, stop, batch_size)]


def cycled_batches(count, batch_size, seed):
    """Endless full-batch index stream; each pass reshuffles with its pass index."""
    epoch = 0
    while True:
        batches = batch_stream(count, batch_size, seed, epoch)
        if not batches:
            # fewer samples than one batch: draw with wraparound, still seeded
            rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(epoch), 1)))
            batches = [rng.choice(count, size=batch_size, replace=True)]
        yield from batches
        epoch += 1


# -- synthetic two-domain scenes ---------------------------------------------


@dataclass
class ShiftSpec:
    """Per-band affine shift applied to the target domain: t = gain*s + offset.

    Each is a scalar or one value per band; every gain is nonzero and finite,
    every offset finite.
    """

    gain: float | np.ndarray = 1.0
    offset: float | np.ndarray = 0.0

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=np.float64)
        if not (np.isfinite(gain).all() and (gain != 0).all()):
            raise ValueError(f"shift gain must be nonzero and finite, got {self.gain}")
        if not np.isfinite(np.asarray(self.offset, dtype=np.float64)).all():
            raise ValueError(f"shift offset must be finite, got {self.offset}")


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
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if bands < 2:
        raise ValueError(f"need at least 2 bands, got {bands}")
    if blob_grid < 1 or blob_size < 1:
        raise ValueError(f"blob grid and blob size must be >= 1, got {blob_grid} and {blob_size}")
    if not (0 <= noise_sigma < np.inf and 0 <= class_sigma < np.inf):
        raise ValueError(f"noise and class sigma must be finite and >= 0, "
                         f"got {noise_sigma} and {class_sigma}")
    if not -np.inf < proto_range[0] < proto_range[1] < np.inf:
        raise ValueError(f"prototype range must be finite with low < high, got {tuple(proto_range)}")
    shift = shift or ShiftSpec()
    # the largest |value| either cube can hold, short of a noise draw past 8 sigma
    ends = np.asarray(proto_range, dtype=np.float64)
    with np.errstate(over="ignore"):
        shifted = np.asarray(shift.gain)[..., None] * ends + np.asarray(shift.offset)[..., None]
        reach = max(np.abs(ends).max(), np.abs(shifted).max()) + 8 * (class_sigma + noise_sigma)
    if not reach <= np.finfo(np.float32).max:
        raise ValueError(f"the cubes would reach {reach:.3g}, past the float32 range (prototype "
                         f"range {tuple(proto_range)}, gain {shift.gain}, offset {shift.offset})")

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
    tgt = (protos * shift.gain + shift.offset)[idx] \
        + class_sigma * rng.standard_normal((side, side, bands)) \
        + noise_sigma * rng.standard_normal((side, side, bands))

    names = [f"class_{c}" for c in range(1, num_classes + 1)]
    counts = [int((labels == c).sum()) for c in range(1, num_classes + 1)]
    source = (Scene(cube=src.astype(np.float32), name="synth_source"),
              LabelMap(labels=labels.copy(), class_names=list(names), expected_counts=list(counts)))
    target = (Scene(cube=tgt.astype(np.float32), name="synth_target"),
              LabelMap(labels=labels.copy(), class_names=list(names), expected_counts=list(counts)))
    return source, target
