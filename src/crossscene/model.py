"""The patch classifier: attention-gated feature extractor + two affine heads.

The extractor has three convolutional units; the second one is preceded by a
center-attention block that scores every spatial position against a query
built from the patch's central spectrum and uses the result to gate a
depthwise-convolution stream (residual overall).  Two classification heads
with identical shapes but disjoint parameters sit on the pooled feature: the
main head drives classification and pseudo-label generation, the secondary
head absorbs pseudo-label supervision during self-training.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine as E
from .data import BundleError, write_atomic
from .engine import Parameter

BLOCK_VARIANTS = ("a", "b", "c", "d")
LEAKY_SLOPE = 0.01


@dataclass
class CenterAttentionConfig:
    """Placement of the activation inside the block.

    variant: 'a' no activation, 'b' after the key map, 'c' after the
    depthwise convolution, 'd' after key and value maps (default).  The
    scores are always divided by the square root of the patch side.
    """

    variant: str = "d"

    def __post_init__(self):
        if self.variant not in BLOCK_VARIANTS:
            raise ValueError(f"variant must be one of {list(BLOCK_VARIANTS)}, got {self.variant!r}")


@dataclass
class ExtractorConfig:
    input_bands: int
    patch_size: int
    unit_channels: tuple[int, int, int] = (32, 64, 32)
    use_attention: bool = True

    def __post_init__(self):
        w1, w2, w3 = self.unit_channels
        if not (w1 > 0 and w2 == 2 * w1 and w1 == w3):
            raise ValueError("unit_channels must be positive with w2 = 2*w1 = 2*w3, "
                             f"got {list(self.unit_channels)}")
        if self.patch_size < 1 or self.patch_size % 2 == 0:
            raise ValueError(f"patch_size must be odd and >= 1, got {self.patch_size}")


def kaiming_normal(rng, shape, fan_in, dtype=np.float32):
    """Fan-in Kaiming-normal draw with the leaky-rectifier gain."""
    gain = math.sqrt(2.0 / (1.0 + LEAKY_SLOPE * LEAKY_SLOPE))
    std = gain / math.sqrt(fan_in)
    return (std * rng.standard_normal(shape)).astype(dtype)


class Linear:
    def __init__(self, d_in, d_out, rng, dtype, prefix):
        self.weight = Parameter(kaiming_normal(rng, (d_in, d_out), d_in, dtype),
                                name=f"{prefix}.weight")
        self.bias = Parameter(np.zeros(d_out, dtype=dtype), name=f"{prefix}.bias")

    def __call__(self, x):
        return E.affine(x, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]


class Conv2d:
    def __init__(self, c_in, c_out, rng, dtype, prefix):
        self.weight = Parameter(kaiming_normal(rng, (c_out, c_in, 3, 3), c_in * 9, dtype),
                                name=f"{prefix}.weight")
        self.bias = Parameter(np.zeros(c_out, dtype=dtype), name=f"{prefix}.bias")

    def __call__(self, x):
        return E.conv2d(x, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]


class BatchNorm2d:
    """Per-channel batch norm followed by LeakyReLU, as one engine op; scale
    starts at 1, shift at 0.

    Uses ``batch_norm2d``'s constants: eps 1e-5, running-buffer momentum 0.1.
    """

    def __init__(self, channels, dtype, prefix):
        self.gamma = Parameter(np.ones(channels, dtype=dtype), name=f"{prefix}.scale")
        self.beta = Parameter(np.zeros(channels, dtype=dtype), name=f"{prefix}.shift")
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.prefix = prefix

    def __call__(self, x, training, bn_updates=None):
        running = (self.running_mean, self.running_var)
        if training and bn_updates is not None:
            # folded into zeros, the buffers end up holding exactly the
            # momentum-scaled batch statistics: 0 * (1 - m) + m * stat
            running = (np.zeros_like(self.running_mean), np.zeros_like(self.running_var))
            bn_updates.append((self, *running))
        return E.batch_norm2d(x, self.gamma, self.beta, *running, training=training,
                              slope=LEAKY_SLOPE)

    def parameters(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [(f"{self.prefix}.running_mean", self.running_mean),
                (f"{self.prefix}.running_var", self.running_var)]


def apply_bn_updates(bn_updates):
    """Fold running-buffer updates deferred by ``features(..., bn_updates=)``
    into the buffers, in the order the forward made them."""
    for bn, mean_step, var_step in bn_updates:
        for buf, step in ((bn.running_mean, mean_step), (bn.running_var, var_step)):
            buf *= 1.0 - E.BN_MOMENTUM
            buf += step


class CenterAttentionBlock:
    """Gate a depthwise-conv stream by per-position similarity to the center.

    Key and value maps are position-wise linear layers; the query is a linear
    map of the central spectrum.  Scores are plain scaled inner products (no
    softmax); the gated stream is added back onto the input.
    """

    def __init__(self, channels, config, rng, dtype, prefix):
        self.config = config
        self.channels = channels
        self.key = Linear(channels, channels, rng, dtype, f"{prefix}.key")
        self.value = Linear(channels, channels, rng, dtype, f"{prefix}.value")
        self.query = Linear(channels, channels, rng, dtype, f"{prefix}.query")
        self.dw_kernel = Parameter(kaiming_normal(rng, (channels, 3, 3), 9, dtype=dtype),
                                   name=f"{prefix}.dw_kernel")

    def __call__(self, x):
        n, h, w, c = x.shape
        if c != self.channels:
            raise ValueError(f"block built for {self.channels} channels, got {c}")
        if h != w or h % 2 == 0:
            raise ValueError("block needs square odd spatial dims")
        variant = self.config.variant
        p = h * w

        flat = E.reshape(x, (n * p, c))
        k = self.key(flat)
        if variant in ("b", "d"):
            k = E.gelu(k)
        v = self.value(flat)
        if variant == "d":
            v = E.gelu(v)
        q = self.query(E.center_pixel(x))  # (n, c)

        scores = E.tsum(E.mul(E.reshape(k, (n, p, c)), E.reshape(q, (n, 1, c))), axis=2)
        gate = E.mul(E.reshape(v, (n, p, c)),
                     E.reshape(E.scale(scores, 1.0 / math.sqrt(h)), (n, p, 1)))
        gate_map = E.reshape(gate, (n, h, w, c))

        conv_stream = E.depthwise_conv2d(x, self.dw_kernel)
        if variant == "c":
            conv_stream = E.gelu(conv_stream)
        return E.add(E.mul(gate_map, conv_stream), x)

    def parameters(self):
        return (self.key.parameters() + self.value.parameters()
                + self.query.parameters() + [self.dw_kernel])


class FeatureExtractor:
    """Three conv+BN+LeakyReLU units; the attention block precedes unit 2."""

    def __init__(self, config, attention, rng, dtype):
        self.config = config
        w1, w2, w3 = config.unit_channels
        self.conv1 = Conv2d(config.input_bands, w1, rng, dtype, "extractor.conv1")
        self.bn1 = BatchNorm2d(w1, dtype, "extractor.bn1")
        self.block = None
        if config.use_attention:
            self.block = CenterAttentionBlock(w1, attention, rng, dtype, "extractor.attn")
        self.conv2 = Conv2d(w1, w2, rng, dtype, "extractor.conv2")
        self.bn2 = BatchNorm2d(w2, dtype, "extractor.bn2")
        self.conv3 = Conv2d(w2, w3, rng, dtype, "extractor.conv3")
        self.bn3 = BatchNorm2d(w3, dtype, "extractor.bn3")

    def __call__(self, patches, training, bn_updates=None):
        """patches: Tensor (n, ps, ps, bands) -> pooled features (n, unit_channels[2]).

        With a ``bn_updates`` list, training-mode batch norm leaves the running
        buffers alone and appends its updates there for ``apply_bn_updates``.
        """
        if patches.shape[3] != self.config.input_bands:
            raise ValueError(
                f"extractor built for {self.config.input_bands} bands, got {patches.shape[3]}")
        h = self.bn1(self.conv1(patches), training, bn_updates)
        if self.block is not None:
            h = self.block(h)
        h = self.bn2(self.conv2(h), training, bn_updates)
        h = self.bn3(self.conv3(h), training, bn_updates)
        return E.avg_pool2d(h)

    def parameters(self):
        params = self.conv1.parameters() + self.bn1.parameters()
        if self.block is not None:
            params += self.block.parameters()
        params += self.conv2.parameters() + self.bn2.parameters()
        params += self.conv3.parameters() + self.bn3.parameters()
        return params

    def buffers(self):
        return self.bn1.buffers() + self.bn2.buffers() + self.bn3.buffers()


class DualHeadClassifier:
    """Extractor + main head (`cls`) + pseudo head (`psd`), disjoint parameters."""

    def __init__(self, extractor_config, attention_config, num_classes, seed,
                 dtype=np.float32):
        self.num_classes = num_classes
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x90D)))
        self.extractor = FeatureExtractor(extractor_config, attention_config, rng, self.dtype)
        fd = extractor_config.unit_channels[2]
        self.head_cls = Linear(fd, num_classes, rng, self.dtype, "head_cls")
        self.head_psd = Linear(fd, num_classes, rng, self.dtype, "head_psd")

    # -- forward surfaces ----------------------------------------------

    def features(self, patches, training, bn_updates=None):
        return self.extractor(patches, training, bn_updates)

    def head_logits(self, z, head="cls"):
        if head == "cls":
            return self.head_cls(z)
        if head == "psd":
            return self.head_psd(z)
        raise ValueError(f"unknown head {head!r}")

    def predict(self, patches):
        """Hard labels (1..C) via extractor + main head, eval-mode statistics."""
        with E.no_grad():
            z = self.features(patches, training=False)
            logits = self.head_logits(z, "cls")
        return np.argmax(logits.data, axis=1) + 1

    # -- parameter plumbing ----------------------------------------------

    def parameters(self):
        return (self.extractor.parameters()
                + self.head_cls.parameters() + self.head_psd.parameters())

    def named_parameters(self):
        return OrderedDict((p.name, p) for p in self.parameters())

    def named_state(self):
        """Parameters plus BN running buffers, in a stable order."""
        state = OrderedDict((p.name, p.data) for p in self.parameters())
        for name, buf in self.extractor.buffers():
            state[name] = buf
        return state


# -- checkpoints --------------------------------------------------------------

_DTYPE_TAGS = {"float32": "f32", "float64": "f64"}
_TAG_DTYPES = {"f32": np.float32, "f64": np.float64}


def save_checkpoint(model, bin_path):
    """Flat binary of named tensors + a sibling ``index.json``; bit-exact round trip."""
    bin_path = Path(bin_path)
    index_file = bin_path.with_name("index.json")
    index = OrderedDict()
    offset = 0
    blobs = []
    for name, arr in model.named_state().items():
        raw = np.ascontiguousarray(arr).tobytes()
        index[name] = {"offset": offset, "shape": list(arr.shape),
                       "dtype": _DTYPE_TAGS[arr.dtype.name]}
        blobs.append(raw)
        offset += len(raw)
    write_atomic(bin_path, b"".join(blobs))
    write_atomic(index_file, json.dumps(index, indent=1) + "\n")
    return bin_path, index_file


def load_checkpoint(model, bin_path):
    """Restore named tensors in place from ``bin_path`` and its sibling ``index.json``.

    Shapes and names must match exactly, and the entries must tile the
    binary: each one starts where the one before it (in index order) ends,
    and the last one ends at the end of the file.  Every fault (an
    unparseable index or one that is not an object of objects, a missing or
    extra name, a shape mismatch, an unknown dtype tag, a gap or overlap, a
    file shorter or longer than the index describes) raises ``BundleError``
    before any tensor is touched.
    """
    bin_path = Path(bin_path)
    index_file = bin_path.with_name("index.json")
    try:
        index = json.loads(index_file.read_text())
    except json.JSONDecodeError as e:
        raise BundleError(f"unparseable checkpoint index {index_file}: {e}") from e
    if not (isinstance(index, dict) and all(isinstance(e, dict) for e in index.values())):
        raise BundleError(f"checkpoint index {index_file} must map each tensor name to an object")
    raw = bin_path.read_bytes()
    state = model.named_state()
    if set(index) != set(state):
        missing = set(state) - set(index)
        extra = set(index) - set(state)
        raise BundleError(f"checkpoint/model mismatch in {index_file}: "
                          f"missing={sorted(missing)} extra={sorted(extra)}")
    ranges = {}
    offset = 0
    for name, entry in index.items():
        arr = state[name]
        if entry.get("dtype") not in _TAG_DTYPES:
            raise BundleError(f"unknown dtype tag {entry.get('dtype')!r} for {name} in {index_file}")
        dtype = np.dtype(_TAG_DTYPES[entry["dtype"]])
        shape = entry.get("shape")
        if not isinstance(shape, list) or tuple(shape) != arr.shape:
            raise BundleError(f"checkpoint shape mismatch for {name}: {shape} vs {arr.shape}")
        if entry.get("offset") != offset:
            raise BundleError(f"checkpoint index {index_file} puts {name} at byte "
                              f"{entry.get('offset')!r}; the entries before it end at {offset}")
        ranges[name] = (offset, dtype)
        offset += arr.size * dtype.itemsize
    if len(raw) != offset:
        fault = "is truncated" if len(raw) < offset else "has trailing bytes"
        raise BundleError(f"checkpoint {bin_path} {fault}: its index describes {offset} bytes, "
                          f"the file has {len(raw)}")
    for name, (start, dtype) in ranges.items():
        arr = state[name]
        arr[...] = np.frombuffer(raw, dtype=dtype, count=arr.size, offset=start).reshape(arr.shape)
    return model
