"""Network construction, the attention block contracts, heads, checkpoints."""

import threading

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.engine import Tensor
from crossscene.model import (CenterAttentionBlock, CenterAttentionConfig,
                              DualHeadClassifier, ExtractorConfig, Stem, load_checkpoint,
                              save_checkpoint)

GELU_1 = 0.8413447460685429  # 0.5 * (1 + erf(1/sqrt(2)))


def _model(bands=6, ps=5, classes=3, seed=0, **kw):
    cfg = ExtractorConfig(input_bands=bands, patch_size=ps, **kw)
    return DualHeadClassifier(cfg, CenterAttentionConfig(), classes, seed=seed)


def test_batchnorm_scales_init_to_one():
    m = _model()
    for p in m.parameters():
        if p.name.endswith(".scale"):
            assert np.all(p.data == 1.0)
        if p.name.endswith((".shift", ".bias")):
            assert np.all(p.data == 0.0)


def test_same_seed_bitwise_identical_params():
    a, b = _model(seed=11), _model(seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = _model(seed=12)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_kaiming_variance():
    m = _model(bands=64, unit_channels=(32, 64, 32))
    w = dict((p.name, p) for p in m.parameters())["extractor.conv1.weight"]
    assert w.size >= 10_000
    fan_in = 64 * 9
    expected = 2.0 / ((1.0 + 0.01**2) * fan_in)
    assert abs(w.data.var() / expected - 1.0) < 0.10


@pytest.mark.parametrize("variant", "abcd")
def test_block_zero_weight_identity(variant, rng):
    block = CenterAttentionBlock(8, CenterAttentionConfig(variant=variant),
                                 np.random.default_rng(0), np.float32, "blk")
    for layer in (block.key, block.value, block.query):
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = 0.0
    x = Tensor(rng.normal(size=(3, 5, 5, 8)).astype(np.float32))
    out = block(x)
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("ps,w", [(3, 4), (5, 8), (7, 16)])
def test_block_preserves_shape(ps, w, rng):
    block = CenterAttentionBlock(w, CenterAttentionConfig(),
                                 np.random.default_rng(1), np.float32, "blk")
    x = Tensor(rng.normal(size=(2, ps, ps, w)).astype(np.float32))
    assert block(x).shape == (2, ps, ps, w)


def test_block_hand_computed_single_channel():
    # ones input, 1x1 identity linear maps, centered-delta depthwise kernel:
    # every position gets gelu(1)^2 / sqrt(3) + 1.
    block = CenterAttentionBlock(1, CenterAttentionConfig(variant="d"),
                                 np.random.default_rng(0), np.float64, "blk")
    for layer in (block.key, block.value, block.query):
        layer.weight.data[...] = 1.0
        layer.bias.data[...] = 0.0
    block.dw_kernel.data[...] = 0.0
    block.dw_kernel.data[:, 1, 1] = 1.0
    x = Tensor(np.ones((1, 3, 3, 1)), dtype=np.float64)
    expected = GELU_1 * GELU_1 / np.sqrt(3.0) + 1.0
    assert np.allclose(block(x).data, expected, atol=1e-12)
    assert abs(expected - 1.4086837283547711) < 1e-12


def test_block_validates_config():
    with pytest.raises(ValueError):
        CenterAttentionConfig(variant="e")


@pytest.mark.parametrize("ps", [3, 5, 9])
def test_extractor_output_shape(ps, rng):
    m = _model(bands=4, ps=ps, unit_channels=(16, 32, 16))
    x = Tensor(rng.normal(size=(6, ps, ps, 4)).astype(np.float32))
    z = m.features(x, training=True)
    assert z.shape == (6, 16)  # patch-size independent


def test_identical_patches_identical_features(rng):
    m = _model()
    one = rng.normal(size=(1, 5, 5, 6)).astype(np.float32)
    x = Tensor(np.concatenate([one, one], axis=0))
    z = m.features(x, training=True).data
    assert np.array_equal(z[0], z[1])


def test_eval_forward_bitwise_deterministic(rng):
    m = _model()
    x = Tensor(rng.normal(size=(4, 5, 5, 6)).astype(np.float32))
    # training pass first, so running stats are non-trivial
    m.features(x, training=True)
    a = m.features(x, training=False).data
    b = m.features(x, training=False).data
    assert np.array_equal(a, b)


def test_band_mismatch_raises(rng):
    m = _model(bands=6)
    with pytest.raises(ValueError, match="bands"):
        m.features(Tensor(rng.normal(size=(2, 5, 5, 7)).astype(np.float32)), training=True)


def test_zero_head_uniform_probabilities(rng):
    m = _model(classes=4)
    m.head_cls.weight.data[...] = 0.0
    m.head_cls.bias.data[...] = 0.0
    z = Tensor(rng.normal(size=(5, 32)).astype(np.float32))
    p = E.softmax(m.head_cls(z)).data
    assert np.allclose(p, 0.25, atol=1e-7)


def test_heads_are_independent(rng):
    m = _model()
    z = Tensor(rng.normal(size=(5, 32)).astype(np.float32))
    p_cls = E.softmax(m.head_cls(z)).data
    p_psd = E.softmax(m.head_psd(z)).data
    assert np.abs(p_cls.sum(1) - 1).max() < 1e-6
    assert not np.allclose(p_cls, p_psd)
    assert not np.shares_memory(m.head_cls.weight.data, m.head_psd.weight.data)


def test_pseudo_head_never_touches_inference(tiny_pair, rng):
    m = _model(bands=8)
    x = Tensor(rng.normal(size=(7, 5, 5, 8)).astype(np.float32))
    m.features(x, training=True)  # populate running stats
    before = m.predict(x)
    m.head_psd.weight.data += 123.0
    m.head_psd.bias.data -= 7.0
    assert np.array_equal(before, m.predict(x))


def test_overlapping_predicts_leave_recording_on(rng):
    """Two ``predict`` calls whose ``no_grad`` spans overlap (enter, enter,
    exit, exit) leave the tape recording in every thread afterwards."""
    m = _model()
    x = Tensor(rng.normal(size=(3, 5, 5, 6)).astype(np.float32))
    both_inside = threading.Barrier(2, timeout=10)
    first_done = threading.Event()
    features = m.features

    def gated(*args, **kwargs):
        both_inside.wait()
        if threading.current_thread().name == "second":
            first_done.wait(10)
        return features(*args, **kwargs)

    m.features = gated

    def first():
        m.predict(x)
        first_done.set()

    threads = [threading.Thread(target=first, name="first"),
               threading.Thread(target=m.predict, args=(x,), name="second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert E.mul(E.Parameter(np.ones(2)), E.Parameter(np.ones(2))).requires_grad


def test_extractor_config_validation():
    with pytest.raises(ValueError, match="w2"):
        ExtractorConfig(input_bands=4, patch_size=5, unit_channels=(32, 48, 32))
    with pytest.raises(ValueError, match="odd"):
        ExtractorConfig(input_bands=4, patch_size=6)


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    m = _model(seed=3)
    x = Tensor(rng.normal(size=(4, 5, 5, 6)).astype(np.float32))
    m.features(x, training=True)  # non-trivial running stats
    state = {k: v.copy() for k, v in m.named_state().items()}
    save_checkpoint(m, tmp_path / "checkpoint.bin")

    m2 = _model(seed=99)  # different init, same architecture
    load_checkpoint(m2, tmp_path / "checkpoint.bin")
    for name, arr in m2.named_state().items():
        assert np.array_equal(arr, state[name]), name
    # bitwise: prediction paths agree exactly
    assert np.array_equal(m.predict(x), m2.predict(x))


def test_checkpoint_mismatch_errors(tmp_path):
    m = _model()
    save_checkpoint(m, tmp_path / "checkpoint.bin")
    other = _model(bands=6, ps=5, classes=4)
    with pytest.raises(ValueError, match="shape mismatch"):
        load_checkpoint(other, tmp_path / "checkpoint.bin")
    wrong = _model(bands=6, ps=5, unit_channels=(16, 32, 16))
    with pytest.raises(ValueError, match="mismatch"):
        load_checkpoint(wrong, tmp_path / "checkpoint.bin")


def _scene_source(rng, bands, ps, hw=(6, 7)):
    from crossscene.data import PatchSource, Scene

    return PatchSource(Scene(cube=rng.random((*hw, bands)).astype(np.float32)), ps)


def _same_bits(a, b):
    """Equal float32 arrays, bit for bit: -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


@pytest.mark.parametrize("variant", ["a", "b", "c", "d", None], ids=lambda v: v or "no-block")
@pytest.mark.parametrize("ps", [3, 7])
def test_window_stems_equal_the_per_patch_stem(rng, variant, ps):
    """Stems gathered from the shared maps are bit for bit the eval-mode stem
    of each cut-out patch, and so are the features of the trunk on them,
    with conv1 on the per-tap side (40 bands -> 32) and on the im2col side
    (16 bands -> 32)."""
    for bands in (40, 16):
        cfg = ExtractorConfig(input_bands=bands, patch_size=ps, unit_channels=(32, 64, 32),
                              use_attention=variant is not None)
        m = DualHeadClassifier(cfg, CenterAttentionConfig(variant=variant or "d"), 3, seed=1)
        src = _scene_source(rng, bands, ps)
        pixels = np.argwhere(np.ones((6, 7), dtype=bool))
        patches = src.batch(pixels).patches
        m.features(patches, training=True)  # non-trivial running statistics
        assert m.extractor.shares_stem
        with E.no_grad():
            ext = m.extractor
            h = ext.bn1(ext.conv1(patches), training=False)
            per_patch = Stem(h, *ext.block.key_value(h)) if variant else Stem(h)
            stems = m.extractor.window_stems(src.rows(0, 6))
            gathered = stems.gather(pixels)
            assert len(stems.maps) == (3 if variant else 1)
            assert _same_bits(gathered.h.data, per_patch.h.data), bands
            for name in ("key", "value"):
                a, b = getattr(per_patch, name), getattr(gathered, name)
                if variant is None:
                    assert a is None and b is None
                else:
                    assert _same_bits(b.data.reshape(a.shape), a.data), (bands, name)
            assert _same_bits(m.features(gathered, training=False).data,
                              m.features(patches, training=False).data), bands


@pytest.mark.parametrize("bands,w1,ps,shared", [
    (40, 16, 5, True), (176, 32, 7, True), (48, 32, 15, True), (575, 64, 3, True),
    *[(40, 16 + r, 5, False) for r in range(1, 9)],  # w1 % 16 in 1..8
    (32, 32, 5, True), (16, 32, 5, True),  # bands <= w1: conv1 is im2col
    (576, 32, 5, False), (176, 32, 1, False),
])
def test_shares_stem_only_where_exact(bands, w1, ps, shared):
    cfg = ExtractorConfig(input_bands=bands, patch_size=ps, unit_channels=(w1, 2 * w1, w1))
    assert DualHeadClassifier(cfg, CenterAttentionConfig(), 3, seed=0).extractor.shares_stem \
        is shared
