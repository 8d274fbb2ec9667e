"""Network construction, the attention block contracts, heads, checkpoints."""

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.engine import Tensor
from crossscene.model import (CenterAttentionBlock, CenterAttentionConfig,
                              DualHeadClassifier, ExtractorConfig, load_checkpoint,
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
    p = E.softmax(m.head_logits(z, "cls")).data
    assert np.allclose(p, 0.25, atol=1e-7)


def test_heads_are_independent(rng):
    m = _model()
    z = Tensor(rng.normal(size=(5, 32)).astype(np.float32))
    p_cls = E.softmax(m.head_logits(z, "cls")).data
    p_psd = E.softmax(m.head_logits(z, "psd")).data
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
