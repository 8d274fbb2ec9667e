"""Kernel statistics, class weights, and the alignment loss vs its oracle."""

import logging
import math

import numpy as np
import pytest

from crossscene.discrepancy import (class_weights, gaussian_kernel, lmmd,
                                    lmmd_oracle, median_bandwidth, mmd_biased, one_hot,
                                    pairwise_sq_dists)
from crossscene.engine import Parameter, Tensor, grad_check
from crossscene.engine.tensor import _topo_order


def test_pairwise_basics():
    assert pairwise_sq_dists(np.zeros((1, 2))).data[0, 0] == 0.0
    d = pairwise_sq_dists(np.array([[0.0, 0.0], [3.0, 4.0]])).data
    assert d[0, 1] == pytest.approx(25.0)


def test_pairwise_self_diagonal_near_zero(rng):
    x = rng.normal(size=(5, 3))
    d = pairwise_sq_dists(x).data
    assert np.abs(np.diag(d)).max() < 1e-10
    assert (d >= 0).all()  # clamped against rounding
    assert np.allclose(d, d.T, atol=1e-10)


def test_pooled_dim_mismatch():
    # source and target rows are pooled by concat_rows, which rejects the mismatch
    with pytest.raises(ValueError, match="trailing shapes"):
        mmd_biased(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="trailing shapes"):
        lmmd(np.zeros((2, 3)), np.ones((2, 1)), np.zeros((2, 4)), np.ones((2, 1)))


def test_kernel_identical_vectors_give_one(rng):
    x = rng.normal(size=(4, 3))
    k = gaussian_kernel(x, bandwidth=1.7).data
    assert np.allclose(np.diag(k), 1.0, atol=1e-12)
    assert ((k > 0) & (k <= 1 + 1e-12)).all()


def _family_kernel(d2):
    """The kernel at squared distance d2 for a base bandwidth of 1: the mean of
    five Gaussians of sigma^2 = 1/4 .. 4."""
    return sum(math.exp(-d2 / s) for s in (0.25, 0.5, 1.0, 2.0, 4.0)) / 5


def test_kernel_single_bandwidth_hand_values():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    k = gaussian_kernel(x, bandwidth=1.0).data
    for i in range(3):
        for j in range(3):
            d = np.sum((x[i] - x[j]) ** 2)
            assert k[i, j] == pytest.approx(_family_kernel(d), rel=1e-12)


def test_kernel_family_bandwidths():
    """Five Gaussians at sigma^2 = 1, 2, 4, 8, 16 around a base of 4, weighted alike."""
    x = np.array([[0.0], [1.0], [3.0]])
    k = gaussian_kernel(x, bandwidth=4.0).data
    for (i, j), d2 in {(0, 1): 1.0, (0, 2): 9.0, (1, 2): 4.0}.items():
        want = sum(math.exp(-d2 / s) for s in (1.0, 2.0, 4.0, 8.0, 16.0)) / 5
        assert k[i, j] == pytest.approx(want, rel=1e-12)


def test_kernel_psd_on_small_sets(rng):
    for _ in range(10):
        x = rng.normal(size=(rng.integers(2, 11), 4))
        k = gaussian_kernel(x, bandwidth=2.0).data
        eig = np.linalg.eigvalsh((k + k.T) / 2)
        assert eig.min() > -1e-8


def test_median_bandwidth_order_invariant(rng):
    zs, zt = rng.normal(size=(6, 3)), rng.normal(size=(5, 3))
    base = median_bandwidth(np.concatenate([zs, zt]))
    perm_s, perm_t = rng.permutation(6), rng.permutation(5)
    assert median_bandwidth(np.concatenate([zs[perm_s], zt[perm_t]])) == base


def test_median_bandwidth_degenerate_fallback():
    z = np.ones((4, 2))
    assert median_bandwidth(np.concatenate([z, z])) == 1.0


def test_mmd_identical_sets_zero(rng):
    z = rng.normal(size=(6, 4))
    assert abs(mmd_biased(z, z.copy(), bandwidth=1.0).item()) < 1e-10


def test_mmd_symmetry(rng):
    zs, zt = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
    bw = 2.0
    assert abs(mmd_biased(zs, zt, bw).item() - mmd_biased(zt, zs, bw).item()) < 1e-12


def test_mmd_hand_expanded_two_plus_two():
    # 1-D points: sources {0, 1}, targets {2, 3}; base sigma^2 = 1
    zs = np.array([[0.0], [1.0]])
    zt = np.array([[2.0], [3.0]])
    k = lambda a, b: _family_kernel((a - b) ** 2)
    ss = (k(0, 0) + k(0, 1) + k(1, 0) + k(1, 1)) / 4
    tt = (k(2, 2) + k(2, 3) + k(3, 2) + k(3, 3)) / 4
    st = (k(0, 2) + k(0, 3) + k(1, 2) + k(1, 3)) / 4
    assert mmd_biased(zs, zt, 1.0).item() == pytest.approx(ss + tt - 2 * st, rel=1e-12)


def test_mmd_empty_error():
    with pytest.raises(ValueError):
        mmd_biased(np.zeros((0, 2)), np.zeros((3, 2)))


def test_class_weights_single_class_uniform():
    y = one_hot(np.array([2, 2, 2, 2]), 3)
    w, valid = class_weights(y)
    assert np.allclose(w[:, 1], 0.25)
    assert list(valid) == [False, True, False]


def test_class_weights_probability_rows():
    probs = np.array([[0.7, 0.3], [0.5, 0.5]])
    w, valid = class_weights(probs)
    assert np.allclose(w[:, 0], [0.7 / 1.2, 0.5 / 1.2])
    assert np.allclose(w[:, 1], [0.3 / 0.8, 0.5 / 0.8])
    assert valid.all()
    assert np.allclose(w.sum(axis=0), 1.0)


def test_class_weights_negative_error():
    with pytest.raises(ValueError):
        class_weights(np.array([[0.5, -0.1]]))


def test_lmmd_zero_when_domains_coincide(rng):
    zs = rng.normal(size=(8, 4))
    labels = rng.integers(1, 4, size=8)
    ys = one_hot(labels, 3)
    val = lmmd(Tensor(zs), ys, Tensor(zs.copy()), ys.copy(), bandwidth=1.0)
    assert abs(val.item()) < 1e-8


def test_lmmd_matches_oracle_two_plus_two():
    bw = 1.0
    zs = np.array([[0.0, 1.0], [1.0, 0.0]])
    zt = np.array([[0.5, 0.5], [1.5, -0.5]])
    ys = np.ones((2, 1))
    pt = np.ones((2, 1))
    a = lmmd(Tensor(zs), ys, Tensor(zt), pt, bw).item()
    b = lmmd_oracle(zs, ys, zt, pt, bw)
    assert a == pytest.approx(b, abs=1e-10)
    # single class with uniform weights reduces to the plain biased MMD
    assert a == pytest.approx(mmd_biased(zs, zt, bw).item(), abs=1e-10)


def test_lmmd_oracle_agreement_random_instances(rng):
    bw = 1.3
    for _ in range(50):
        n_s, n_t = rng.integers(2, 9), rng.integers(2, 9)
        c, d = rng.integers(1, 5), rng.integers(1, 6)
        zs, zt = rng.normal(size=(n_s, d)), rng.normal(size=(n_t, d))
        ys = one_hot(rng.integers(1, c + 1, size=n_s), c)
        pt = rng.dirichlet(np.ones(c), size=n_t)
        a = lmmd(Tensor(zs), ys, Tensor(zt), pt, bw).item()
        b = lmmd_oracle(zs, ys, zt, pt, bw)
        assert abs(a - b) < 1e-10


def test_lmmd_oracle_agreement_median_mode(rng):
    for _ in range(10):
        zs, zt = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        ys = one_hot(rng.integers(1, 3, size=5), 2)
        pt = rng.dirichlet(np.ones(2), size=6)
        assert abs(lmmd(Tensor(zs), ys, Tensor(zt), pt).item()
                   - lmmd_oracle(zs, ys, zt, pt)) < 1e-10


def test_lmmd_non_negative(rng):
    bw = 1.0
    for _ in range(100):
        zs, zt = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        ys = one_hot(rng.integers(1, 4, size=6), 3)
        pt = rng.dirichlet(np.ones(3), size=6)
        assert lmmd(Tensor(zs), ys, Tensor(zt), pt, bw).item() >= -1e-8


def test_lmmd_permutation_invariance(rng):
    bw = 1.0
    zs, zt = rng.normal(size=(7, 3)), rng.normal(size=(6, 3))
    ys = one_hot(rng.integers(1, 4, size=7), 3)
    pt = rng.dirichlet(np.ones(3), size=6)
    a = lmmd(Tensor(zs), ys, Tensor(zt), pt, bw).item()
    ps, pt_perm = rng.permutation(7), rng.permutation(6)
    b = lmmd(Tensor(zs[ps]), ys[ps], Tensor(zt[pt_perm]), pt[pt_perm], bw).item()
    assert abs(a - b) < 1e-10


def test_lmmd_skips_missing_classes(rng):
    bw = 1.0
    zs, zt = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    ys = one_hot(np.array([1, 1, 2, 2]), 3)  # class 3 missing from source
    pt = np.full((4, 3), 1 / 3)
    val = lmmd(Tensor(zs), ys, Tensor(zt), pt, bw).item()
    # equals the 2-class average computed by the oracle (which skips class 3 too)
    assert val == pytest.approx(lmmd_oracle(zs, ys, zt, pt, bw), abs=1e-12)


def test_lmmd_no_valid_class_returns_zero(rng):
    zs, zt = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    ys = one_hot(np.array([1, 1, 1]), 2)
    pt = np.array([[0.0, 1.0]] * 3)  # class 1 absent from target
    val = lmmd(Tensor(zs), ys, Tensor(zt), pt, bandwidth=1.0)
    assert val.item() == 0.0


def test_lmmd_nan_probabilities_give_nan(rng, caplog):
    """A NaN class column is not an absent class: the loss is NaN, as the
    oracle's, and no 'no class present' warning is logged."""
    zs, zt = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    ys = one_hot(np.array([1, 1, 2, 2]), 2)
    pt = np.full((4, 2), np.nan)
    with caplog.at_level(logging.DEBUG):
        assert np.isnan(lmmd(Tensor(zs), ys, Tensor(zt), pt, bandwidth=1.0).item())
        assert np.isnan(lmmd_oracle(zs, ys, zt, pt, bandwidth=1.0))
    assert caplog.records == []


def test_lmmd_zero_features(rng):
    zs = np.zeros((4, 3))
    zt = np.zeros((5, 3))
    ys = one_hot(rng.integers(1, 3, size=4), 2)
    pt = rng.dirichlet(np.ones(2), size=5)
    assert abs(lmmd(Tensor(zs), ys, Tensor(zt), pt, bandwidth=1.0).item()) < 1e-12


def test_lmmd_tape_size_independent_of_class_count(rng):
    zs, zt = Tensor(rng.normal(size=(30, 4)), requires_grad=True), Tensor(rng.normal(size=(30, 4)))
    sizes = []
    for c in (2, 12):
        ys = one_hot(np.arange(30) % c + 1, c)
        pt = rng.dirichlet(np.ones(c), size=30)
        sizes.append(len(_topo_order(lmmd(zs, ys, zt, pt))))
    assert sizes[0] == sizes[1]


def test_lmmd_gradient_finite_differences(rng):
    zs = Parameter(rng.standard_normal((5, 4)), name="zs", dtype=np.float64)
    zt = Parameter(rng.standard_normal((6, 4)), name="zt", dtype=np.float64)
    ys = one_hot(rng.integers(1, 4, size=5), 3)
    pt = rng.dirichlet(np.ones(3), size=6)
    bw = 1.5
    rep = grad_check(lambda: lmmd(zs, ys, zt, pt, bw), [zs, zt])
    assert rep.passed(1e-4)

