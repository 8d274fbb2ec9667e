"""Learning-rate schedule and SGD-with-momentum update rules."""

import numpy as np
import pytest

from crossscene.engine import NumericError, Parameter, lr_schedule, sgd_momentum_step


def test_lr_schedule_endpoints():
    assert lr_schedule(0.0, 0.01, 10, 0.75) == pytest.approx(0.01, abs=1e-12)
    # closed form evaluated in extended precision: 0.01 / 11**0.75
    assert lr_schedule(1.0, 0.01, 10, 0.75) == pytest.approx(1.6556002607617017e-3, rel=1e-10)


def test_lr_schedule_zero_beta_is_constant():
    for w in np.linspace(0, 1, 7):
        assert lr_schedule(w, 0.01, 10, 0.0) == 0.01


def test_lr_schedule_monotone_non_increasing():
    grid = np.linspace(0, 1, 101)
    vals = [lr_schedule(w, 0.01, 10, 0.75) for w in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_schedule_domain_errors():
    with pytest.raises(ValueError):
        lr_schedule(-0.1, 0.01, 10, 0.75)
    with pytest.raises(ValueError):
        lr_schedule(0.5, -1.0, 10, 0.75)


def test_sgd_zero_gradient_leaves_values():
    p = Parameter(np.array([1.0, -2.0]))
    p.zero_grad()
    sgd_momentum_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_sgd_hand_applied_two_steps():
    # theta=1, g=1, mu=0.9, wd=0, lr=0.1: after one step buffer=1, theta=0.9;
    # after an identical second step buffer=1.9, theta=0.71.
    p = Parameter(np.array([1.0]))
    p.grad = np.array([1.0])
    sgd_momentum_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    assert p.data[0] == pytest.approx(0.9, abs=1e-12)
    assert p.momentum[0] == pytest.approx(1.0, abs=1e-12)
    p.grad = np.array([1.0])
    sgd_momentum_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    assert p.momentum[0] == pytest.approx(1.9, abs=1e-12)
    assert p.data[0] == pytest.approx(0.71, abs=1e-12)


def test_sgd_weight_decay_enters_raw_gradient():
    p = Parameter(np.array([2.0]))
    p.grad = np.array([0.5])
    sgd_momentum_step([p], lr=0.1, momentum=0.0, weight_decay=0.1)
    # g' = 0.5 + 0.1*2 = 0.7 -> theta = 2 - 0.07
    assert p.data[0] == pytest.approx(1.93, abs=1e-12)


def test_sgd_lr_zero_still_updates_buffers():
    p = Parameter(np.array([1.0]))
    p.grad = np.array([2.0])
    sgd_momentum_step([p], lr=0.0, momentum=0.9, weight_decay=0.0)
    assert p.data[0] == 1.0
    assert p.momentum[0] == pytest.approx(2.0)


def test_sgd_non_finite_gradient_names_parameter():
    p = Parameter(np.array([1.0]), name="conv1.weight")
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="conv1.weight"):
        sgd_momentum_step([p], lr=0.1)

