"""SGD with momentum and the inverse-decay learning-rate schedule.

The defaults are the settings every preset trains with: lr(w) =
lr0 / (1 + 10 w)^0.75, momentum 0.9 and weight decay 1e-4.
"""

from __future__ import annotations

import numpy as np


class NumericError(RuntimeError):
    """A non-finite value stopped the computation."""


def lr_schedule(w, lr0=0.01, alpha=10.0, beta=0.75):
    """lr(w) = lr0 / (1 + alpha * w) ** beta for training progress w in [0, 1]."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"progress w={w} outside [0, 1]")
    if lr0 <= 0 or alpha < 0 or beta < 0:
        raise ValueError("lr0 must be positive, alpha and beta non-negative")
    return lr0 / (1.0 + alpha * w) ** beta


def zero_grads(params):
    """Reset parameter gradients to zero arrays (once per step, before backward)."""
    for p in params:
        p.zero_grad()


def sgd_momentum_step(params, lr, momentum=0.9, weight_decay=1e-4):
    """One classic SGD step: g' = g + wd*v; buf = mu*buf + g'; v -= lr*buf.

    ``params`` are ``Parameter``s.  Weight decay enters the raw gradient
    before the momentum update.  A parameter with an unset gradient is
    treated as zero-gradient.
    """
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        if weight_decay:
            g = g + weight_decay * p.data
        p.momentum *= momentum
        p.momentum += g
        p.data -= lr * p.momentum
