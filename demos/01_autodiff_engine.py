#!/usr/bin/env python3
"""A tour of the reverse-mode engine underneath the classifier.

Builds a few small graphs by hand, backpropagates, and cross-checks the tape
gradients against central finite differences.
"""

import numpy as np

from crossscene import engine as E
from crossscene.engine import Parameter, Tensor, grad_check, primitive_checks

rng = np.random.default_rng(0)

# A scalar chain: loss = mean(gelu(x @ w + b))
x = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
w = Parameter(rng.normal(size=(3, 2)).astype(np.float32), name="w")
b = Parameter(np.zeros(2, dtype=np.float32), name="b")

loss = E.tmean(E.gelu(E.affine(x, w, b)))
loss.backward()
print("loss:", loss.item())
print("dL/dw:\n", w.grad)
print("dL/db:", b.grad)

# The same update, twice: forward passes are bitwise deterministic.
again = E.tmean(E.gelu(E.affine(x, w, b)))
assert again.item() == loss.item()
print("\ntwo identical forwards agree bitwise:", again.item() == loss.item())

# Finite-difference verification of one subgraph (f64).
xw = Parameter(rng.standard_normal((5, 4)), name="x", dtype=np.float64)
report = grad_check(lambda: E.tmean(E.softmax(xw)), [xw], name="softmax-mean")
print(f"\ngrad check '{report.name}': max relative error {report.max_rel_err:.2e}")

# And the whole primitive suite.
print("\nprimitive suite:")
for name, params, build in primitive_checks(0):
    rep = grad_check(build, params, name=name)
    print(f"  {rep.name:20s} {rep.max_rel_err:.2e}  {'ok' if rep.passed(1e-4) else 'FAIL'}")
