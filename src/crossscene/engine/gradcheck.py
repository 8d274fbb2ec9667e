"""Finite-difference verification of the reverse-mode gradients.

``grad_check`` compares tape gradients against central differences in f64.
``primitive_checks`` builds one check case per registered primitive; the
network-level cases (attention block, alignment loss, full model) live in
:mod:`crossscene.checks` because they need the higher layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float = 0.0
    per_param: dict = field(default_factory=dict)
    failure: str | None = None

    def passed(self, tolerance):
        return self.failure is None and self.max_rel_err < tolerance


def grad_check(build_loss, params, step=1e-5, max_entries_per_param=None,
               seed=0, name="subgraph"):
    """Compare tape gradients of a scalar loss against central differences.

    ``build_loss()`` must rebuild the forward pass from the current parameter
    values and return a scalar Tensor; ``params`` maps names to the f64
    Parameters being checked.  The relative error for one component is
    ``|g_ad - g_fd| / max(1, |g_fd|)``; the report carries the max per
    parameter.  ``max_entries_per_param`` caps the number of components
    probed per tensor (seeded subsample) to keep large graphs affordable.
    """
    if isinstance(params, (list, tuple)):
        params = {p.name or f"param{i}": p for i, p in enumerate(params)}
    for pname, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires f64 parameters, {pname} is {p.dtype}")

    report = GradCheckReport(name=name)

    # Two identical forwards must agree bitwise, otherwise finite differences
    # are meaningless; report the cause instead of a spurious error number.
    if build_loss().item() != build_loss().item():
        report.failure = "non-deterministic forward (two identical passes disagree)"
        return report

    for p in params.values():
        p.zero_grad()
    loss = build_loss()
    if loss.size != 1:
        raise ValueError("grad_check loss must be scalar")
    loss.backward()
    ad_grads = {pname: np.array(p.grad, copy=True) for pname, p in params.items()}

    rng = np.random.default_rng(seed)
    for pname, p in params.items():
        flat = p.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            idx = rng.choice(flat.size, size=max_entries_per_param, replace=False)
            idx.sort()
        worst = 0.0
        gflat = ad_grads[pname].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = build_loss().item()
            flat[i] = orig - step
            f_minus = build_loss().item()
            flat[i] = orig
            g_fd = (f_plus - f_minus) / (2.0 * step)
            rel = abs(gflat[i] - g_fd) / max(1.0, abs(g_fd))
            if rel > worst:
                worst = rel
        report.per_param[pname] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report


# -- one check case per primitive -------------------------------------------


def _p(rng, shape, name):
    return Parameter(rng.standard_normal(shape), name=name, dtype=np.float64)


def _weighted(out, rng):
    """Scalarize with a fixed random weighting so the vjp sees a generic seed."""
    r = Tensor(rng.standard_normal(out.shape), dtype=np.float64)
    return T.tsum(T.mul(out, r))


def primitive_checks(seed=0):
    """(name, params, build_loss) triples covering every OPSET primitive."""
    rng = np.random.default_rng(seed)
    cases = []

    def case(name, params, build):
        cases.append((name, params, build))

    a, b = _p(rng, (3, 4), "a"), _p(rng, (1, 4), "b")
    case("add", {"a": a, "b": b}, lambda a=a, b=b: _weighted(T.add(a, b), np.random.default_rng(100)))

    a3, b3 = _p(rng, (2, 5), "a"), _p(rng, (5,), "b")
    case("mul", {"a": a3, "b": b3}, lambda a=a3, b=b3: _weighted(T.mul(a, b), np.random.default_rng(102)))

    a4 = _p(rng, (3, 4), "a")
    case("scale", {"a": a4}, lambda a=a4: _weighted(T.scale(a, 1.7), np.random.default_rng(103)))

    m1, m2 = _p(rng, (3, 4), "a"), _p(rng, (4, 2), "b")
    case("matmul", {"a": m1, "b": m2}, lambda a=m1, b=m2: _weighted(T.matmul(a, b), np.random.default_rng(104)))

    ax, aw, ab = _p(rng, (4, 3), "x"), _p(rng, (3, 5), "w"), _p(rng, (5,), "b")
    case("affine", {"x": ax, "w": aw, "b": ab},
         lambda x=ax, w=aw, b=ab: _weighted(T.affine(x, w, b), np.random.default_rng(105)))

    cx, cw, cb = _p(rng, (2, 5, 5, 3), "x"), _p(rng, (4, 3, 3, 3), "w"), _p(rng, (4,), "b")
    case("conv2d", {"x": cx, "w": cw, "b": cb},
         lambda x=cx, w=cw, b=cb: _weighted(T.conv2d(x, w, b), np.random.default_rng(106)))

    dx, dw = _p(rng, (2, 5, 5, 4), "x"), _p(rng, (4, 3, 3), "w")
    case("depthwise_conv2d", {"x": dx, "w": dw},
         lambda x=dx, w=dw: _weighted(T.depthwise_conv2d(x, w), np.random.default_rng(107)))

    bx, bg, bb = _p(rng, (3, 5, 5, 4), "x"), _p(rng, (4,), "gamma"), _p(rng, (4,), "beta")
    rm, rv = np.zeros(4), np.ones(4)
    case("batch_norm2d", {"x": bx, "gamma": bg, "beta": bb},
         lambda x=bx, g=bg, b=bb, rm=rm, rv=rv: _weighted(
             T.batch_norm2d(x, g, b, rm, rv, training=True),
             np.random.default_rng(108)))

    bx2, bg2, bb2 = _p(rng, (3, 5, 5, 4), "x"), _p(rng, (4,), "gamma"), _p(rng, (4,), "beta")
    rm2 = np.asarray(rng.standard_normal(4))
    rv2 = np.abs(rng.standard_normal(4)) + 0.5
    case("batch_norm2d_eval", {"x": bx2, "gamma": bg2, "beta": bb2},
         lambda x=bx2, g=bg2, b=bb2, rm=rm2, rv=rv2: _weighted(
             T.batch_norm2d(x, g, b, rm, rv, training=False),
             np.random.default_rng(109)))

    lx = _p(rng, (3, 7), "x")
    case("leaky_relu", {"x": lx}, lambda x=lx: _weighted(T.leaky_relu(x, 0.01), np.random.default_rng(110)))

    gx = _p(rng, (3, 7), "x")
    case("gelu", {"x": gx}, lambda x=gx: _weighted(T.gelu(x), np.random.default_rng(111)))

    sx = _p(rng, (4, 5), "x")
    case("softmax", {"x": sx}, lambda x=sx: _weighted(T.softmax(sx), np.random.default_rng(112)))

    lsx = _p(rng, (4, 5), "x")
    case("log_softmax", {"x": lsx}, lambda x=lsx: _weighted(T.log_softmax(x), np.random.default_rng(113)))

    ex = _p(rng, (3, 4), "x")
    case("exp", {"x": ex}, lambda x=ex: _weighted(T.exp(x), np.random.default_rng(115)))

    sux = _p(rng, (3, 4, 2), "x")
    case("sum", {"x": sux}, lambda x=sux: _weighted(T.tsum(x, axis=(0, 2)), np.random.default_rng(116)))

    mex = _p(rng, (3, 4, 2), "x")
    case("mean", {"x": mex}, lambda x=mex: _weighted(T.tmean(x), np.random.default_rng(117)))

    px = _p(rng, (2, 5, 5, 3), "x")
    case("avg_pool2d", {"x": px}, lambda x=px: _weighted(T.avg_pool2d(x), np.random.default_rng(118)))

    rx = _p(rng, (3, 4, 2), "x")
    case("reshape", {"x": rx}, lambda x=rx: _weighted(T.reshape(x, (6, 4)), np.random.default_rng(119)))

    tx = _p(rng, (6, 4), "x")
    case("transpose", {"x": tx}, lambda x=tx: _weighted(T.transpose(x), np.random.default_rng(120)))

    grx = _p(rng, (6, 4), "x")
    gidx = np.array([0, 2, 2, 5, 1])
    case("gather_rows", {"x": grx}, lambda x=grx, i=gidx: _weighted(T.gather_rows(x, i), np.random.default_rng(121)))

    cpx = _p(rng, (2, 5, 5, 3), "x")
    case("center_pixel", {"x": cpx}, lambda x=cpx: _weighted(T.center_pixel(x), np.random.default_rng(122)))

    ca, cb = _p(rng, (3, 4), "a"), _p(rng, (2, 4), "b")
    case("concat_rows", {"a": ca, "b": cb}, lambda a=ca, b=cb: _weighted(T.concat_rows(a, b), np.random.default_rng(123)))

    # conv2d expands the narrower channel side: the 3 -> 4 case above runs an
    # im2col forward and a per-tap gx, this 5 -> 3 one a per-tap forward,
    # gw = x.T im2col(g) and an im2col gx
    cx2, cw2, cb2 = _p(rng, (1, 6, 6, 5), "x"), _p(rng, (3, 5, 3, 3), "w"), _p(rng, (3,), "b")
    case("conv2d_per_tap", {"x": cx2, "w": cw2, "b": cb2},
         lambda x=cx2, w=cw2, b=cb2: _weighted(T.conv2d(x, w, b), np.random.default_rng(124)))

    # batch_norm2d with its LeakyReLU epilogue, as the extractor calls it
    lbx, lbg, lbb = _p(rng, (3, 5, 5, 4), "x"), _p(rng, (4,), "gamma"), _p(rng, (4,), "beta")
    lrm, lrv = np.zeros(4), np.ones(4)
    case("batch_norm2d_leaky", {"x": lbx, "gamma": lbg, "beta": lbb},
         lambda x=lbx, g=lbg, b=lbb, rm=lrm, rv=lrv: _weighted(
             T.batch_norm2d(x, g, b, rm, rv, training=True, slope=0.01),
             np.random.default_rng(125)))

    return cases
