"""In-memory span recorder and the wrappers that attach it to crossscene.

Spans are recorded around calls into the package's public functions by
replacing module and class attributes from the outside; nothing in the
package itself changes.  A span has a name, a start, an end and a parent
span; all spans of one worker process share the tracer's run ID.  They stay
in memory until the job ends and are written out afterwards.

Two levels are used:

- ``light``: only the spans the end-to-end metrics need (training steps,
  fits, scene inference and evaluation).  A handful of wrappers per job,
  each a clock read at entry and exit.
- ``full``: every layer boundary the per-layer metrics need, including every
  engine op's forward call and the vector-Jacobian product it leaves on the
  tape (timed by wrapping the returned tensor's VJP closure).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import uuid
from collections import defaultdict

import numpy as np

# Engine ops with a per-layer forward/backward metric; every other op in the
# engine's OPSET is still wrapped so that backward self time excludes all VJP
# work and the op count per step is exact.
NAMED_OPS = ("conv2d", "depthwise_conv2d", "batch_norm2d", "gelu", "matmul", "affine", "exp")
# OPSET spells two ops by their Tensor method names.
OP_FUNCTIONS = {"sum": "tsum", "mean": "tmean"}


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self.counters = defaultdict(float)
        self.captured = defaultdict(list)
        self._patched = []
        self.first_step = None

    # -- recording --------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installing wrappers ------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, fn, name, before=None, after=None):
        """Replace ``fn`` under every crossscene module attribute that names it.

        Modules import functions by name (``from .training import fit``), so
        the same function object can sit under several modules.
        """
        wrapped = self.wrap(name, fn, before, after)
        owners = [m for key, m in list(sys.modules.items())
                  if key == "crossscene" or key.startswith("crossscene.")]
        for module in owners:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)
        return wrapped

    def patch_method(self, cls, attr, name, before=None, after=None):
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), before, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def install(self, level, setup_only=False):
        """Attach the wrappers of ``level`` ("light" or "full")."""
        import crossscene.cli  # noqa: F401  (loads every module that holds an alias)
        from crossscene import evaluate, training

        def step_before(args, kwargs):
            if self.first_step is None:
                self.first_step = time.perf_counter()
            if setup_only:
                raise SetupReached()

        def step_after(args, kwargs, stats):
            self.counters["train_steps"] += 1
            if args[2] is not None:
                self.counters["target_samples"] += len(args[2].refs)
                self.counters["pseudo_selected"] += stats.pseudo_count

        def capture(key):
            return lambda args, kwargs, out: self.captured[key].append((args, kwargs, out))

        def count_pixels(args, kwargs, out):
            self.counters["predicted_px"] += len(out[1])

        self.patch_function(training.train_step, "training.train_step", step_before, step_after)
        self.patch_function(training.fit, "training.fit", after=capture("fit"))
        self.patch_function(evaluate.predict_scene, "evaluate.predict_scene", after=count_pixels)
        self.patch_function(evaluate.evaluate_scene, "evaluate.evaluate_scene",
                            after=capture("evaluate_scene"))
        if level == "full":
            self._install_layers()

    def _install_layers(self):
        from crossscene import data, discrepancy, engine, evaluate, model, training
        from crossscene.engine import tensor

        def count_patch_bytes(args, kwargs, out):
            self.counters["patch_bytes"] += out.patches.data.nbytes

        def count_classes(args, kwargs, out):
            ys, pt = np.asarray(args[1]), np.asarray(args[3])
            valid = (ys.sum(axis=0) > 0) & (pt.sum(axis=0) > 0)
            self.counters["lmmd_calls"] += 1
            self.counters["lmmd_valid_classes"] += int(valid.sum())

        for fn, name, after in (
            (discrepancy.lmmd, "discrepancy.lmmd", count_classes),
            (discrepancy.median_bandwidth, "discrepancy.median_bandwidth", None),
            (training.self_training_loss, "training.self_training_loss", None),
            (data.load_scene, "data.load_scene", None),
            (data.normalize_scene, "data.normalize_scene", None),
            (evaluate.confusion, "evaluate.confusion", None),
            (evaluate.metrics, "evaluate.metrics", None),
            (evaluate.write_map, "evaluate.write_map", None),
            (model.save_checkpoint, "model.save_checkpoint", None),
            (model.load_checkpoint, "model.load_checkpoint", None),
            (engine.sgd_momentum_step, "engine.sgd_step", None),
        ):
            self.patch_function(fn, name, after=after)
        self.patch_method(data.PatchSource, "__init__", "data.patch_source_init")
        self.patch_method(data.PatchSource, "batch", "data.patch_batch", after=count_patch_bytes)
        self.patch_method(model.DualHeadClassifier, "features", "model.features")
        self.patch_method(model.DualHeadClassifier, "predict", "model.predict")
        self.patch_method(model.CenterAttentionBlock, "__call__", "model.attention_block")
        self.patch_method(tensor.Tensor, "backward", "engine.backward")
        for op in tensor.OPSET:
            fn = getattr(tensor, OP_FUNCTIONS.get(op, op))
            self.patch_function(fn, f"engine.{op}.fwd", after=self._tape_hook(op))

    def _tape_hook(self, op):
        """Wrap the VJP the op left on its output, and count conv2d work."""
        bwd_name = f"engine.{op}.bwd"

        def hook(args, kwargs, out):
            if op == "conv2d":
                fwd, bwd = conv_work(args[0].data, args[1].data)
                self._add_conv(fwd)
            vjp = out._vjp
            if vjp is None:
                return
            timed = self.wrap(bwd_name, vjp)
            if op == "conv2d":
                def counted(g):
                    self._add_conv(bwd)
                    return timed(g)
                out._vjp = counted
            else:
                out._vjp = timed

        return hook

    def _add_conv(self, work):
        self.counters["conv_flops"] += work[0]
        self.counters["conv_bytes"] += work[1]

    # -- results ----------------------------------------------------------

    def span_table(self):
        names = np.array(self.names, dtype=object)
        starts = np.array(self.starts)
        ends = np.array(self.ends)
        parents = np.array(self.parents, dtype=np.int64)
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, parents, dur, dur - child

    def write(self, path):
        """One JSON line per span: run ID, index, name, start, end, parent."""
        with open(path, "w") as f:
            for i, (name, s, e, p) in enumerate(zip(self.names, self.starts, self.ends,
                                                    self.parents)):
                f.write(json.dumps([self.run_id, i, name, s, e, p]) + "\n")


def conv_work(x, w):
    """(flops, bytes) of one conv2d forward and one backward, from shapes alone.

    Forward: im2col writes the column matrix and the GEMM reads it, reads the
    kernel and writes the output.  Backward: the weight GEMM reads the output
    gradient and the columns; the input gradient re-runs im2col on the output
    gradient and a GEMM against the flipped kernel.  Bytes ignore caches.
    """
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    pixels = n * h * wd
    gemm = 2.0 * pixels * c_out * c_in * 9
    cols, gcols = pixels * c_in * 9, pixels * c_out * 9
    out = pixels * c_out
    fwd_bytes = x.size + 2 * cols + w.size + out
    bwd_bytes = 2 * out + cols + 2 * w.size + 2 * gcols + x.size
    return (gemm, fwd_bytes * x.itemsize), (2 * gemm, bwd_bytes * x.itemsize)


class SetupReached(Exception):
    """Raised at the first training step of a set-up probe."""
