"""Span tracing for the benchmark's traced runs.

A traced run wraps public functions and methods of ``gxnor`` in spans.  A
function is wrapped under every module-level name that refers to it, because
callers look functions up in their own module: ``packed_evaluate`` reaches
``packed_dense_forward`` through ``gxnor.network``, and the command line
reaches ``fit`` and ``evaluate`` through ``gxnor.cli``.  Wrapping only the
defining module would miss those calls.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import gxnor

# Functions to wrap: (defining module, attribute, span name).  The benchmark's
# own ``workloads.blas_reference`` is traced like a kernel call.
FUNCTIONS = (
    ("gxnor.data", "batches", "data.batches_wait"),
    ("gxnor.layers", "svm_hinge_loss", "layers.svm_hinge_loss"),
    ("gxnor.network", "build_network", "network.build_network"),
    ("gxnor.network", "train_step", "network.train_step"),
    ("gxnor.network", "fit", "network.fit"),
    ("gxnor.network", "evaluate", "network.evaluate"),
    ("gxnor.network", "packed_evaluate", "network.packed_evaluate"),
    ("gxnor.kernel", "pack_ternary_matrix", "kernel.pack_ternary_matrix"),
    ("gxnor.kernel", "packed_dense_forward", "kernel.packed_dense_forward"),
    ("gxnor.kernel", "gated_xnor_dot", "kernel.gated_xnor_dot"),
    ("gxnor.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("gxnor.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("gxnor.config", "write_metrics", "config.write_metrics"),
    ("gxnor.cli", "main", "cli.main"),
    ("workloads", "blas_reference", "kernel.blas_ref"),
)

# Methods to wrap on their class: (class, method, span name).  Conv2d spans
# are named per instance (``layers.Conv2d.<i>.fwd``) because conv2 dominates.
METHODS = (
    [(cls, "forward", f"layers.{cls.__name__}.fwd")
     for cls in (gxnor.Dense, gxnor.BatchNorm, gxnor.QuantAct, gxnor.MaxPool2d, gxnor.Flatten)]
    + [(cls, "backward", f"layers.{cls.__name__}.bwd")
       for cls in (gxnor.Dense, gxnor.BatchNorm, gxnor.QuantAct, gxnor.MaxPool2d, gxnor.Flatten)]
    + [(gxnor.Conv2d, "forward", "layers.Conv2d.fwd"),
       (gxnor.Conv2d, "backward", "layers.Conv2d.bwd"),
       (gxnor.DstOptimizer, "step", "dst.DstOptimizer.step"),
       (gxnor.AdamOptimizer, "step", "dst.AdamOptimizer.step")]
)


_INHERITED = object()


def _traced_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "gxnor" or name.startswith("gxnor.") or name == "workloads"]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []
        self._conv_index = weakref.WeakKeyDictionary()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def _wrap(self, name, fn):
        if name == "data.batches_wait":
            # A generator does its work in next(), so each next() is one span.
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, next, it)
                    except StopIteration:
                        return
                    yield item
        elif name == "kernel.packed_dense_forward":
            def wrapper(x, w, *args, **kwargs):
                scores, report = self.call(name, fn, x, w, *args, **kwargs)
                self.counts["kernel.xnor_ops"] += report.xnor_ops
                self.counts["kernel.bitcount_ops"] += report.bitcount_ops
                self.counts["kernel.lanes"] += x.n_rows * w.n_rows * x.length
                return scores, report
        elif name == "dst.DstOptimizer.step":
            # A hop is a weight whose grid value changed in the step.
            def wrapper(opt, *args, **kwargs):
                before = [p.value.copy() for p in opt.params]
                result = self.call(name, fn, opt, *args, **kwargs)
                for old, p in zip(before, opt.params):
                    self.counts["dst.hops"] += int(np.count_nonzero(old != p.value))
                    self.counts["dst.weights"] += old.size
                return result
        elif name.startswith("layers.Conv2d."):
            phase = name.rsplit(".", 1)[1]
            index = self._conv_index

            def wrapper(layer, *args, **kwargs):
                i = index.setdefault(layer, len(index))
                return self.call(f"layers.Conv2d.{i}.{phase}", fn, layer, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        # A method a class inherits is patched on the class itself and
        # removed again on uninstall.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = _traced_modules()
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls, method, name in METHODS:
            self._patch(cls, method, self._wrap(name, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        out: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _per_call(span, scale):
    def value(summary, counts):
        row = summary.get(span)
        return row["total_s"] / row["calls"] * scale if row else 0.0
    return value


def _ratio(num, den, complement=False):
    def value(summary, counts):
        if not counts.get(den):
            return 0.0
        share = counts.get(num, 0.0) / counts[den]
        return 1.0 - share if complement else share
    return value


def _count_per_call(counter, span):
    def value(summary, counts):
        row = summary.get(span)
        return counts.get(counter, 0.0) / row["calls"] if row else 0.0
    return value


# Per-layer metrics: name, unit, better, how it is computed from the trace,
# the end-to-end metric it should move and the workloads where it must be
# non-zero.  Times are inclusive and per call; a layer that a workload never
# calls reads 0 there.  ``trace.overhead_pct`` is filled in by the runner.
PER_LAYER = [
    ("dst.DstOptimizer.step_ms", "ms", "lower", _per_call("dst.DstOptimizer.step", 1e3),
     "iter_ms_min (train_samples_per_s) on mlp-train; only slightly on conv-train",
     ("mlp-train", "conv-train")),
    ("dst.hop_fraction", "fraction", "higher", _ratio("dst.hops", "dst.weights"),
     "iter_ms_min (train_samples_per_s) on mlp-train; useful hops per weight visited",
     ("mlp-train", "conv-train")),
    ("dst.AdamOptimizer.step_ms", "ms", "lower", _per_call("dst.AdamOptimizer.step", 1e3),
     "iter_ms_min (train_samples_per_s) on mlp-train", ("mlp-train",)),
    ("layers.Conv2d.0.fwd_ms", "ms", "lower", _per_call("layers.Conv2d.0.fwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train",)),
    ("layers.Conv2d.0.bwd_ms", "ms", "lower", _per_call("layers.Conv2d.0.bwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train",)),
    ("layers.Conv2d.1.fwd_ms", "ms", "lower", _per_call("layers.Conv2d.1.fwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train",)),
    ("layers.Conv2d.1.bwd_ms", "ms", "lower", _per_call("layers.Conv2d.1.bwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train",)),
    ("layers.MaxPool2d.fwd_ms", "ms", "lower", _per_call("layers.MaxPool2d.fwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train",)),
    ("layers.MaxPool2d.bwd_ms", "ms", "lower", _per_call("layers.MaxPool2d.bwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train",)),
    ("layers.BatchNorm.fwd_ms", "ms", "lower", _per_call("layers.BatchNorm.fwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train", "mlp-train")),
    ("layers.BatchNorm.bwd_ms", "ms", "lower", _per_call("layers.BatchNorm.bwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train", "mlp-train")),
    ("layers.QuantAct.fwd_ms", "ms", "lower", _per_call("layers.QuantAct.fwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train", "mlp-train")),
    ("layers.QuantAct.bwd_ms", "ms", "lower", _per_call("layers.QuantAct.bwd", 1e3),
     "iter_ms_min (train_samples_per_s) on conv-train", ("conv-train", "mlp-train")),
    ("layers.Dense.fwd_ms", "ms", "lower", _per_call("layers.Dense.fwd", 1e3),
     "iter_ms_min on mlp-train (train_samples_per_s) and mlp-infer (eval_images_per_s)",
     ("mlp-train", "mlp-infer")),
    ("layers.Dense.bwd_ms", "ms", "lower", _per_call("layers.Dense.bwd", 1e3),
     "iter_ms_min (train_samples_per_s) on mlp-train", ("mlp-train",)),
    ("layers.svm_hinge_loss_ms", "ms", "lower", _per_call("layers.svm_hinge_loss", 1e3),
     "iter_ms_min (train_samples_per_s) on every training workload; should stay small",
     ("mlp-train", "conv-train", "blobs-cli")),
    ("data.batches_wait_ms", "ms", "lower", _per_call("data.batches_wait", 1e3),
     "iter_ms_min (train_samples_per_s) on every training workload; should stay small",
     ("mlp-train", "conv-train", "blobs-cli")),
    ("kernel.pack_ternary_matrix_ms", "ms", "lower", _per_call("kernel.pack_ternary_matrix", 1e3),
     "iter_ms_min (packed_eval_images_per_s) on mlp-infer", ("mlp-infer",)),
    ("kernel.packed_dense_forward_ms", "ms", "lower",
     _per_call("kernel.packed_dense_forward", 1e3),
     "iter_ms_min (packed_eval_images_per_s) on mlp-infer", ("mlp-infer",)),
    ("kernel.xnor_ops", "count", "lower",
     _count_per_call("kernel.xnor_ops", "kernel.packed_dense_forward"),
     "iter_ms_min (packed_eval_images_per_s) on mlp-infer", ("mlp-infer",)),
    ("kernel.bitcount_ops", "count", "lower",
     _count_per_call("kernel.bitcount_ops", "kernel.packed_dense_forward"),
     "iter_ms_min (packed_eval_images_per_s) on mlp-infer", ("mlp-infer",)),
    ("kernel.resting_fraction", "fraction", "higher",
     _ratio("kernel.xnor_ops", "kernel.lanes", complement=True),
     "iter_ms_min (packed_eval_images_per_s) on mlp-infer", ("mlp-infer",)),
    ("kernel.blas_ref_ms", "ms", "lower", _per_call("kernel.blas_ref", 1e3),
     "nothing: the BLAS baseline that packed_dense_forward_ms is compared with",
     ("mlp-infer",)),
    ("kernel.gated_xnor_dot_us", "us", "lower", _per_call("kernel.gated_xnor_dot", 1e6),
     "iter_ms_min (xnor_dot_calls_per_s) on mlp-infer", ("mlp-infer",)),
    ("network.evaluate_ms", "ms", "lower", _per_call("network.evaluate", 1e3),
     "iter_ms_min (eval_images_per_s) on mlp-infer", ("mlp-infer", "mlp-train")),
    ("network.packed_evaluate_ms", "ms", "lower", _per_call("network.packed_evaluate", 1e3),
     "iter_ms_min (packed_eval_images_per_s) on mlp-infer", ("mlp-infer",)),
    ("checkpoint.save_checkpoint_ms", "ms", "lower",
     _per_call("checkpoint.save_checkpoint", 1e3),
     "iter_ms_min (command_s_p50) on blobs-cli and setup_s on mlp-infer", ("blobs-cli",)),
    ("checkpoint.load_checkpoint_ms", "ms", "lower",
     _per_call("checkpoint.load_checkpoint", 1e3),
     "setup_s on mlp-infer; traced on blobs-cli, where the benchmark reloads each "
     "checkpoint outside the timed command", ("blobs-cli",)),
    ("config.write_metrics_ms", "ms", "lower", _per_call("config.write_metrics", 1e3),
     "iter_ms_min (command_s_p50) on blobs-cli", ("blobs-cli",)),
    ("cli.main_s", "s", "lower", _per_call("cli.main", 1.0),
     "iter_ms_min (command_s_p50) on blobs-cli", ("blobs-cli",)),
    ("trace.overhead_pct", "%", "lower", None,
     "nothing: traced over untraced median iteration, minus one", ()),
]


def per_layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, dict]:
    summary = tracer.summary()
    out = {}
    for name, unit, _, compute, _, _ in PER_LAYER:
        value = overhead_pct if compute is None else compute(summary, tracer.counts)
        out[name] = {"value": float(value), "unit": unit}
    return out
