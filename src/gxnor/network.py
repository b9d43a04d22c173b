"""Network assembly, training loop, and one layer walk for training and inference.

Architectures are named by compact ids in one grammar.  Every width, kernel
size and pool size is ``[1-9][0-9]*``, and each stage's shape is checked
against the layer that computes it when the network is built, before any
training:

* ``conv-16c5-mp2-32c5-mp2-128fc``: ``<n>c<k>`` convolution (valid, stride
  1; each kernel fits its input), ``mp<k>`` max pooling (each window divides
  its input), then ``<n>fc`` dense stages; each weighted stage gets batch
  norm plus quantized activation, then a final dense classifier.
* ``mlp-784-200-200-10``: ``<in>`` must be the input's feature count and
  ``<out>`` is the class count; it reads as a flatten, the ``<h>fc`` stages,
  and a final dense layer that emits real scores.

Training follows forward -> squared hinge loss -> backward -> one stochastic
grid transition per weight tensor and one Adam step for the batch-norm
parameters, with the learning rate decaying by a fixed factor per epoch.

One layer walk runs every forward pass, each conv stage one channel block at
a time.  Training runs every layer.  Inference, float or packed, counts the
zeros of each quantized activation and runs each ``BatchNorm`` ->
``QuantAct`` pair as exact per-channel compares (:mod:`gxnor.fold`) once its
parameters have been seen twice: a batch whose batch-norm state and
quantizer differ from the last batch's runs the two layers, and the next
batch that finds the same state compiles the thresholds, which serve that
batch and every later one until the state changes.  Training changes the
state every step, so ``fit``'s once-per-epoch test pass compiles nothing
unless it has more than one batch.  ``evaluate`` (and ``fit``'s per-epoch
test pass) take the float walk, one batch at a time.
``packed_evaluate`` takes the packed walk, where every dense layer whose
operands are exactly ternary runs on bit-packed gated-XNOR dot products and
must agree with the float walk bit for bit.  ``check_packed_scores`` runs
both, score matrix by score matrix, and reports the float walk's accuracy
and sparsity.
"""

from __future__ import annotations

import re
import time
from math import prod

import numpy as np

from .config import MetricsRecord, RunConfig
from .data import Dataset, batches
from .dst import AdamOptimizer, DstOptimizer, lr_schedule
from .fold import Fold, compile_pair, pair_state
from .kernel import OpReport, PackedTernary, pack_ternary_matrix, packed_dense_forward
from .layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    Layer,
    MaxPool2d,
    QuantAct,
    _channel_blocks,
    svm_hinge_loss,
)
from .spaces import DiscreteSpace, PulseShape, SurrogateSpec, make_space

__all__ = [
    "Network",
    "build_network",
    "network_from_config",
    "train_step",
    "evaluate",
    "packed_eligible",
    "packed_evaluate",
    "check_packed_scores",
    "fit",
]

EVAL_BATCH = 1000
WIDTH = r"[1-9][0-9]*"  # every width, kernel size and pool size in an id
SHUFFLE_DOMAIN = 1 << 20


class Network:
    """A fixed sequence of layers ending in real-valued class scores.

    Image batches arrive as (b, c, h, w).  A net whose first layer is 4-D (a
    conv net) is ``batch_last``: its layers, ``Flatten`` included, take them
    as (c, h, w, b).  Backward stops at the first weighted layer, which skips
    its input gradient.  Training and inference run each conv stage, a 4-D
    ``BatchNorm`` -> ``QuantAct`` pair and the ``MaxPool2d`` after it if
    there is one, one channel block at a time (see :mod:`gxnor.layers`).
    """

    def __init__(self, layers: list[Layer], classes: int, input_shape: tuple[int, ...]):
        self.layers = layers
        self.classes = classes
        self.input_shape = tuple(input_shape)
        self.batch_last = isinstance(layers[0], (Conv2d, MaxPool2d))
        for i, layer in enumerate(layers):
            if isinstance(layer, Flatten):
                layer.batch_last = self.batch_last
            # Training normalizes in place, so a BatchNorm's input must be an
            # array that nothing else reads: a fresh Dense or Conv2d output.
            fresh = i and isinstance(layers[i - 1], (Dense, Conv2d))
            if isinstance(layer, BatchNorm) and not fresh:
                raise ValueError(f"layer {i}: a BatchNorm must directly follow a Dense or Conv2d")
        self._first_weighted = next((i for i, l in enumerate(layers) if l.grid_params()), None)
        if self._first_weighted is None:
            raise ValueError("the network has no weighted layer")
        layers[self._first_weighted].input_grad = False
        # The one fold slot: the pairs' state last seen and the folds compiled from it.
        self._fold_slot: tuple = (None, None)
        # By the index of each BatchNorm followed by a QuantAct, where the
        # pair's stage ends: after the pair, or after its pool.
        self._stage_end = {i: i + 3 if i + 2 < len(layers) and isinstance(layers[i + 2], MaxPool2d)
                           else i + 2 for i, (a, b) in enumerate(zip(layers, layers[1:]))
                           if isinstance(a, BatchNorm) and isinstance(b, QuantAct)}

    def enter(self, images: np.ndarray) -> np.ndarray:
        """An image batch in the layout the first layer takes."""
        return np.ascontiguousarray(images.transpose(1, 2, 3, 0)) if self.batch_last else images

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """The class scores of an image batch, by :func:`_walk`: an inference
        pass runs a compiled fold where the second-sight rule gives one."""
        return _walk(self, x, training=training)[0]

    def backward(self, dscores: np.ndarray) -> None:
        starts = {end: i for i, end in self._stage_end.items()}
        grad, i = dscores, len(self.layers)
        while i > self._first_weighted:
            if grad.ndim == 4 and i in starts:
                grad, i = self._stage_backward(starts[i], grad), starts[i]
            else:
                grad, i = self.layers[i - 1].backward(grad), i - 1

    def _stage_forward(self, start: int, y: np.ndarray, training: bool,
                       fold: Fold | None = None) -> tuple[np.ndarray, int]:
        """The stage's output on ``y`` and, in inference, its quantized
        output's zero count; there the pair runs as ``fold`` if one is given."""
        bn, qa, *pool = self.layers[start:self._stage_end[start]]
        c, h, w, b = y.shape
        out = np.empty((c, *pool[0].out_hw(h, w), b) if pool else y.shape)
        zeros = 0
        for s in _channel_blocks(out):
            if fold is not None:
                q, n = fold.levels(y[s], s)
            else:
                z = bn.forward(y, training, s)
                q = qa.forward(z, False)
                n = 0 if training else q.size - np.count_nonzero(q)
            zeros += n
            out[s] = pool[0].forward(q, training) if pool else q
            if training:
                # Behind a pool every tap but a window's winner gets a +0.0
                # gradient, so QuantAct caches its pulses at the winners alone.
                qa.keep(pool[0].winners(z) if pool else z)
        return out, zeros

    def _stage_backward(self, start: int, grad: np.ndarray) -> np.ndarray:
        """The stage's input gradient, written block by block, last block
        first, over the array that its training forward normalized in place."""
        bn, qa, *pool = self.layers[start:self._stage_end[start]]
        for s in reversed(_channel_blocks(grad)):
            g = qa.backward(grad[s])
            dx = bn.backward(pool[0].backward(g) if pool else g)
        return dx

    def grid_params(self):
        return [p for layer in self.layers for p in layer.grid_params()]

    def real_params(self):
        return [p for layer in self.layers for p in layer.real_params()]

    def quant_layers(self) -> list[QuantAct]:
        return [layer for layer in self.layers if isinstance(layer, QuantAct)]

    def weights_on_grid(self) -> bool:
        return all(np.isin(p.value, p.space.states()).all() for p in self.grid_params())

    def _folds(self) -> dict:
        """Compiled folds by the index of their ``BatchNorm`` for the pairs'
        current state, by the second-sight rule; empty on first sight.  A pair
        whose state admits no fold maps to None."""
        state = tuple(pair_state(self.layers[i], self.layers[i + 1]) for i in self._stage_end)
        seen, folds = self._fold_slot
        if state != seen:
            self._fold_slot = (state, None)
            return {}
        if folds is None:
            folds = {i: compile_pair(self.layers[i], self.layers[i + 1]) for i in self._stage_end}
            self._fold_slot = (state, folds)
        return folds


def _quant_block(space: DiscreteSpace, spec: SurrogateSpec, features: int):
    return [BatchNorm(features), QuantAct(space, spec)]


def build_network(
    architecture: str,
    *,
    n1: int = 1,
    n2: int = 1,
    h: float = 1.0,
    r: float = 0.5,
    surrogate: str = "rect",
    a: float = 0.5,
    seed: int = 1,
    input_shape: tuple[int, ...] = (1, 28, 28),
    classes: int = 10,
) -> Network:
    """Construct a network from its architecture id; weights start on the grid."""
    if len(input_shape) != 3 or not all(type(d) is int and d > 0 for d in input_shape):
        raise ValueError(f"input shape must be three positive ints, got {input_shape!r}")
    w_space = make_space(n1, h)
    a_space = make_space(n2, h)
    spec = SurrogateSpec(shape=PulseShape(surrogate), a=a, r=r)

    family, _, body = architecture.partition("-")
    tokens = body.split("-")
    layers: list[Layer] = []
    flat = None  # the feature count once a Flatten is in place
    if family == "mlp":
        if len(tokens) < 2 or not all(re.fullmatch(WIDTH, tok) for tok in tokens):
            raise ValueError(f"mlp id needs {WIDTH} widths, in and out at least: {architecture!r}")
        if int(tokens[0]) != prod(input_shape):
            raise ValueError(
                f"architecture expects {tokens[0]} inputs, data provides {prod(input_shape)}")
        layers, flat, classes = [Flatten()], int(tokens[0]), int(tokens[-1])
        tokens = [f"{tok}fc" for tok in tokens[1:-1]]
    elif family == "conv":
        chans, height, width = input_shape
    else:
        raise ValueError(f"unknown architecture id {architecture!r}")
    widx = 0
    for token in tokens:
        if flat is None and (m := re.fullmatch(rf"({WIDTH})c({WIDTH})", token)):
            out_c, k = int(m.group(1)), int(m.group(2))
            # Pixels, pooled or not, until a conv's quantized activation.
            conv = Conv2d(chans, out_c, k, w_space, seed, widx,
                          input_space=a_space if widx else None)
            widx += 1
            chans, (height, width) = out_c, conv.out_hw(height, width)
            layers += [conv, *_quant_block(a_space, spec, out_c)]
        elif flat is None and (m := re.fullmatch(rf"mp({WIDTH})", token)):
            layers.append(MaxPool2d(int(m.group(1))))
            height, width = layers[-1].out_hw(height, width)
        elif m := re.fullmatch(rf"({WIDTH})fc", token):
            out_f = int(m.group(1))
            if flat is None:
                layers.append(Flatten())
                flat = chans * height * width
            layers.append(Dense(flat, out_f, w_space, seed, widx))
            widx += 1
            layers += _quant_block(a_space, spec, out_f)
            flat = out_f
        else:
            after = "" if flat is None else " after an fc stage"
            raise ValueError(f"bad architecture token {token!r}{after}")
    if flat is None:
        raise ValueError("conv architecture needs at least one fc stage")
    layers.append(Dense(flat, classes, w_space, seed, widx))
    return Network(layers, classes=classes, input_shape=input_shape)


def network_from_config(config: RunConfig, input_shape, classes: int) -> Network:
    """The network ``config`` names, for ``classes``-way data of ``input_shape``."""
    net = build_network(
        config.architecture,
        n1=config.n1, n2=config.n2, h=config.h, r=config.r,
        surrogate=config.surrogate, a=config.a, seed=config.seed,
        input_shape=tuple(input_shape), classes=classes,
    )
    if net.classes != classes:
        raise ValueError(f"{net.classes} outputs, but the data has {classes} classes")
    return net


def train_step(net: Network, images: np.ndarray, labels: np.ndarray,
               grid_opt: DstOptimizer, real_opt: AdamOptimizer) -> float:
    """One mini-batch update; returns the batch loss."""
    scores = net.forward(images, training=True)
    lg = svm_hinge_loss(scores, labels)
    net.backward(lg.dscores)
    grid_opt.step()
    real_opt.step()
    return lg.loss


def _walk(net: Network, x: np.ndarray, packed_w: dict | None = None,
          tally: np.ndarray | None = None, *,
          training: bool = False) -> tuple[np.ndarray, list[float]]:
    """One batch's class scores and, in inference, each quantized layer's
    zero fraction; every forward pass of ``net`` is this walk.

    A conv stage runs by channel blocks.  Training empties every layer's
    stack, runs every layer, pushing what backward needs, and counts no
    zeros; the layers before the first weighted one, where backward stops,
    run as in inference.  Inference runs a pair with a compiled fold as its
    compares.  Each dense layer with packed weights in ``packed_w``
    (``id(layer)`` to packed weights) runs on bit planes, taken straight
    from a fold's compares where one feeds it, and adds its open gates,
    bitcounts and lanes to ``tally``; its integer scores go on as they are.
    """
    zeros = []
    folds = {} if training else net._folds()
    x = net.enter(x)
    layers = net.layers
    if training:
        for layer in layers:
            layer.stack.clear()
    i = 0
    while i < len(layers):
        layer = layers[i]
        fold = folds.get(i)
        if fold is not None or (i in net._stage_end and x.ndim == 4):
            size = x.size
            if x.ndim == 4:
                x, zero = net._stage_forward(i, x, training, fold)
            else:
                feeds_packed = packed_w and i + 2 < len(layers) and id(layers[i + 2]) in packed_w
                x, zero = (fold.planes if feeds_packed else fold.levels)(x)
            if not training:
                zeros.append(zero / size)
            i = net._stage_end[i]
            continue
        if packed_w and id(layer) in packed_w:
            planes = x if isinstance(x, PackedTernary) else pack_ternary_matrix(x)
            x, rep = packed_dense_forward(planes, packed_w[id(layer)])
            tally += (rep.xnor_ops, rep.bitcount_ops, planes.n_rows * layer.weight.value.size)
        else:
            x = layer.forward(x, training and i >= net._first_weighted)
        if isinstance(layer, QuantAct) and not training:
            zeros.append((x.size - np.count_nonzero(x)) / x.size)
        i += 1
    return x, zeros


def _inference_pass(
    net: Network, dataset: Dataset, packed_w: dict | None = None, check: bool = False,
) -> tuple[float, float, tuple[float, ...], OpReport]:
    """Accuracy, mean and per-quantized-layer zero fractions, and OpReport.

    Without ``packed_w`` the float walk runs; with it, the packed walk.  With
    ``check`` both run, the float walk giving accuracy and sparsity, and their
    score matrices must be equal batch by batch (RuntimeError if not).
    """
    zero = np.zeros(len(net.quant_layers()))
    tally = np.zeros(3, dtype=np.int64)
    correct = 0
    n = len(dataset)
    for lo in range(0, n, EVAL_BATCH):
        hi = min(lo + EVAL_BATCH, n)
        images = dataset.images[lo:hi]
        scores, fractions = _walk(net, images, None if check else packed_w, tally)
        if check and not np.array_equal(_walk(net, images, packed_w, tally)[0], scores):
            raise RuntimeError(
                f"packed scores differ from float scores on images {lo}..{hi - 1}")
        correct += int((np.argmax(scores, axis=1) == dataset.labels[lo:hi]).sum())
        zero += np.multiply(fractions, hi - lo)
    xnor, bitcount, lanes = map(int, tally)
    report = OpReport(
        xnor_ops=xnor,
        bitcount_ops=bitcount,
        resting_fraction=1.0 - xnor / lanes if lanes else 0.0,
    )
    n = max(n, 1)  # an empty dataset scores 0 everywhere
    sparsity = float(zero.mean() / n) if zero.size else 0.0
    return correct / n, sparsity, tuple(float(z / n) for z in zero), report


def evaluate(net: Network, dataset: Dataset) -> tuple[float, float]:
    """Deterministic float-path accuracy and mean zero-activation fraction."""
    return _inference_pass(net, dataset)[:2]


def _packed_layers(net: Network) -> list[Dense]:
    return [layer for prev, layer in zip(net.layers, net.layers[1:])
            if isinstance(prev, QuantAct) and isinstance(layer, Dense)]


def packed_eligible(net: Network) -> bool:
    """Whether ``packed_evaluate`` can run: ternary unit-range grids, dense
    layers only, one of them at least fed by a quantized activation."""
    ternary_unit = lambda s: s.n == 1 and s.h == 1.0
    return (
        all(ternary_unit(p.space) for p in net.grid_params())
        and all(ternary_unit(qa.space) for qa in net.quant_layers())
        and all(isinstance(l, (Flatten, Dense, BatchNorm, QuantAct)) for l in net.layers)
        and bool(_packed_layers(net))
    )


def _packed_weights(net: Network) -> dict:
    if not packed_eligible(net):
        raise ValueError("packed inference needs ternary unit-range weights and activations "
                         "and a dense layer fed by a quantized activation")
    return {id(layer): pack_ternary_matrix(layer.weight.value) for layer in _packed_layers(net)}


def packed_evaluate(net: Network, dataset: Dataset) -> tuple[float, OpReport]:
    """Accuracy via gated-XNOR dot products wherever both operands are ternary.

    Dense layers fed by a quantized activation run on bit planes; the first
    layer sees continuous pixels and stays on the float path.  Scores equal
    the float path exactly (integer-valued sums are exact in both).
    """
    accuracy, _, _, report = _inference_pass(net, dataset, _packed_weights(net))
    return accuracy, report


def check_packed_scores(net: Network, dataset: Dataset) -> tuple[float, float, OpReport]:
    """Float-path accuracy and sparsity, with the packed path's report; raises
    RuntimeError at the first batch whose packed and float scores differ."""
    accuracy, sparsity, _, report = _inference_pass(net, dataset, _packed_weights(net), check=True)
    return accuracy, sparsity, report


def _shuffle_seed(seed: int, epoch: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(SHUFFLE_DOMAIN, epoch))
    return np.random.Generator(np.random.Philox(seq))


def fit(
    net: Network,
    train: Dataset,
    test: Dataset,
    *,
    epochs: int,
    batch_size: int,
    lr_start: float,
    lr_fin: float,
    m: float = 3.0,
    seed: int = 1,
    on_epoch=None,
) -> list[MetricsRecord]:
    """Full training loop; returns one record per epoch."""
    grid_opt = DstOptimizer(net.grid_params(), m=m, lr=lr_start)
    real_opt = AdamOptimizer(net.real_params(), lr=lr_start)
    alpha = lr_schedule(lr_start, lr_fin, epochs)
    records: list[MetricsRecord] = []
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        losses = []
        for images, labels in batches(train, batch_size, _shuffle_seed(seed, epoch)):
            losses.append(train_step(net, images, labels, grid_opt, real_opt))
        accuracy, sparsity, fractions, _ = _inference_pass(net, test)
        grid_opt.lr *= alpha
        real_opt.lr *= alpha
        record = MetricsRecord(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            test_accuracy=accuracy,
            sparsity=sparsity,
            zero_fractions=fractions,
            wall_time=time.perf_counter() - t0,
        )
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return records
