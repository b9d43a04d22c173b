"""Network assembly, training loop, and the dual inference paths.

Architectures are named by compact ids:

* ``mlp-784-200-200-10``: dense stack; every hidden layer is followed by
  batch norm and a quantized activation, the last layer emits real scores.
* ``conv-16c5-mp2-32c5-mp2-128fc``: ``<n>c<k>`` convolution (valid, stride
  1), ``mp<k>`` max pooling, ``<n>fc`` dense; each weighted stage gets batch
  norm plus quantized activation, then a final dense classifier.

Training follows forward -> squared hinge loss -> backward -> one stochastic
grid transition per weight tensor and one Adam step for the batch-norm
parameters, with the learning rate decaying by a fixed factor per epoch.

Inference has one layer walk and one loop over batches.  The walk runs every
layer in inference mode and counts the zeros of each quantized activation.
``evaluate`` (and ``fit``'s per-epoch test pass) take the float walk.
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
from .kernel import OpReport, Architecture, pack_ternary_matrix, packed_dense_forward
from .layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    Layer,
    MaxPool2d,
    QuantAct,
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
SHUFFLE_DOMAIN = 1 << 20


class Network:
    """A fixed sequence of layers ending in real-valued class scores.

    Image batches arrive as (b, c, h, w).  With ``batch_last`` (a conv net)
    they enter the layers as (c, h, w, b).  Backward stops at the first
    weighted layer, which skips its input gradient.
    """

    def __init__(self, layers: list[Layer], classes: int, input_shape: tuple[int, ...],
                 batch_last: bool = False):
        self.layers = layers
        self.classes = classes
        self.input_shape = tuple(input_shape)
        self.batch_last = batch_last
        self._first_weighted = next(i for i, l in enumerate(layers) if l.grid_params())
        layers[self._first_weighted].input_grad = False

    def enter(self, images: np.ndarray) -> np.ndarray:
        """An image batch in the layout the first layer takes."""
        return np.ascontiguousarray(images.transpose(1, 2, 3, 0)) if self.batch_last else images

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self.enter(x)
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, dscores: np.ndarray) -> None:
        grad = dscores
        for layer in reversed(self.layers[self._first_weighted:]):
            grad = layer.backward(grad)

    def grid_params(self):
        return [p for layer in self.layers for p in layer.grid_params()]

    def real_params(self):
        return [p for layer in self.layers for p in layer.real_params()]

    def quant_layers(self) -> list[QuantAct]:
        return [layer for layer in self.layers if isinstance(layer, QuantAct)]

    def weights_on_grid(self) -> bool:
        return all(np.isin(p.value, p.space.states()).all() for p in self.grid_params())


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
    w_space = make_space(n1, h)
    a_space = make_space(n2, h)
    spec = SurrogateSpec(shape=PulseShape(surrogate), a=a, r=r)

    if architecture.startswith("mlp-"):
        dims = [int(tok) for tok in architecture[4:].split("-")]
        if len(dims) < 2:
            raise ValueError(f"mlp id needs at least in and out dims: {architecture!r}")
        if dims[0] != prod(input_shape):
            raise ValueError(
                f"architecture expects {dims[0]} inputs, data provides {prod(input_shape)}")
        layers: list[Layer] = [Flatten()]
        widx = 0
        for fan_in, fan_out in zip(dims[:-2], dims[1:-1]):
            layers.append(Dense(fan_in, fan_out, w_space, seed, widx))
            layers += _quant_block(a_space, spec, fan_out)
            widx += 1
        layers.append(Dense(dims[-2], dims[-1], w_space, seed, widx))
        return Network(layers, classes=dims[-1], input_shape=input_shape)

    if architecture.startswith("conv-"):
        chans, height, width = input_shape
        layers = []
        widx = 0
        flat = None
        for token in architecture[5:].split("-"):
            if m := re.fullmatch(r"(\d+)c(\d+)", token):
                out_c, k = int(m.group(1)), int(m.group(2))
                layers.append(Conv2d(chans, out_c, k, w_space, seed, widx))
                widx += 1
                chans, height, width = out_c, height - k + 1, width - k + 1
                layers += _quant_block(a_space, spec, out_c)
            elif m := re.fullmatch(r"mp(\d+)", token):
                k = int(m.group(1))
                layers.append(MaxPool2d(k))
                height, width = height // k, width // k
            elif m := re.fullmatch(r"(\d+)fc", token):
                out_f = int(m.group(1))
                if flat is None:
                    layers.append(Flatten(batch_last=True))
                    flat = chans * height * width
                layers.append(Dense(flat, out_f, w_space, seed, widx))
                widx += 1
                layers += _quant_block(a_space, spec, out_f)
                flat = out_f
            else:
                raise ValueError(f"unknown architecture token {token!r}")
        if flat is None:
            raise ValueError("conv architecture needs at least one fc stage")
        layers.append(Dense(flat, classes, w_space, seed, widx))
        return Network(layers, classes=classes, input_shape=input_shape, batch_last=True)

    raise ValueError(f"unknown architecture id {architecture!r}")


def network_from_config(config: RunConfig, input_shape, classes: int) -> Network:
    """The network ``config`` names, for ``classes``-way data of ``input_shape``."""
    return build_network(
        config.architecture,
        n1=config.n1, n2=config.n2, h=config.h, r=config.r,
        surrogate=config.surrogate, a=config.a, seed=config.seed,
        input_shape=tuple(input_shape), classes=classes,
    )


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
          tally: np.ndarray | None = None) -> tuple[np.ndarray, list[float]]:
    """One batch's class scores and each quantized layer's zero fraction.

    Every layer runs in inference mode.  Given ``packed_w`` (``id(layer)`` to
    packed weights), each dense layer fed by a QuantAct runs on bit planes and
    adds its open gates, bitcounts and lanes to ``tally``.
    """
    zeros = []
    ternary_in = False
    x = net.enter(x)
    for layer in net.layers:
        if ternary_in and packed_w is not None and isinstance(layer, Dense):
            scores, rep = packed_dense_forward(pack_ternary_matrix(x), packed_w[id(layer)])
            tally += (rep.xnor_ops, rep.bitcount_ops, len(x) * layer.weight.value.size)
            x = scores.astype(float)
        else:
            x = layer.forward(x, training=False)
        ternary_in = isinstance(layer, QuantAct)
        if ternary_in:
            zeros.append((x.size - np.count_nonzero(x)) / x.size)
    return x, zeros


def _inference_pass(
    net: Network, dataset: Dataset, batch_size: int = EVAL_BATCH,
    packed_w: dict | None = None, check: bool = False,
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
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        images = dataset.images[lo:hi]
        scores, fractions = _walk(net, images, None if check else packed_w, tally)
        if check and not np.array_equal(_walk(net, images, packed_w, tally)[0], scores):
            raise RuntimeError(
                f"packed scores differ from float scores on images {lo}..{hi - 1}")
        correct += int((np.argmax(scores, axis=1) == dataset.labels[lo:hi]).sum())
        zero += np.multiply(fractions, hi - lo)
    xnor, bitcount, lanes = map(int, tally)
    report = OpReport(
        architecture=Architecture.GXNOR,
        xnor_ops=xnor,
        bitcount_ops=bitcount,
        resting_fraction=1.0 - xnor / lanes if lanes else 0.0,
    )
    n = max(n, 1)  # an empty dataset scores 0 everywhere
    sparsity = float(zero.mean() / n) if zero.size else 0.0
    return correct / n, sparsity, tuple(float(z / n) for z in zero), report


def evaluate(net: Network, dataset: Dataset,
             batch_size: int = EVAL_BATCH) -> tuple[float, float]:
    """Deterministic float-path accuracy and mean zero-activation fraction."""
    return _inference_pass(net, dataset, batch_size)[:2]


def packed_eligible(net: Network) -> bool:
    """Whether ``packed_evaluate`` can run: ternary unit-range grids, dense layers only."""
    ternary_unit = lambda s: s.n == 1 and s.h == 1.0
    return (
        all(ternary_unit(p.space) for p in net.grid_params())
        and all(ternary_unit(qa.space) for qa in net.quant_layers())
        and all(isinstance(l, (Flatten, Dense, BatchNorm, QuantAct)) for l in net.layers)
    )


def _packed_weights(net: Network) -> dict:
    if not packed_eligible(net):
        raise ValueError("packed inference needs ternary unit-range weights and activations")
    return {id(layer): pack_ternary_matrix(layer.weight.value)
            for layer in net.layers if isinstance(layer, Dense)}


def packed_evaluate(net: Network, dataset: Dataset,
                    batch_size: int = EVAL_BATCH) -> tuple[float, OpReport]:
    """Accuracy via gated-XNOR dot products wherever both operands are ternary.

    Dense layers fed by a quantized activation run on bit planes; the first
    layer sees continuous pixels and stays on the float path.  Scores equal
    the float path exactly (integer-valued sums are exact in both).
    """
    accuracy, _, _, report = _inference_pass(net, dataset, batch_size, _packed_weights(net))
    return accuracy, report


def check_packed_scores(net: Network, dataset: Dataset,
                        batch_size: int = EVAL_BATCH) -> tuple[float, float, OpReport]:
    """Float-path accuracy and sparsity, with the packed path's report; raises
    RuntimeError at the first batch whose packed and float scores differ."""
    accuracy, sparsity, _, report = _inference_pass(
        net, dataset, batch_size, _packed_weights(net), check=True)
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
