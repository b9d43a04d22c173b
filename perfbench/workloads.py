"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup``, which
also makes any reference run that later runs are checked against.  Then
``warm_up`` runs one untimed iteration, and ``iterate`` runs one timed
iteration and returns the wall times it measured.  Every operation is
checked; ``Stats`` counts what was attempted and what failed.  Workloads
call ``gxnor`` through module attributes (``gxnor.train_step``,
``gxnor.cli.main``) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time

import numpy as np

import gxnor
import gxnor.cli

BATCH = 100
MLP = "mlp-784-200-200-10"
CONV = "conv-32c5-mp2-64c5-mp2-512fc"
CLASSES = 10
EVAL_SLICE = 1000
clock = time.perf_counter


class Stats:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 10:
            self.errors.append(what)

    def check(self, ok, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


def synthetic_images(rng: np.random.Generator, n: int) -> gxnor.Dataset:
    """MNIST-shaped images in [-1, 1]: a noisy copy of one random prototype per class."""
    prototypes = rng.uniform(-1.0, 1.0, size=(CLASSES, 28 * 28))
    labels = rng.integers(0, CLASSES, size=n)
    pixels = 0.6 * prototypes[labels] + rng.normal(0.0, 0.5, size=(n, 28 * 28))
    images = np.clip(pixels, -1.0, 1.0).reshape(n, 1, 28, 28)
    return gxnor.Dataset(images=images, labels=labels, classes=CLASSES)


def blas_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The float matmul that a packed dense layer replaces."""
    return x @ w.T


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Workload:
    """Base: ``items_per_iter`` items of work are done by each timed iteration."""

    name = ""
    items_per_iter = 1

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def setup(self, stats: Stats) -> None:
        raise NotImplementedError

    def warm_up(self, stats: Stats) -> None:
        self.iterate(stats)

    def iterate(self, stats: Stats) -> list[float]:
        raise NotImplementedError

    def named_metrics(self, durations: list[float]) -> dict:
        """The workload's own metrics over the timed iterations: name -> (value, unit)."""
        return {}

    def digests(self) -> dict:
        return {}


class MlpTrain(Workload):
    """Repeated short training runs of the MLP from the same seed.

    Every run is one epoch over 3000 images followed by a float evaluate of
    1000 test images; its per-step losses must hash to the same digest as the
    first run's.
    """

    name = "mlp-train"
    items_per_iter = BATCH

    def setup(self, stats):
        rng = np.random.default_rng(self.seed)
        self.train = synthetic_images(rng, 3000)
        self.test = synthetic_images(rng, EVAL_SLICE)
        self._reset_totals()
        _, self.reference = self._run(stats)

    def _reset_totals(self):
        self.eval_s = 0.0
        self.eval_images = 0

    def _run(self, stats: Stats) -> tuple[list[float], str]:
        net = gxnor.build_network(MLP, seed=self.seed)
        grid = gxnor.DstOptimizer(net.grid_params())
        real = gxnor.AdamOptimizer(net.real_params())
        losses, durations = [], []
        batches = iter(gxnor.batches(self.train, BATCH, self.seed))
        while True:
            start = clock()
            try:
                images, labels = next(batches)
            except StopIteration:
                break
            loss = gxnor.train_step(net, images, labels, grid, real)
            durations.append(clock() - start)
            losses.append(loss)
            stats.check(np.isfinite(loss), f"non-finite training loss {loss}")
        stats.check(net.weights_on_grid(), "weights left the grid after training")
        start = clock()
        accuracy, _ = gxnor.evaluate(net, self.test)
        self.eval_s += clock() - start
        self.eval_images += len(self.test)
        stats.check(0.0 <= accuracy <= 1.0, f"accuracy {accuracy} outside [0, 1]")
        return durations, digest(np.asarray(losses, dtype=np.float64).tobytes())

    def warm_up(self, stats):
        self.iterate(stats)
        self._reset_totals()

    def iterate(self, stats):
        durations, loss_digest = self._run(stats)
        stats.check(loss_digest == self.reference, "loss trajectory differs from the first run")
        return durations

    def named_metrics(self, durations):
        ordered = sorted(durations)
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        return {
            "train_samples_per_s": (_rate(BATCH * len(durations), sum(durations)), "1/s"),
            "train_step_ms_p50": (statistics.median(durations) * 1e3, "ms"),
            "train_step_ms_p95": (p95 * 1e3, "ms"),
            "eval_images_per_s": (_rate(self.eval_images, self.eval_s), "1/s"),
        }

    def digests(self):
        return {"loss_sequence_sha256": self.reference}


class ConvTrain(Workload):
    """One continuing training run of the conv net, one timed step per iteration."""

    name = "conv-train"
    items_per_iter = BATCH

    def setup(self, stats):
        rng = np.random.default_rng(self.seed)
        self.train = synthetic_images(rng, 1000)
        self.net = gxnor.build_network(CONV, seed=self.seed)
        self.grid = gxnor.DstOptimizer(self.net.grid_params())
        self.real = gxnor.AdamOptimizer(self.net.real_params())
        self.steps = 0

    def iterate(self, stats):
        # Each step takes the first batch of a fresh shuffle, so no batch
        # iterator outlives the step and a traced phase sees every wait.
        order = np.random.default_rng([self.seed, self.steps])
        self.steps += 1
        start = clock()
        images, labels = next(iter(gxnor.batches(self.train, BATCH, order)))
        loss = gxnor.train_step(self.net, images, labels, self.grid, self.real)
        elapsed = clock() - start
        stats.check(np.isfinite(loss), f"non-finite training loss {loss}")
        stats.check(self.net.weights_on_grid(), "weights left the grid")
        return [elapsed]

    def named_metrics(self, durations):
        return {
            "train_samples_per_s": (_rate(BATCH * len(durations), sum(durations)), "1/s"),
            "train_step_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        }


class MlpInfer(Workload):
    """Float and packed inference of a trained MLP restored from a checkpoint.

    One iteration takes one 1000-image slice of a 10 000-image test set
    through ``evaluate`` and ``packed_evaluate``, makes ``DOTS`` single-pair
    ``gated_xnor_dot`` calls on 64-lane vectors, and runs the BLAS matmul that
    a packed dense layer replaces on a fixed slice's operands.
    """

    name = "mlp-infer"
    items_per_iter = EVAL_SLICE
    DOTS = 1000
    TRAIN_STEPS = 20

    def setup(self, stats):
        rng = np.random.default_rng(self.seed)
        train = synthetic_images(rng, 2000)
        test = synthetic_images(rng, 10 * EVAL_SLICE)
        trained = gxnor.build_network(MLP, seed=self.seed)
        grid = gxnor.DstOptimizer(trained.grid_params())
        real = gxnor.AdamOptimizer(trained.real_params())
        for step, (images, labels) in enumerate(gxnor.batches(train, BATCH, self.seed)):
            if step == self.TRAIN_STEPS:
                break
            gxnor.train_step(trained, images, labels, grid, real)
        path = os.path.join(self.workdir, "mlp-infer.gxnr")
        gxnor.save_checkpoint(path, trained, gxnor.RunConfig(architecture=MLP, seed=self.seed))
        self.net, _, _ = gxnor.load_checkpoint(path)
        for a, b in zip(trained.grid_params(), self.net.grid_params()):
            if not np.array_equal(a.value, b.value):
                raise RuntimeError("checkpoint round trip changed the weights")

        self.slices = [
            gxnor.Dataset(test.images[lo:lo + EVAL_SLICE], test.labels[lo:lo + EVAL_SLICE],
                          CLASSES)
            for lo in range(0, len(test), EVAL_SLICE)
        ]
        lanes_a = rng.integers(-1, 2, size=(self.DOTS, 64))
        lanes_b = rng.integers(-1, 2, size=(self.DOTS, 64))
        self.pairs = [(gxnor.pack_ternary(a), gxnor.pack_ternary(b))
                      for a, b in zip(lanes_a, lanes_b)]
        self.expected = np.einsum("ij,ij->i", lanes_a, lanes_b)

        # The second dense layer's operands: ternary activations and weights.
        dense = [layer for layer in self.net.layers if isinstance(layer, gxnor.Dense)]
        x = self.slices[0].images
        for layer in self.net.layers[:self.net.layers.index(dense[1])]:
            x = layer.forward(x, training=False)
        self.blas_x, self.blas_w = x, dense[1].weight.value
        self.blas_expected = self.blas_x @ self.blas_w.T
        self.rounds = 0
        self._reset_totals()

    def _reset_totals(self):
        self.float_s = self.packed_s = self.dot_s = self.blas_s = 0.0
        self.resting = []

    def warm_up(self, stats):
        self.iterate(stats)
        self._reset_totals()

    def iterate(self, stats):
        data = self.slices[self.rounds % len(self.slices)]
        self.rounds += 1
        dot = gxnor.gated_xnor_dot
        t0 = clock()
        accuracy, _ = gxnor.evaluate(self.net, data)
        t1 = clock()
        packed_accuracy, report = gxnor.packed_evaluate(self.net, data)
        t2 = clock()
        results = [dot(a, b)[0] for a, b in self.pairs]
        t3 = clock()
        reference = blas_reference(self.blas_x, self.blas_w)
        t4 = clock()
        self.float_s += t1 - t0
        self.packed_s += t2 - t1
        self.dot_s += t3 - t2
        self.blas_s += t4 - t3
        self.resting.append(report.resting_fraction)

        stats.check(0.0 <= accuracy <= 1.0, f"float accuracy {accuracy} outside [0, 1]")
        stats.check(packed_accuracy == accuracy and 0.0 <= report.resting_fraction <= 1.0,
                    f"packed accuracy {packed_accuracy} vs float {accuracy}, "
                    f"resting fraction {report.resting_fraction}")
        wrong = int(np.count_nonzero(np.asarray(results) != self.expected))
        stats.record(len(results), wrong,
                     f"{wrong} gated_xnor_dot results differ from the naive dot")
        stats.check(np.array_equal(reference, self.blas_expected), "BLAS reference changed")
        return [t4 - t0]

    def named_metrics(self, durations):
        n = len(durations)
        return {
            "eval_images_per_s": (_rate(n * EVAL_SLICE, self.float_s), "1/s"),
            "packed_eval_images_per_s": (_rate(n * EVAL_SLICE, self.packed_s), "1/s"),
            "xnor_dot_calls_per_s": (_rate(n * self.DOTS, self.dot_s), "1/s"),
            "blas_ref_ms": (self.blas_s / n * 1e3 if n else 0.0, "ms"),
            "resting_fraction": (float(np.mean(self.resting)) if n else 0.0, "fraction"),
        }


class BlobsCli(Workload):
    """Repeated in-process ``gxnor train`` on ``configs/blobs.cfg``.

    Each command must exit 0, write a checkpoint that ``load_checkpoint``
    reads back onto the grid, and write a ``metrics.csv`` identical to the
    first command's.
    """

    name = "blobs-cli"

    def setup(self, stats):
        self.config = os.path.join(self.root, "configs", "blobs.cfg")
        config = gxnor.RunConfig.load(self.config)
        train, _ = gxnor.resolve_dataset(config.dataset)
        self.items_per_iter = config.epochs * len(train)
        self.out_dir = os.path.join(self.workdir, "blobs-cli")
        os.makedirs(self.out_dir, exist_ok=True)
        self.argv = ["train", "--config", self.config, "--seed", str(self.seed),
                     "--out-dir", self.out_dir]
        self.reference = None
        self._command(stats)

    def _command(self, stats: Stats) -> float:
        for output in ("metrics.csv", "model.gxnr"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out_dir, output))
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = gxnor.cli.main(self.argv)
        elapsed = clock() - start
        with open(os.path.join(self.out_dir, "metrics.csv"), "rb") as fh:
            metrics_digest = digest(fh.read())
        if self.reference is None:
            self.reference = metrics_digest
        net, _, _ = gxnor.load_checkpoint(os.path.join(self.out_dir, "model.gxnr"))
        stats.check(code == 0 and metrics_digest == self.reference and net.weights_on_grid(),
                    f"gxnor train exited {code}; metrics.csv "
                    f"{'matches' if metrics_digest == self.reference else 'differs from'} "
                    f"the first run")
        return elapsed

    def iterate(self, stats):
        return [self._command(stats)]

    def named_metrics(self, durations):
        return {"command_s_p50": (statistics.median(durations), "s")}

    def digests(self):
        return {"metrics_csv_sha256": self.reference}


WORKLOADS = {cls.name: cls for cls in (MlpTrain, ConvTrain, MlpInfer, BlobsCli)}
