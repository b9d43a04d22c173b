"""Trajectory digests of one seed, to check that a change keeps runs bit for bit.

    python3 scripts/digests.py --seed 1

Run it on two checkouts and diff the output.  It prints one sha256 per line:

* ``blobs_metrics_csv`` and ``blobs_model_gxnr``: the two files that
  ``gxnor train --config configs/blobs.cfg --seed N`` writes;
* ``mlp_train_losses``: the per-step losses of perfbench's mlp-train run,
  the ``loss_sequence_sha256`` that it reports;
* ``conv_6_steps``: six seeded training steps of
  ``conv-32c5-mp2-64c5-mp2-512fc`` on perfbench's synthetic images.  It
  hashes the losses, then every grid weight tensor, then each batch norm's
  gamma, beta and running statistics, then both optimizers' Adam moments;
* ``conv_eval``: one ``evaluate`` of that trained net over 2 500 further
  images, batches of 1 000, 1 000 and 500: the first runs each batch norm
  and quantizer pair unfused, the second compiles their folds and the third
  reuses them.  It hashes each batch's scores and zero fractions.

The package and the workloads come from this checkout's ``src/`` and
``perfbench/``.  Results can depend on the BLAS build and on the kernel
family that it picks for the CPU (``conv_6_steps`` and ``blobs_model_gxnr``
do), so compare digests made on one machine.  The BLAS name, version and
kernel family go to standard error, so that standard output holds only the
digests.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import gxnor  # noqa: E402
import gxnor.cli  # noqa: E402
import workloads  # noqa: E402

CONV_STEPS = 6
EVAL_IMAGES = 2500


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def blobs_digests(seed: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out:
        argv = ["train", "--config", os.path.join(ROOT, "configs", "blobs.cfg"),
                "--seed", str(seed), "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = gxnor.cli.main(argv)
        if code != 0:
            sys.exit(f"gxnor train on blobs exited {code}")
        return {"blobs_metrics_csv": file_digest(os.path.join(out, "metrics.csv")),
                "blobs_model_gxnr": file_digest(os.path.join(out, "model.gxnr"))}


def mlp_digest(seed: int) -> str:
    stats = workloads.Stats()
    with tempfile.TemporaryDirectory() as work:
        run = workloads.MlpTrain(seed, ROOT, work)
        run.setup(stats)
    if stats.failed:
        sys.exit(f"mlp-train run failed its checks: {stats.errors}")
    return run.digests()["loss_sequence_sha256"]


def conv_digests(seed: int) -> dict[str, str]:
    rng = np.random.default_rng(seed)
    train = workloads.synthetic_images(rng, CONV_STEPS * workloads.BATCH)
    net = gxnor.build_network(workloads.CONV, seed=seed)
    grid = gxnor.DstOptimizer(net.grid_params())
    real = gxnor.AdamOptimizer(net.real_params())
    losses = [gxnor.train_step(net, images, labels, grid, real)
              for images, labels in gxnor.batches(train, workloads.BATCH, seed)]
    arrays = [np.asarray(losses)]
    arrays += [p.value for p in net.grid_params()]
    for layer in net.layers:
        if isinstance(layer, gxnor.BatchNorm):
            arrays += [layer.gamma.value, layer.beta.value,
                       layer.running_mean, layer.running_var]
    arrays += [m for p in net.grid_params() + net.real_params() for m in (p.m1, p.m2)]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    test = workloads.synthetic_images(rng, EVAL_IMAGES)
    return {"conv_6_steps": h.hexdigest(), "conv_eval": eval_digest(net, test)}


def eval_digest(net: gxnor.Network, test: gxnor.Dataset) -> str:
    """sha256 of each batch's scores and zero fractions in one ``evaluate``."""
    h = hashlib.sha256()
    walk = gxnor.network._walk

    def hashed_walk(*args, **kwargs):
        scores, zeros = walk(*args, **kwargs)
        h.update(np.ascontiguousarray(scores, dtype=np.float64).tobytes())
        h.update(np.asarray(zeros, dtype=np.float64).tobytes())
        return scores, zeros

    gxnor.network._walk = hashed_walk
    try:
        gxnor.evaluate(net, test)
    finally:
        gxnor.network._walk = walk
    return h.hexdigest()


def blas_stamp() -> str:
    """The BLAS build NumPy reports and the kernel family OpenBLAS picked."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    core = None
    try:  # the loaded library, found as perfbench/run.py finds it
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for path in sorted(paths):
            for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                           "openblas_get_corename"):
                fn = getattr(ctypes.CDLL(path), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    core = fn().decode()
                    break
    except OSError:
        pass
    return f"blas {blas.get('name')} {blas.get('version')} core {core}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    print(blas_stamp(), file=sys.stderr)
    digests = blobs_digests(seed)
    digests["mlp_train_losses"] = mlp_digest(seed)
    digests.update(conv_digests(seed))
    for name, value in digests.items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
