"""Command-line driver.

Subcommands: ``train``, ``eval``, ``sweep``, ``costmodel``, ``fetch-mnist``.
Exit codes: 0 success, 1 usage error, 2 config error, 3 data error,
4 runtime error.  The MNIST directory comes from ``--data-dir`` or the
``GXNOR_DATA_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, write_metrics, write_sweep_table
from .data import DataError, fetch_mnist, resolve_dataset
from .kernel import Architecture, count_ops
from .layers import Conv2d, Dense, QuantAct
from .network import (
    check_packed_scores,
    evaluate,
    fit,
    network_from_config,
    packed_eligible,
)

__all__ = ["entry", "main"]

log = logging.getLogger("gxnor")

SWEEPABLE = ("m", "a", "r", "n1", "n2")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gxnor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a config file")
    train.add_argument("--config", required=True, help="path to key=value config")
    train.add_argument("--seed", type=int, default=None, help="override config seed")
    train.add_argument("--out-dir", default=".", help="where metrics.csv and model.gxnr go")
    train.add_argument("--data-dir", default=None, help="dataset root (or $GXNOR_DATA_DIR)")
    train.set_defaults(func=cmd_train)

    evl = sub.add_parser("eval", help="evaluate a checkpoint")
    evl.add_argument("--checkpoint", required=True)
    evl.add_argument("--dataset", default=None, help="override the checkpoint's dataset")
    evl.add_argument("--data-dir", default=None)
    evl.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="train once per value of one hyperparameter")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out-dir", default=".")
    sweep.add_argument("--data-dir", default=None)
    sweep.set_defaults(func=cmd_sweep)

    cost = sub.add_parser("costmodel", help="expected operation counts per architecture")
    cost.add_argument("--fan-in", default="784", help="comma-separated fan-ins")
    cost.add_argument("--checkpoint", default=None,
                      help="use empirical state frequencies from a trained model")
    cost.set_defaults(func=cmd_costmodel)

    fetch = sub.add_parser("fetch-mnist", help="download and verify the MNIST files")
    fetch.add_argument("--data-dir", default=None)
    fetch.set_defaults(func=cmd_fetch_mnist)
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.load(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _train_once(config: RunConfig, train_ds, test_ds, quiet: bool = False,
                on_epoch=None):
    if config.lr_fin > config.lr_start:
        log.warning(
            "lr_fin (%g) exceeds lr_start (%g): learning rate will grow each epoch",
            config.lr_fin, config.lr_start)
    try:
        net = network_from_config(config, train_ds.images.shape[1:], train_ds.classes)
    except ValueError as exc:
        raise ConfigError(f"architecture {config.architecture!r}: {exc}") from exc
    def report(rec):
        if not quiet:
            print(f"epoch {rec.epoch:3d}  loss {rec.train_loss:.4f}  "
                  f"test_acc {rec.test_accuracy:.4f}  sparsity {rec.sparsity:.3f}  "
                  f"wall {rec.wall_time:.1f}s")
        if on_epoch is not None:
            on_epoch(rec)
    records = fit(
        net, train_ds, test_ds,
        epochs=config.epochs, batch_size=config.batch_size,
        lr_start=config.lr_start, lr_fin=config.lr_fin,
        m=config.m, seed=config.seed, on_epoch=report,
    )
    return net, records


def cmd_train(args) -> int:
    config = _load_config(args)
    train_ds, test_ds = resolve_dataset(config.dataset, args.data_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    ckpt_path = os.path.join(args.out_dir, "model.gxnr")
    # Each epoch rewrites the metrics file atomically, so a long run's progress
    # is on disk after every epoch and readers never see a partial file.
    so_far: list = []
    def persist(rec):
        so_far.append(rec)
        write_metrics(metrics_path, config, so_far)
    net, records = _train_once(config, train_ds, test_ds, on_epoch=persist)
    # The last epoch's test-set pass ran on the final weights, so its
    # per-layer zero fractions are the trained model's.
    save_checkpoint(ckpt_path, net, config,
                    activation_zero_fractions=list(records[-1].zero_fractions))
    print(f"wrote {metrics_path} and {ckpt_path}")
    print(f"final test_accuracy={records[-1].test_accuracy!r}")
    return 0


def cmd_eval(args) -> int:
    net, config, header = load_checkpoint(args.checkpoint)
    dataset = args.dataset or config.dataset
    _, test_ds = resolve_dataset(dataset, args.data_dir)
    if packed_eligible(net):
        accuracy, sparsity, report = check_packed_scores(net, test_ds)
        print(f"inference=packed resting={report.resting_fraction!r}")
    else:
        accuracy, sparsity = evaluate(net, test_ds)
        print("inference=float")
    print(f"test_accuracy={accuracy!r}")
    print(f"sparsity={sparsity!r}")
    return 0


def _parse_values(param: str, text: str):
    cast = int if param in ("n1", "n2") else float
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --values for {param}: {exc}") from exc
    if not values:
        raise UsageError("--values is empty")
    return values


def cmd_sweep(args) -> int:
    config = _load_config(args)
    values = _parse_values(args.param, args.values)
    # Every point is checked before the first one trains.
    points = [dataclasses.replace(config, **{args.param: value}).validate() for value in values]
    train_ds, test_ds = resolve_dataset(config.dataset, args.data_dir)
    rows = []
    for value, point in zip(values, points):
        print(f"--- {args.param}={value}")
        _, records = _train_once(point, train_ds, test_ds, quiet=True)
        accuracy = records[-1].test_accuracy
        print(f"{args.param}={value} test_accuracy={accuracy!r}")
        rows.append((value, accuracy))
    os.makedirs(args.out_dir, exist_ok=True)
    table_path = os.path.join(args.out_dir, f"sweep_{args.param}.csv")
    write_sweep_table(table_path, args.param, rows)
    print(f"wrote {table_path}")
    return 0


COST_COLUMNS = "source,fan_in,architecture,multiplications,accumulations,xnor_ops,bitcount_ops,resting"


def _cost_rows(source: str, fan_in: int, w_dist=None, a_dist=None) -> list[str]:
    rows = []
    for arch in Architecture:
        rep = count_ops(arch, fan_in, w_dist=w_dist, a_dist=a_dist)
        rows.append(
            f"{source},{fan_in},{arch.value},{rep.multiplications:g},"
            f"{rep.accumulations:g},{rep.xnor_ops:g},{rep.bitcount_ops:g},"
            f"{rep.resting_percent()}")
    return rows


def _empirical_dist(values: np.ndarray) -> dict[float, float]:
    states, counts = np.unique(values, return_counts=True)
    return {float(s): float(c) / values.size for s, c in zip(states, counts)}


def cmd_costmodel(args) -> int:
    print(COST_COLUMNS)
    if args.checkpoint is None:
        for fan_in in _parse_values("fan_in", args.fan_in):
            for row in _cost_rows("uniform", int(fan_in)):
                print(row)
        return 0
    net, _, header = load_checkpoint(args.checkpoint)
    fractions = header.get("activation_zero_fractions") or []
    quant_seen = 0
    a_dist = {1.0: 1.0}  # first weighted layer sees continuous, never-zero input
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Dense):
            fan_in, w = layer.in_features, layer.weight.value
        elif isinstance(layer, Conv2d):
            fan_in = layer.in_channels * layer.kernel_size**2
            w = layer.weight.value
        else:
            if isinstance(layer, QuantAct) and quant_seen < len(fractions):
                zero = fractions[quant_seen]
                a_dist = {0.0: zero, 1.0: (1 - zero) / 2, -1.0: (1 - zero) / 2}
                quant_seen += 1
            continue
        for row in _cost_rows(f"layer{i}", fan_in, _empirical_dist(w), a_dist):
            print(row)
    return 0


def cmd_fetch_mnist(args) -> int:
    data_dir = args.data_dir or os.environ.get("GXNOR_DATA_DIR")
    if not data_dir:
        raise UsageError("fetch-mnist needs --data-dir or $GXNOR_DATA_DIR")
    fetch_mnist(data_dir)
    print(f"MNIST ready in {data_dir}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, RuntimeError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
