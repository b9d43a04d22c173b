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
from math import prod

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, write_metrics, write_sweep_table
from .data import DataError, fetch_mnist, resolve_dataset
from .kernel import Architecture, count_ops
from .layers import BatchNorm, QuantAct
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
        config = dataclasses.replace(config, seed=args.seed).validate()
    return config


def _network(config: RunConfig, train_ds):
    try:
        net = network_from_config(config, train_ds.images.shape[1:], train_ds.classes)
    except ValueError as exc:
        raise ConfigError(f"architecture {config.architecture!r}: {exc}") from exc
    n, size = len(train_ds), config.batch_size
    if any(isinstance(l, BatchNorm) for l in net.layers) and (size == 1 or n % size == 1):
        raise ConfigError(
            f"batch_size={size} leaves a one-sample batch in the {n}-sample training set, "
            "and batch norm needs at least 2 samples per batch")
    return net


def _train_once(config: RunConfig, net, train_ds, test_ds, on_epoch=None):
    if config.lr_fin > config.lr_start:
        log.warning(
            "lr_fin (%g) exceeds lr_start (%g): learning rate will grow each epoch",
            config.lr_fin, config.lr_start)
    return fit(
        net, train_ds, test_ds,
        epochs=config.epochs, batch_size=config.batch_size,
        lr_start=config.lr_start, lr_fin=config.lr_fin,
        m=config.m, seed=config.seed, on_epoch=on_epoch,
    )


def cmd_train(args) -> int:
    config = _load_config(args)
    train_ds, test_ds = resolve_dataset(config.dataset, args.data_dir)
    net = _network(config, train_ds)  # a config error leaves no --out-dir behind
    os.makedirs(args.out_dir, exist_ok=True)
    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    ckpt_path = os.path.join(args.out_dir, "model.gxnr")
    # Each epoch rewrites the metrics file atomically, so a long run's progress
    # is on disk after every epoch and readers never see a partial file.
    so_far: list = []
    def report(rec):
        print(f"epoch {rec.epoch:3d}  loss {rec.train_loss:.4f}  "
              f"test_acc {rec.test_accuracy:.4f}  sparsity {rec.sparsity:.3f}  "
              f"wall {rec.wall_time:.1f}s")
        so_far.append(rec)
        write_metrics(metrics_path, config, so_far)
    records = _train_once(config, net, train_ds, test_ds, on_epoch=report)
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
    if test_ds.images.shape[1:] != net.input_shape:
        raise DataError(f"dataset {dataset!r} has images of shape {test_ds.images.shape[1:]}, "
                        f"but the checkpoint's network takes {net.input_shape}")
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
    cast = int if param in ("n1", "n2", "fan_in") else float
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad values for {param}: {exc}") from exc
    if not values or (param == "fan_in" and min(values) < 1):
        raise UsageError(f"bad values for {param}: {text!r}")
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
        records = _train_once(point, _network(point, train_ds), train_ds, test_ds)
        accuracy = records[-1].test_accuracy
        print(f"{args.param}={value} test_accuracy={accuracy!r}")
        rows.append((value, accuracy))
    os.makedirs(args.out_dir, exist_ok=True)
    table_path = os.path.join(args.out_dir, f"sweep_{args.param}.csv")
    write_sweep_table(table_path, args.param, rows)
    print(f"wrote {table_path}")
    return 0


COST_COLUMNS = "source,fan_in,architecture,multiplications,accumulations,xnor_ops,bitcount_ops,resting"


def _cost_rows(source: str, fan_in: int, *zeros: float) -> list[str]:
    rows = []
    for arch in Architecture:
        rep = count_ops(arch, fan_in, *zeros)
        rows.append(
            f"{source},{fan_in},{arch.value},{rep.multiplications:g},"
            f"{rep.accumulations:g},{rep.xnor_ops:g},{rep.bitcount_ops:g},"
            f"{rep.resting_percent()}")
    return rows


def cmd_costmodel(args) -> int:
    if args.checkpoint is None:
        fan_ins = _parse_values("fan_in", args.fan_in)
        print(COST_COLUMNS)
        for fan_in in fan_ins:
            for row in _cost_rows("uniform", fan_in):
                print(row)
        return 0
    print(COST_COLUMNS)
    net, _, header = load_checkpoint(args.checkpoint)
    fractions = iter(header["activation_zero_fractions"] or [])
    a_zero = 0.0  # first weighted layer sees continuous, never-zero input
    for i, layer in enumerate(net.layers):
        for p in layer.grid_params():
            fan_in = prod(p.value.shape[1:])
            w_zero = np.count_nonzero(p.value == 0) / p.value.size
            for row in _cost_rows(f"layer{i}", fan_in, w_zero, a_zero):
                print(row)
        if isinstance(layer, QuantAct):
            a_zero = next(fractions, 0.0)
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
        code = args.func(args) or 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout left; the interpreter's exit flush must not
        # raise again, and stderr is no place to report it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, RuntimeError, ValueError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
