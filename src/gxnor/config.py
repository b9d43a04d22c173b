"""Run configuration and metrics persistence.

Configs are flat ``key=value`` text files (comments with ``#``), versioned,
and round-trip losslessly: floats are written with ``repr`` so parsing gives
back the identical value.  Metrics land in a CSV whose header comments carry
the full config, so any metrics file is self-describing and re-runnable.
Metrics files deliberately exclude wall-clock time: identical seeds must
produce byte-identical files, and timing is the one nondeterministic column.
Writes go through a temp file and rename so readers never see partial files.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass, fields

__all__ = [
    "CONFIG_VERSION",
    "METRICS_VERSION",
    "ConfigError",
    "RunConfig",
    "MetricsRecord",
    "write_metrics",
    "read_metrics",
    "write_sweep_table",
]

CONFIG_VERSION = 1
METRICS_VERSION = 1

METRICS_COLUMNS = ("epoch", "train_loss", "test_accuracy", "sparsity")


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    """Everything a training run needs; defaults are the desk-scale MNIST MLP."""

    architecture: str = "mlp-784-200-200-10"
    dataset: str = "mnist"
    n1: int = 1
    n2: int = 1
    h: float = 1.0
    r: float = 0.5
    surrogate: str = "rect"
    a: float = 0.5
    m: float = 3.0
    lr_start: float = 0.01
    lr_fin: float = 0.0001
    epochs: int = 20
    batch_size: int = 100
    seed: int = 1

    def validate(self) -> "RunConfig":
        for key in ("h", "r", "a", "m", "lr_start", "lr_fin"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.n1 < 0 or self.n2 < 0:
            raise ConfigError("state parameters n1, n2 must be non-negative")
        if self.n1 > 15:
            raise ConfigError(f"n1={self.n1} exceeds 15: checkpoints store weight grid "
                              "indices as uint16, which hold 2**15 + 1 states at most")
        # Weights and activations lie in [-h, h], so weight gradients grow like
        # h**3, and Adam squares them: 2**192 at h = 2**32, which leaves float64
        # over 2**800 of room for fan-in and batch.
        if not 0 < self.h <= 2**32:
            raise ConfigError(f"half-range h must lie in (0, 2**32], got h={self.h!r}")
        if self.r < 0:
            raise ConfigError("quantizer window r must be non-negative")
        if self.surrogate not in ("rect", "tri"):
            raise ConfigError(f"surrogate must be 'rect' or 'tri', got {self.surrogate!r}")
        if not self.a > 0:
            raise ConfigError("pulse half-width a must be positive")
        if self.surrogate == "tri" and self.a * self.a < sys.float_info.min:
            raise ConfigError(f"a tri pulse needs a >= 2**-511, got a={self.a!r}: its slope "
                              "divides by a*a, which underflows to zero below that")
        if self.n2 >= 2 and not self.r + self.a <= self.h:
            raise ConfigError(
                f"multi-level activations (n2={self.n2}) need r + a <= h for their "
                f"surrogate pulses, got r={self.r!r}, a={self.a!r}, h={self.h!r}")
        if not self.m > 0:
            raise ConfigError("transition factor m must be positive")
        if not (self.lr_start > 0 and self.lr_fin > 0):
            raise ConfigError("learning rates must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        return self

    def to_text(self) -> str:
        lines = [f"config_version={CONFIG_VERSION}"]
        lines += [f"{k}={_fmt(v)}" for k, v in asdict(self).items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        types = {f.name: f.type for f in fields(cls)}
        parsers = {"int": int, "float": float, "str": str}
        seen: dict[str, object] = {}
        version = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "config_version":
                version = value
                continue
            if key not in types:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                seen[key] = parsers[types[key]](value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        if version is None:
            raise ConfigError("missing config_version")
        if version != str(CONFIG_VERSION):
            raise ConfigError(f"unsupported config_version {version!r}")
        return cls(**seen).validate()

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class MetricsRecord:
    """One epoch of training as observed from the outside.

    ``sparsity`` is the mean fraction of zero activations across quantized
    layers, measured during the test-set evaluation, and ``zero_fractions``
    holds that fraction for each quantized layer.  ``wall_time`` is the epoch
    duration in seconds.  Neither ``zero_fractions`` nor ``wall_time`` is
    written to the metrics file.
    """

    epoch: int
    train_loss: float
    test_accuracy: float
    sparsity: float
    wall_time: float = 0.0
    zero_fractions: tuple[float, ...] = ()


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to a synced temp file and rename it over ``path``; on any
    OSError the temp file is removed and the error propagates."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_metrics(path: str, config: RunConfig, records: list[MetricsRecord]) -> None:
    lines = [f"# metrics_version={METRICS_VERSION}"]
    lines += [f"# {line}" for line in config.to_text().splitlines()]
    lines.append(",".join(METRICS_COLUMNS))
    for rec in records:
        lines.append(
            f"{rec.epoch},{rec.train_loss!r},{rec.test_accuracy!r},{rec.sparsity!r}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_metrics(path: str) -> tuple[dict[str, str], list[MetricsRecord]]:
    """Parse a metrics file back into its header dict and records."""
    header: dict[str, str] = {}
    records: list[MetricsRecord] = []
    with open(path, encoding="utf-8") as fh:
        body = [line.rstrip("\n") for line in fh]
    rows = []
    for line in body:
        if line.startswith("#") and "=" in line:
            key, value = line[1:].split("=", 1)
            header[key.strip()] = value.strip()
        elif line:
            rows.append(line)
    if not rows or rows[0] != ",".join(METRICS_COLUMNS):
        raise ConfigError(f"metrics file {path} missing column header")
    for row in rows[1:]:
        epoch, loss, acc, sparsity = row.split(",")
        records.append(MetricsRecord(int(epoch), float(loss), float(acc), float(sparsity)))
    return header, records


def write_sweep_table(path: str, param: str,
                      rows: list[tuple[int | float, float]]) -> None:
    """Sweep results as CSV, sorted ascending by the swept value."""
    lines = [f"# metrics_version={METRICS_VERSION}", f"{param},test_accuracy"]
    for value, acc in sorted(rows):
        lines.append(f"{_fmt(value)},{acc!r}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
