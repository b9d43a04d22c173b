"""Dataset loading, synthesis, and batching.

MNIST arrives as IDX files (optionally gzipped); pixels map to [-1, 1] via
x/127.5 - 1 so the endpoints are exact.  Synthetic Gaussian blobs cover fast
property tests: class k sits on coordinate axis k (sign alternating every
``dim`` classes) at distance ``separation * sigma`` from the origin with
cluster std sigma = 1/(separation + 4), which keeps the 4-sigma ball inside
the [-1, 1] box before clipping.  All generators are deterministic per seed.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "load_idx",
    "synthetic_blobs",
    "batches",
    "fetch_mnist",
    "resolve_dataset",
    "mnist_paths",
    "MNIST_FILES",
    "DATA_DIR_ENV",
]

DATA_DIR_ENV = "GXNOR_DATA_DIR"

MNIST_FILES = {
    "train-images-idx3-ubyte.gz": "f68b3c2dcbeaaa9fbdd348bbdeb94873",
    "train-labels-idx1-ubyte.gz": "d53e105ee54ea40749a09fcbcd1e9432",
    "t10k-images-idx3-ubyte.gz": "9fb629c4189551a2d022fa330f9573f3",
    "t10k-labels-idx1-ubyte.gz": "ec29112dd5afa0611ce80d1b7f02629c",
}

MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
    "http://yann.lecun.com/exdb/mnist/",
)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class DataError(Exception):
    """Missing, corrupt, or inconsistent dataset input."""


@dataclass(frozen=True)
class Dataset:
    """Images in [-1, 1] with integer labels in [0, classes)."""

    images: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise DataError(f"images must be (n, channels, h, w), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError("one label per image required")
        # Written so that a NaN, which fails every comparison, is rejected too.
        if self.images.size and not (-1.0 <= self.images.min() and self.images.max() <= 1.0):
            raise DataError("image values must be finite and lie in [-1, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise DataError("labels out of range")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.images[:n], self.labels[:n], self.classes)


def _open_maybe_gzip(path: str):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")


def _read_exact(fh, nbytes: int, path: str, what: str) -> bytearray:
    # In chunks: a header may claim more than the file holds, or than fits
    # in one read call, and that claim must end as "truncated".
    data = bytearray()
    while len(data) < nbytes and (chunk := fh.read(min(nbytes - len(data), 1 << 24))):
        data += chunk
    if len(data) != nbytes:
        raise DataError(f"{path}: truncated {what} ({len(data)} of {nbytes} bytes)")
    return data


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a normalized Dataset."""
    for path in (images_path, labels_path):
        if not os.path.exists(path):
            raise DataError(f"dataset file missing: {path}")
    with _open_maybe_gzip(images_path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != IMAGES_MAGIC:
            raise DataError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
        raw = _read_exact(fh, n * rows * cols, images_path, "pixel data")
    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != LABELS_MAGIC:
            raise DataError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(fh, n_labels, labels_path, "label data"), dtype=np.uint8)
    if n != n_labels:
        raise DataError(f"count mismatch: {n} images vs {n_labels} labels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols) / 127.5 - 1.0
    return Dataset(images=images, labels=labels.astype(np.int64), classes=10)


def synthetic_blobs(
    n: int,
    classes: int,
    dim: int,
    seed: int,
    separation: float = 6.0,
) -> Dataset:
    """Axis-aligned Gaussian blobs, clipped to [-1, 1], shape (n, 1, 1, dim)."""
    if classes < 1 or dim < 1 or classes > 2 * dim:
        raise DataError(f"need 1 <= classes <= 2*dim, got classes={classes}, dim={dim}")
    if separation < 0:
        raise DataError("separation must be non-negative")
    rng = np.random.default_rng(seed)
    sigma = 1.0 / (separation + 4.0)
    centers = np.zeros((classes, dim))
    for k in range(classes):
        centers[k, k % dim] = separation * sigma * (1.0 if k < dim else -1.0)
    labels = rng.integers(0, classes, size=n)
    points = centers[labels] + rng.normal(0.0, sigma, size=(n, dim))
    images = np.clip(points, -1.0, 1.0).reshape(n, 1, 1, dim)
    return Dataset(images=images, labels=labels.astype(np.int64), classes=classes)


def batches(dataset: Dataset, batch_size: int, seed):
    """Yield (images, labels) in a seed-determined order; the last batch may be short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    for lo in range(0, len(dataset), batch_size):
        idx = order[lo:lo + batch_size]
        yield dataset.images[idx], dataset.labels[idx]


def _md5(path: str) -> str:
    digest = hashlib.md5()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fetch_mnist(data_dir: str, mirrors=MNIST_MIRRORS) -> None:
    """Download and checksum the four MNIST IDX files; skips verified files."""
    # Imported here: urllib.request loads ssl, which no other command needs.
    import urllib.error
    import urllib.request

    os.makedirs(data_dir, exist_ok=True)
    for name, want in MNIST_FILES.items():
        dest = os.path.join(data_dir, name)
        if os.path.exists(dest) and _md5(dest) == want:
            print(f"{name}: already present, checksum ok")
            continue
        last_error: Exception | None = None
        for base in mirrors:
            url = base + name
            tmp = dest + ".part"
            try:
                with urllib.request.urlopen(url, timeout=60) as resp, open(tmp, "wb") as out:
                    while chunk := resp.read(1 << 20):
                        out.write(chunk)
                got = _md5(tmp)
                if got != want:
                    raise DataError(f"{url}: checksum {got}, expected {want}")
                os.replace(tmp, dest)
                print(f"{name}: fetched from {base}")
                last_error = None
                break
            except (urllib.error.URLError, OSError, DataError) as exc:
                last_error = exc
                if os.path.exists(tmp):
                    os.remove(tmp)
        if last_error is not None:
            raise DataError(f"could not fetch {name}: {last_error}")


def mnist_paths(data_dir: str, train: bool) -> tuple[str, str]:
    prefix = "train" if train else "t10k"
    images = os.path.join(data_dir, f"{prefix}-images-idx3-ubyte")
    labels = os.path.join(data_dir, f"{prefix}-labels-idx1-ubyte")
    if not os.path.exists(images) and os.path.exists(images + ".gz"):
        images += ".gz"
    if not os.path.exists(labels) and os.path.exists(labels + ".gz"):
        labels += ".gz"
    return images, labels


BLOBS_TRAIN_SEED = 11
BLOBS_TEST_SEED = 12
BLOBS_RECIPE = dict(classes=4, dim=16, separation=6.0)


def resolve_dataset(name: str, data_dir: str | None = None) -> tuple[Dataset, Dataset]:
    """Map a dataset id from config to (train, test) datasets.

    ``mnist`` and ``mnist1k`` read IDX files from ``data_dir`` (or the
    directory named by the GXNOR_DATA_DIR environment variable); ``blobs``
    is generated in-process with fixed seeds so every run sees the same data.
    """
    if name == "blobs":
        train = synthetic_blobs(n=1500, seed=BLOBS_TRAIN_SEED, **BLOBS_RECIPE)
        test = synthetic_blobs(n=500, seed=BLOBS_TEST_SEED, **BLOBS_RECIPE)
        return train, test
    if name in ("mnist", "mnist1k"):
        root = data_dir or os.environ.get(DATA_DIR_ENV)
        if not root:
            raise DataError(
                f"dataset {name!r} needs a data directory: pass --data-dir or set {DATA_DIR_ENV}")
        train = load_idx(*mnist_paths(root, train=True))
        test = load_idx(*mnist_paths(root, train=False))
        if name == "mnist1k":
            train, test = train.subset(1000), test.subset(1000)
        return train, test
    raise DataError(f"unknown dataset {name!r} (expected mnist, mnist1k, or blobs)")
