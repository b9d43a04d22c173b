"""IDX parsing, synthetic blobs, batching, and dataset resolution."""

import gzip
import hashlib
import os
import struct

import numpy as np
import pytest

from gxnor.data import (
    DATA_DIR_ENV,
    MNIST_FILES,
    DataError,
    Dataset,
    batches,
    fetch_mnist,
    load_idx,
    mnist_paths,
    resolve_dataset,
    synthetic_blobs,
)


def write_idx_pair(tmp_path, pixels, labels, *, gz=False, images_magic=0x803,
                   labels_magic=0x801, label_count=None):
    """Serialize an IDX image/label pair; pixels is a (n, rows, cols) uint8 array."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_bytes = struct.pack(">IIII", images_magic, n, rows, cols) + pixels.tobytes()
    lab_bytes = struct.pack(">II", labels_magic,
                            n if label_count is None else label_count) + labels.tobytes()
    suffix = ".gz" if gz else ""
    img_path = str(tmp_path / f"images-idx3-ubyte{suffix}")
    lab_path = str(tmp_path / f"labels-idx1-ubyte{suffix}")
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lab_path, "wb") as fh:
        fh.write(lab_bytes)
    return img_path, lab_path


class TestLoadIdx:
    def test_parses_and_normalizes(self, tmp_path):
        pixels = np.array([[[0, 255], [128, 64]],
                           [[255, 0], [1, 254]]], dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [3, 9])
        ds = load_idx(img, lab)
        assert ds.images.shape == (2, 1, 2, 2)
        assert ds.labels.tolist() == [3, 9]
        assert ds.classes == 10
        # Pixel endpoints map to the exact ends of [-1, 1].
        assert ds.images[0, 0, 0, 0] == -1.0
        assert ds.images[0, 0, 0, 1] == 1.0
        assert ds.images[0, 0, 1, 1] == pytest.approx(64 / 127.5 - 1.0)

    def test_gzip_transparent(self, tmp_path):
        pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        (tmp_path / "p").mkdir()
        (tmp_path / "g").mkdir()
        plain = load_idx(*write_idx_pair(tmp_path / "p", pixels, [1, 2]))
        packed = load_idx(*write_idx_pair(tmp_path / "g", pixels, [1, 2], gz=True))
        assert np.array_equal(plain.images, packed.images)
        assert np.array_equal(plain.labels, packed.labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_idx(str(tmp_path / "nope"), str(tmp_path / "nada"))

    def test_bad_image_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0], images_magic=0x804)
        with pytest.raises(DataError, match="magic"):
            load_idx(img, lab)

    def test_bad_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0], labels_magic=0x802)
        with pytest.raises(DataError, match="magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        pixels = np.zeros((3, 4, 4), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1, 2])
        with open(img, "r+b") as fh:
            fh.truncate(16 + 10)
        with pytest.raises(DataError, match="truncated"):
            load_idx(img, lab)

    def test_truncated_header(self, tmp_path):
        img = tmp_path / "images-idx3-ubyte"
        img.write_bytes(b"\x00\x00\x08")
        lab = tmp_path / "labels-idx1-ubyte"
        lab.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(DataError, match="truncated"):
            load_idx(str(img), str(lab))

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1, 2], label_count=3)
        with pytest.raises(DataError, match="count mismatch"):
            load_idx(img, lab)


class TestDatasetValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(DataError):
            Dataset(images=np.zeros((4, 4)), labels=np.zeros(4, dtype=int), classes=2)

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(DataError):
            Dataset(images=np.full((1, 1, 1, 1), 2.0), labels=np.zeros(1, dtype=int),
                    classes=2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            Dataset(images=np.zeros((1, 1, 1, 1)), labels=np.array([5]), classes=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, bad):
        images = np.zeros((2, 1, 1, 4))
        images[1, 0, 0, 2] = bad
        with pytest.raises(DataError, match="finite"):
            Dataset(images=images, labels=np.zeros(2, dtype=int), classes=2)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(images=np.zeros((2, 1, 1, 1)), labels=np.array([0]), classes=2)

    def test_subset(self):
        ds = synthetic_blobs(n=50, classes=2, dim=3, seed=0)
        sub = ds.subset(10)
        assert len(sub) == 10
        assert np.array_equal(sub.images, ds.images[:10])


class TestSyntheticBlobs:
    def test_shapes_and_ranges(self):
        ds = synthetic_blobs(n=200, classes=4, dim=16, seed=1)
        assert ds.images.shape == (200, 1, 1, 16)
        assert ds.labels.shape == (200,)
        assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(4))

    def test_deterministic_by_seed(self):
        a = synthetic_blobs(n=100, classes=3, dim=5, seed=7)
        b = synthetic_blobs(n=100, classes=3, dim=5, seed=7)
        c = synthetic_blobs(n=100, classes=3, dim=5, seed=8)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_nearest_center_separates_at_high_separation(self):
        sep = 10.0
        ds = synthetic_blobs(n=500, classes=4, dim=8, seed=9, separation=sep)
        sigma = 1.0 / (sep + 4.0)
        centers = np.zeros((4, 8))
        for k in range(4):
            centers[k, k] = sep * sigma
        flat = ds.images.reshape(len(ds), 8)
        guess = np.argmin(((flat[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
        assert (guess == ds.labels).mean() == 1.0

    def test_mirrored_centers_beyond_dim(self):
        # With classes > dim the extra classes sit on the negative axes.
        ds = synthetic_blobs(n=400, classes=4, dim=2, seed=10, separation=10.0)
        flat = ds.images.reshape(len(ds), 2)
        third = flat[ds.labels == 2]
        assert len(third) and third[:, 0].mean() < 0

    def test_validation(self):
        with pytest.raises(DataError):
            synthetic_blobs(n=10, classes=5, dim=2, seed=0)
        with pytest.raises(DataError):
            synthetic_blobs(n=10, classes=2, dim=2, seed=0, separation=-1.0)


class TestBatches:
    def test_partitions_dataset(self):
        ds = synthetic_blobs(n=25, classes=2, dim=3, seed=11)
        seen = []
        for images, labels in batches(ds, 10, seed=0):
            assert images.shape[0] == labels.shape[0]
            seen.extend(images[:, 0, 0, 0].tolist())
        assert len(seen) == 25
        assert sorted(seen) == sorted(ds.images[:, 0, 0, 0].tolist())

    def test_final_batch_short(self):
        ds = synthetic_blobs(n=25, classes=2, dim=3, seed=11)
        sizes = [img.shape[0] for img, _ in batches(ds, 10, seed=0)]
        assert sizes == [10, 10, 5]

    def test_order_depends_on_seed(self):
        ds = synthetic_blobs(n=60, classes=2, dim=3, seed=12)
        first = np.concatenate([lab for _, lab in batches(ds, 20, seed=1)])
        again = np.concatenate([lab for _, lab in batches(ds, 20, seed=1)])
        other = np.concatenate([lab for _, lab in batches(ds, 20, seed=2)])
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_batch_larger_than_dataset(self):
        ds = synthetic_blobs(n=5, classes=2, dim=3, seed=13)
        got = list(batches(ds, 100, seed=0))
        assert len(got) == 1 and got[0][0].shape[0] == 5

    def test_rejects_nonpositive_batch(self):
        ds = synthetic_blobs(n=5, classes=2, dim=3, seed=13)
        with pytest.raises(ValueError):
            list(batches(ds, 0, seed=0))


class TestResolveDataset:
    def test_blobs_fixed_recipe(self):
        train, test = resolve_dataset("blobs")
        assert (len(train), len(test)) == (1500, 500)
        assert train.classes == test.classes == 4
        train2, _ = resolve_dataset("blobs")
        assert np.array_equal(train.images, train2.images)

    def test_unknown_name(self):
        with pytest.raises(DataError, match="unknown dataset"):
            resolve_dataset("cifar")

    def test_mnist_requires_directory(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(DataError, match=DATA_DIR_ENV):
            resolve_dataset("mnist")

    def test_mnist_reads_idx_pair(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(14)
        for prefix, n in (("train", 12), ("t10k", 6)):
            pixels = rng.integers(0, 256, (n, 4, 4)).astype(np.uint8)
            labels = rng.integers(0, 10, n).astype(np.uint8)
            img_bytes = struct.pack(">IIII", 0x803, n, 4, 4) + pixels.tobytes()
            lab_bytes = struct.pack(">II", 0x801, n) + labels.tobytes()
            (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(img_bytes)
            (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(lab_bytes)
        train, test = resolve_dataset("mnist", data_dir=str(tmp_path))
        assert (len(train), len(test)) == (12, 6)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        env_train, _ = resolve_dataset("mnist")
        assert np.array_equal(env_train.images, train.images)

    def test_mnist_paths_fall_back_to_gz(self, tmp_path):
        (tmp_path / "train-images-idx3-ubyte.gz").write_bytes(b"x")
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(b"y")
        images, labels = mnist_paths(str(tmp_path), train=True)
        assert images.endswith(".gz") and not labels.endswith(".gz")


class TestFetchMnist:
    @pytest.fixture
    def mirror(self, tmp_path):
        """A file:// mirror of four small IDX .gz files; returns (base URL, md5s)."""
        root = tmp_path / "mirror"
        root.mkdir()
        rng = np.random.default_rng(15)
        md5s = {}
        for name in MNIST_FILES:
            n = 5 if name.startswith("train") else 3
            if "images" in name:
                pixels = rng.integers(0, 256, n * 4, dtype=np.uint8)
                body = struct.pack(">IIII", 0x803, n, 2, 2) + pixels.tobytes()
            else:
                labels = rng.integers(0, 10, n, dtype=np.uint8)
                body = struct.pack(">II", 0x801, n) + labels.tobytes()
            (root / name).write_bytes(gzip.compress(body))
            md5s[name] = hashlib.md5((root / name).read_bytes()).hexdigest()
        return root.as_uri() + "/", md5s

    def test_fetches_then_finds_files_present(self, tmp_path, monkeypatch, capsys, mirror):
        base, md5s = mirror
        monkeypatch.setattr("gxnor.data.MNIST_FILES", md5s)
        dest = tmp_path / "mnist"
        fetch_mnist(str(dest), mirrors=(base,))
        assert sorted(p.name for p in dest.iterdir()) == sorted(md5s)
        assert capsys.readouterr().out.count(f"fetched from {base}") == 4
        train, test = resolve_dataset("mnist", data_dir=str(dest))
        assert (len(train), len(test)) == (5, 3)
        fetch_mnist(str(dest), mirrors=(base,))
        assert capsys.readouterr().out.count("already present, checksum ok") == 4

    def test_checksum_mismatch_is_data_error_and_leaves_nothing(self, tmp_path, mirror):
        base, _ = mirror
        dest = tmp_path / "mnist"
        first = next(iter(MNIST_FILES))
        with pytest.raises(DataError, match=f"could not fetch {first}.*checksum"):
            fetch_mnist(str(dest), mirrors=(base,))
        assert list(dest.iterdir()) == []
