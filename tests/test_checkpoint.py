"""Checkpoint serialization: exact round-trips and corrupt-file rejection."""

import json
import struct

import numpy as np
import pytest

from gxnor.cli import main
from gxnor.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from gxnor.config import RunConfig
from gxnor.data import synthetic_blobs
from gxnor.layers import BatchNorm
from gxnor.network import evaluate, fit, network_from_config


def blobs_config(**overrides):
    base = dict(architecture="mlp-16-32-4", dataset="blobs", epochs=2,
                batch_size=50, lr_start=0.01, lr_fin=0.001, seed=5)
    base.update(overrides)
    return RunConfig(**base).validate()


def build_from(cfg):
    return network_from_config(cfg, (1, 1, 16), 4)


def trained(cfg):
    train = synthetic_blobs(n=300, classes=4, dim=16, seed=17)
    net = build_from(cfg)
    fit(net, train, train, epochs=cfg.epochs, batch_size=cfg.batch_size,
        lr_start=cfg.lr_start, lr_fin=cfg.lr_fin, m=cfg.m, seed=cfg.seed)
    return net, train


class TestRoundTrip:
    def assert_identical(self, net, restored, data):
        for a, b in zip(net.grid_params(), restored.grid_params()):
            assert np.array_equal(a.value, b.value)
        for a, b in zip(net.real_params(), restored.real_params()):
            assert np.array_equal(a.value, b.value)
        assert evaluate(restored, data) == evaluate(net, data)

    def test_ternary_mlp(self, tmp_path):
        cfg = blobs_config()
        net, data = trained(cfg)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg)
        restored, cfg_back, header = load_checkpoint(path)
        assert cfg_back == cfg
        self.assert_identical(net, restored, data)
        assert header["format_version"] == FORMAT_VERSION

    def test_multilevel_grids(self, tmp_path):
        cfg = blobs_config(n1=2, n2=4, r=0.1, a=0.2)
        net, data = trained(cfg)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg)
        restored, _, _ = load_checkpoint(path)
        self.assert_identical(net, restored, data)

    def test_batchnorm_running_stats_restored(self, tmp_path):
        cfg = blobs_config()
        net, _ = trained(cfg)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg)
        restored, _, _ = load_checkpoint(path)
        orig = [l for l in net.layers if isinstance(l, BatchNorm)]
        back = [l for l in restored.layers if isinstance(l, BatchNorm)]
        for a, b in zip(orig, back):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)

    def test_zero_fractions_stored_in_header(self, tmp_path):
        cfg = blobs_config()
        net, _ = trained(cfg)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg, activation_zero_fractions=[0.25, 0.5])
        _, _, header = load_checkpoint(path)
        assert header["activation_zero_fractions"] == [0.25, 0.5]

    def test_untrained_network_round_trips(self, tmp_path):
        cfg = blobs_config()
        net = build_from(cfg)
        data = synthetic_blobs(n=100, classes=4, dim=16, seed=18)
        path = str(tmp_path / "fresh.gxnr")
        save_checkpoint(path, net, cfg)
        restored, _, _ = load_checkpoint(path)
        self.assert_identical(net, restored, data)


class TestWideGrids:
    def test_top_state_of_widest_grid_round_trips(self, tmp_path):
        cfg = blobs_config(n1=15)
        net = build_from(cfg)
        for p in net.grid_params():
            p.value = np.full_like(p.value, p.space.h)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg)
        restored, _, _ = load_checkpoint(path)
        assert all((p.value == p.space.h).all() for p in restored.grid_params())

    def test_grid_too_wide_for_uint16_indices_is_refused(self, tmp_path):
        cfg = RunConfig(architecture="mlp-16-32-4", dataset="blobs", n1=16)
        net = build_from(cfg)
        path = tmp_path / "model.gxnr"
        with pytest.raises(CheckpointError, match="grid states"):
            save_checkpoint(str(path), net, cfg)
        assert list(tmp_path.iterdir()) == []


class TestCorruption:
    def saved(self, tmp_path):
        cfg = blobs_config()
        net = build_from(cfg)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg)
        return path

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        cfg = blobs_config()
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(CheckpointError, match="cannot write"):
            save_checkpoint(str(target), build_from(cfg), cfg)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.gxnr"))

    def test_wrong_magic(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:5] = b"WRONG"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(MAGIC)] = FORMAT_VERSION + 1
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = self.saved(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self.saved(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_garbage_header_json(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        start = len(MAGIC) + 1 + 4
        blob[start:start + 4] = b"!!!!"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def rewrite_header(path, mutate):
    """Apply ``mutate`` to the JSON header of the checkpoint at ``path``."""
    blob = open(path, "rb").read()
    lead = len(MAGIC) + 1 + 4
    (size,) = struct.unpack("<I", blob[lead - 4:lead])
    header = json.loads(blob[lead:lead + size])
    mutate(header)
    body = json.dumps(header).encode("utf-8")
    open(path, "wb").write(blob[:lead - 4] + struct.pack("<I", len(body)) + body
                           + blob[lead + size:])


HEADER_KEYS = ["format_version", "config", "input_shape", "classes",
               "activation_zero_fractions", "arrays"]
# The first descriptor is a ternary weight's mask plane, so it has every key.
DESCRIPTOR_KEYS = ["name", "encoding", "dtype", "shape", "offset", "nbytes", "value_shape"]


def _set(key, value, array=None):
    def mutate(header):
        (header if array is None else header["arrays"][array])[key] = value
    return mutate


def _shift_gamma(header):
    """Point ``layer2.gamma`` at bytes counted from the payload's end."""
    desc = next(d for d in header["arrays"] if d["name"] == "layer2.gamma")
    desc["offset"] = -2 * desc["nbytes"]


MALFORMED = (
    [pytest.param(lambda h, k=k: h.pop(k), id=f"header-without-{k}") for k in HEADER_KEYS]
    + [pytest.param(lambda h, k=k: h["arrays"][0].pop(k), id=f"array-without-{k}")
       for k in DESCRIPTOR_KEYS]
    + [
        pytest.param(_set("dtype", "<zz", array=0), id="bad-dtype"),
        pytest.param(_set("dtype", "<f8", array=0), id="dtype-not-of-encoding"),
        pytest.param(_set("input_shape", "1x1x16"), id="mistyped-input_shape"),
        pytest.param(_set("input_shape", ["1", 1, 16]), id="mistyped-input_shape-entry"),
        pytest.param(_set("arrays", {}), id="mistyped-arrays"),
        pytest.param(_set("classes", "4"), id="mistyped-classes"),
        pytest.param(_set("offset", "0", array=0), id="mistyped-offset"),
        pytest.param(_shift_gamma, id="negative-offset"),
        pytest.param(_set("offset", True, array=0), id="boolean-offset"),
        pytest.param(_set("nbytes", -8, array=0), id="negative-nbytes"),
        pytest.param(_set("nbytes", True, array=0), id="boolean-nbytes"),
        pytest.param(_set("classes", True), id="boolean-classes"),
        pytest.param(_set("shape", [1.5], array=0), id="mistyped-shape-entry"),
        pytest.param(_set("shape", [2], array=0), id="shape-not-of-nbytes"),
        pytest.param(_set("value_shape", [3, 3], array=0), id="value_shape-not-of-network"),
        pytest.param(_set("value_shape", ["a"], array=0), id="mistyped-value_shape-entry"),
        pytest.param(lambda h: h["arrays"].__setitem__(0, []), id="mistyped-descriptor"),
    ]
)


@pytest.mark.parametrize("mutate", MALFORMED)
def test_malformed_header_is_checkpoint_error(tmp_path, capsys, mutate):
    path = TestCorruption().saved(tmp_path)
    rewrite_header(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", path]) == 4
    assert "runtime error" in capsys.readouterr().err
