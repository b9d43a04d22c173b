"""Checkpoint serialization: exact round-trips and corrupt-file rejection."""

import json
import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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

    def test_conv_net(self, tmp_path):
        # 1x1 kernels are the only unpooled convs that fit blobs' 1x16 images.
        cfg = blobs_config(architecture="conv-8c1-16fc")
        net, data = trained(cfg)
        path = str(tmp_path / "model.gxnr")
        save_checkpoint(path, net, cfg)
        restored, cfg_back, _ = load_checkpoint(path)
        assert cfg_back == cfg
        self.assert_identical(net, restored, data)
        orig = [l for l in net.layers if isinstance(l, BatchNorm)]
        back = [l for l in restored.layers if isinstance(l, BatchNorm)]
        assert len(back) == 2
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

    @pytest.mark.parametrize("overrides", [
        {}, {"n1": 0}, {"n1": 2, "n2": 4, "r": 0.1, "a": 0.2},
        {"architecture": "conv-8c1-16fc"},
    ], ids=["ternary", "binary", "multilevel", "conv"])
    def test_save_load_save_is_byte_identical(self, tmp_path, overrides):
        cfg = blobs_config(**overrides)
        net, _ = trained(cfg)
        first, second = str(tmp_path / "first.gxnr"), str(tmp_path / "second.gxnr")
        save_checkpoint(first, net, cfg, activation_zero_fractions=[0.25, 0.5])
        restored, cfg_back, header = load_checkpoint(first)
        save_checkpoint(second, restored, cfg_back, header["activation_zero_fractions"])
        assert open(second, "rb").read() == open(first, "rb").read()

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
        pytest.param(_set("classes", 5), id="classes-not-of-architecture"),
        pytest.param(_set("shape", [1.5], array=0), id="mistyped-shape-entry"),
        pytest.param(_set("shape", [2], array=0), id="shape-not-of-nbytes"),
        pytest.param(_set("value_shape", [3, 3], array=0), id="value_shape-not-of-network"),
        pytest.param(_set("value_shape", ["a"], array=0), id="mistyped-value_shape-entry"),
        pytest.param(lambda h: h["arrays"].__setitem__(0, []), id="mistyped-descriptor"),
        pytest.param(_set("extra", 1, array=0), id="array-with-extra-key"),
        pytest.param(lambda h: h["arrays"].__setitem__(slice(0, 2), h["arrays"][1::-1]),
                     id="arrays-0-and-1-swapped"),
    ]
    + [pytest.param(lambda h, k=k, v=v: h["config"].__setitem__(k, v), id=f"config-{k}={v}")
       for k, v in [("h", float("inf")), ("r", float("nan")), ("a", float("inf")),
                    ("m", float("inf")), ("lr_start", float("inf")), ("lr_fin", float("-inf")),
                    ("seed", -1), ("architecture", "mlp-16-032-4")]]
)


@pytest.mark.parametrize("mutate", MALFORMED)
def test_malformed_header_is_checkpoint_error(tmp_path, capsys, mutate):
    path = TestCorruption().saved(tmp_path)
    rewrite_header(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", path]) == 4
    assert "runtime error" in capsys.readouterr().err


# Fuzzing: a corrupt file must end in CheckpointError and `gxnor eval` exit 4,
# never a traceback.

@pytest.fixture(scope="module")
def blobs_gxnr(tmp_path_factory):
    """A trained blobs checkpoint's bytes, and a scratch path to corrupt copies at."""
    cfg = blobs_config()
    net, _ = trained(cfg)
    root = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(str(root / "model.gxnr"), net, cfg)
    return (root / "model.gxnr").read_bytes(), str(root / "corrupt.gxnr")


def _write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def _header(blob):
    lead = len(MAGIC) + 1 + 4
    (size,) = struct.unpack("<I", blob[lead - 4:lead])
    return json.loads(blob[lead:lead + size])


def _key_paths(header):
    """Every key of the header, of each array descriptor and of the embedded config."""
    paths = [(key,) for key in header]
    paths += [("arrays", i, key) for i, desc in enumerate(header["arrays"]) for key in desc]
    return paths + [("config", key) for key in header["config"]]


def _rejected(path):
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", path]) == 4


FUZZ = settings(max_examples=40, deadline=None)


@FUZZ
@given(data=st.data())
def test_truncated_file_is_checkpoint_error(blobs_gxnr, data):
    blob, path = blobs_gxnr
    _write(path, blob[:data.draw(st.integers(0, len(blob) - 1), label="length")])
    _rejected(path)


# A retype puts a value of another JSON type in place of the stored one.  An
# int where a float is stored is still a number, and the zero fractions may
# be null or a list, so none of these counts.
RETYPES = [None, True, 7, 0.5, "x", [], {}]


def _same_kind(old, new, key):
    return (type(new) is type(old) or (type(old) is float and type(new) is int)
            or (key == "activation_zero_fractions" and new in (None, [])))


@FUZZ
@given(data=st.data())
def test_dropped_or_retyped_header_key_is_checkpoint_error(blobs_gxnr, data):
    blob, path = blobs_gxnr
    *parents, key = data.draw(st.sampled_from(_key_paths(_header(blob))), label="key")
    new = data.draw(st.sampled_from(["drop"] + RETYPES), label="value")

    def corrupt(header):
        owner = reduce(lambda obj, step: obj[step], parents, header)
        if new == "drop":
            del owner[key]
        else:
            assume(not _same_kind(owner[key], new, key))
            owner[key] = new

    _write(path, blob)
    rewrite_header(path, corrupt)
    _rejected(path)


@FUZZ
@given(data=st.data())
def test_flipped_byte_is_checkpoint_error_or_a_valid_checkpoint(blobs_gxnr, data):
    # Without a checksum in the format, a flip inside a payload number or a
    # header value can leave a well-formed checkpoint.  Such a file must load
    # as a valid network that `gxnor eval` runs (exit 3 if a flip renamed the
    # dataset); every other flip is a CheckpointError.
    blob, path = blobs_gxnr
    corrupt = bytearray(blob)
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    corrupt[at] ^= data.draw(st.integers(1, 255), label="mask")
    _write(path, bytes(corrupt))
    try:
        net, _, _ = load_checkpoint(path)
    except CheckpointError:
        assert main(["eval", "--checkpoint", path]) == 4
        return
    assert net.weights_on_grid()
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            assert np.isfinite(layer.gamma.value).all() and (layer.running_var >= 0).all()
    assert main(["eval", "--checkpoint", path]) in (0, 3)
