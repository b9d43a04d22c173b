"""Command-line workflows exercised in-process through main()."""

import contextlib
import dataclasses
import errno
import io
import logging
import math
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gxnor.layers
import gxnor.network
from gxnor.checkpoint import load_checkpoint, save_checkpoint
from gxnor.cli import main
from gxnor.config import ConfigError, RunConfig, read_metrics
from gxnor.data import resolve_dataset
from gxnor.network import build_network

FAST_BLOBS = RunConfig(
    architecture="mlp-16-32-4",
    dataset="blobs",
    epochs=2,
    batch_size=50,
    lr_start=0.01,
    lr_fin=0.001,
    seed=7,
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_BLOBS.to_text())
    return str(path)


def run(*argv):
    return main(list(argv))


def src_env():
    """The environment for a subprocess that imports gxnor from this checkout."""
    src = os.path.dirname(os.path.dirname(gxnor.layers.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def overclaiming_mnist(root):
    """An MNIST directory whose training images header claims 2**32 - 1
    images of 65535 x 65535 pixels, followed by 100 bytes."""
    root.mkdir()
    (root / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, 2**32 - 1, 0xFFFF, 0xFFFF) + bytes(100))
    (root / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    return str(root)


class TestTrain:
    def test_writes_metrics_and_checkpoint(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("train", "--config", config_path, "--out-dir", out) == 0
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "model.gxnr"))
        header, records = read_metrics(os.path.join(out, "metrics.csv"))
        assert len(records) == FAST_BLOBS.epochs
        assert header["dataset"] == "blobs"
        assert "final test_accuracy=" in capsys.readouterr().out

    def test_same_seed_reruns_are_byte_identical(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("train", "--config", config_path, "--out-dir", out_a) == 0
        assert run("train", "--config", config_path, "--out-dir", out_b) == 0
        read = lambda d, f: open(os.path.join(d, f), "rb").read()
        assert read(out_a, "metrics.csv") == read(out_b, "metrics.csv")
        assert read(out_a, "model.gxnr") == read(out_b, "model.gxnr")

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("train", "--config", config_path, "--out-dir", out_a) == 0
        assert run("train", "--config", config_path, "--out-dir", out_b,
                   "--seed", "8") == 0
        read = lambda d: open(os.path.join(d, "metrics.csv"), "rb").read()
        assert read(out_a) != read(out_b)

    def test_one_test_set_pass_per_epoch(self, config_path, tmp_path, monkeypatch):
        # The checkpoint's per-layer zero fractions come from the last epoch's
        # evaluation, not from one more pass over the test set.
        # Every inference walk starts at the MLP's Flatten layer.
        forward = gxnor.layers.Flatten.forward
        eval_images = []

        def counting(layer, x, training):
            if not training:
                eval_images.append(len(x))
            return forward(layer, x, training)

        monkeypatch.setattr(gxnor.layers.Flatten, "forward", counting)
        out = str(tmp_path / "out")
        assert run("train", "--config", config_path, "--out-dir", out) == 0
        _, test = resolve_dataset(FAST_BLOBS.dataset)
        assert sum(eval_images) == FAST_BLOBS.epochs * len(test)
        _, _, header = load_checkpoint(os.path.join(out, "model.gxnr"))
        _, records = read_metrics(os.path.join(out, "metrics.csv"))
        fractions = header["activation_zero_fractions"]
        assert len(fractions) == 1
        assert records[-1].sparsity == pytest.approx(np.mean(fractions))

    def test_non_finite_increment_is_runtime_error(self, config_path, tmp_path,
                                                    monkeypatch, capsys):
        backward = gxnor.layers.Dense.backward

        def poisoned(layer, grad):
            out = backward(layer, grad)
            layer.weight.grad[0, 0] = np.nan
            return out

        monkeypatch.setattr(gxnor.layers.Dense, "backward", poisoned)
        assert run("train", "--config", config_path, "--out-dir", str(tmp_path / "out")) == 4
        assert "non-finite DST increment" in capsys.readouterr().err

    def test_growing_lr_warns(self, tmp_path, caplog):
        cfg = tmp_path / "grow.cfg"
        text = FAST_BLOBS.to_text().replace("lr_fin=0.001", "lr_fin=0.5")
        cfg.write_text(text)
        with caplog.at_level(logging.WARNING):
            assert run("train", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out")) == 0
        assert any("lr_fin" in rec.message for rec in caplog.records)


class TestEval:
    @pytest.fixture
    def checkpoint(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("train", "--config", config_path, "--out-dir", out) == 0
        return os.path.join(out, "model.gxnr")

    def test_reports_packed_inference(self, checkpoint, capsys):
        assert run("eval", "--checkpoint", checkpoint) == 0
        out = capsys.readouterr().out
        assert "inference=packed" in out
        assert "test_accuracy=" in out and "sparsity=" in out

    def test_accuracy_matches_training_metrics(self, checkpoint, capsys):
        metrics = os.path.join(os.path.dirname(checkpoint), "metrics.csv")
        _, records = read_metrics(metrics)
        assert run("eval", "--checkpoint", checkpoint) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("test_accuracy="))
        assert float(line.split("=")[1]) == records[-1].test_accuracy

    def test_dataset_of_another_shape_is_data_error(self, checkpoint, tmp_path, capsys):
        # Three MNIST-shaped images in each split, against a blobs (1, 1, 16) net.
        for prefix in ("train", "t10k"):
            (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(
                struct.pack(">IIII", 0x803, 3, 28, 28) + bytes(3 * 28 * 28))
            (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(
                struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
        assert run("eval", "--checkpoint", checkpoint, "--dataset", "mnist",
                   "--data-dir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "(1, 28, 28)" in err and "(1, 1, 16)" in err

    def test_header_claiming_more_than_the_file_holds_is_data_error(self, checkpoint, tmp_path,
                                                                     capsys):
        capsys.readouterr()
        assert run("eval", "--checkpoint", checkpoint, "--dataset", "mnist",
                   "--data-dir", overclaiming_mnist(tmp_path / "mnist")) == 3
        err = capsys.readouterr().err
        assert "truncated pixel data" in err and "Traceback" not in err

    def test_packed_eval_makes_one_float_pass(self, checkpoint, monkeypatch):
        # The score check's float walk also gives accuracy and sparsity.
        forward = gxnor.layers.Dense.forward
        _, test = resolve_dataset(FAST_BLOBS.dataset)
        classifier_images = []

        def counting(layer, x, training):
            if not training and layer.out_features == test.classes:
                classifier_images.append(len(x))
            return forward(layer, x, training)

        monkeypatch.setattr(gxnor.layers.Dense, "forward", counting)
        assert run("eval", "--checkpoint", checkpoint) == 0
        assert sum(classifier_images) == len(test)

    def test_packed_path_error_is_runtime_error(self, checkpoint, monkeypatch, capsys):
        # An eligible checkpoint must run the packed path; a fault there is not
        # hidden behind a float-only report.
        def broken(*args, **kwargs):
            raise ValueError("packed kernel fault")
        monkeypatch.setattr(gxnor.network, "packed_dense_forward", broken)
        assert run("eval", "--checkpoint", checkpoint) == 4
        assert "packed kernel fault" in capsys.readouterr().err

    def test_score_mismatch_with_equal_accuracy_is_runtime_error(self, checkpoint,
                                                                 monkeypatch, capsys):
        # One packed score moves by one without changing any row's argmax, so
        # only a score-for-score comparison can see it.
        kernel = gxnor.network.packed_dense_forward

        def shifted(x, w):
            scores, report = kernel(x, w)
            scores[0, (np.argmax(scores[0]) + 1) % scores.shape[1]] -= 1
            return scores, report

        monkeypatch.setattr(gxnor.network, "packed_dense_forward", shifted)
        net, config, _ = load_checkpoint(checkpoint)
        _, test = resolve_dataset(config.dataset)
        assert gxnor.network.packed_evaluate(net, test)[0] == gxnor.network.evaluate(net, test)[0]
        assert run("eval", "--checkpoint", checkpoint) == 4
        assert "packed scores differ from float scores" in capsys.readouterr().err


class TestConvNet:
    def test_train_then_float_eval_of_a_conv_net(self, tmp_path, capsys):
        # 1x1 kernels and pools are the only ones that fit blobs' 1x16 images.
        # A second conv takes ternary input, which it multiplies in float32.
        for architecture, gemm_dtypes in [("conv-8c1-16fc", [np.float64]),
                                          ("conv-8c1-mp1-16fc", [np.float64]),
                                          ("conv-8c1-8c1-16fc", [np.float64, np.float32])]:
            cfg = tmp_path / f"{architecture}.cfg"
            cfg.write_text(dataclasses.replace(FAST_BLOBS, architecture=architecture).to_text())
            out = tmp_path / architecture
            assert run("train", "--config", str(cfg), "--out-dir", str(out)) == 0
            capsys.readouterr()
            assert run("eval", "--checkpoint", str(out / "model.gxnr")) == 0
            lines = capsys.readouterr().out.splitlines()
            assert "inference=float" in lines
            _, records = read_metrics(str(out / "metrics.csv"))
            assert len(records) == 2
            assert f"test_accuracy={records[-1].test_accuracy!r}" in lines
            net = load_checkpoint(str(out / "model.gxnr"))[0]
            convs = [l for l in net.layers if isinstance(l, gxnor.layers.Conv2d)]
            assert [c.gemm_dtype for c in convs] == gemm_dtypes


class TestSweep:
    def test_sweep_writes_sorted_table(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("sweep", "--config", config_path, "--param", "m",
                   "--values", "3.0,0.5", "--out-dir", out) == 0
        assert "epoch" not in capsys.readouterr().out  # a sweep prints no epoch lines
        table = os.path.join(out, "sweep_m.csv")
        lines = open(table).read().splitlines()
        assert lines[1] == "m,test_accuracy"
        assert [float(l.split(",")[0]) for l in lines[2:]] == [0.5, 3.0]

    def test_integer_param_values_parsed_as_int(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("sweep", "--config", config_path, "--param", "n2",
                   "--values", "0,1", "--out-dir", out) == 0
        assert os.path.exists(os.path.join(out, "sweep_n2.csv"))

    def test_weight_depth_sweep_covers_binary_ternary_multilevel(
            self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("sweep", "--config", config_path, "--param", "n1",
                   "--values", "0,1,6", "--out-dir", out) == 0
        lines = open(os.path.join(out, "sweep_n1.csv")).read().splitlines()
        rows = [l.split(",") for l in lines[2:]]
        assert [int(v) for v, _ in rows] == [0, 1, 6]
        assert all(0.0 <= float(acc) <= 1.0 for _, acc in rows)

    def test_bad_values_is_usage_error(self, config_path, tmp_path):
        assert run("sweep", "--config", config_path, "--param", "m",
                   "--values", "abc", "--out-dir", str(tmp_path)) == 1

    def test_invalid_last_point_fails_before_any_training(self, tmp_path, capsys):
        cfg = tmp_path / "multilevel.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, n2=2, r=0.1, a=0.2).to_text())
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--param", "r",
                   "--values", "0.1,0.9", "--out-dir", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "r=0.9" in captured.err
        assert not out.exists()

    def test_invalid_point_is_config_error(self, config_path, tmp_path):
        assert run("sweep", "--config", config_path, "--param", "m",
                   "--values", "-1.0", "--out-dir", str(tmp_path)) == 2

    def test_activation_grid_beyond_fifteen_fails_before_any_training(
            self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--config", config_path, "--param", "n2",
                   "--values", "1,64", "--out-dir", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n2=64 exceeds 15" in captured.err
        assert not out.exists()


class TestCostModel:
    def test_uniform_table(self, capsys):
        assert run("costmodel", "--fan-in", "9") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("source,fan_in,architecture")
        rows = {l.split(",")[2]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"full", "bwn", "twn", "bnn", "gxnor"}
        assert rows["full"][3:] == ["9", "9", "0", "0", "0.0%"]
        assert rows["bnn"][3:] == ["0", "0", "9", "1", "0.0%"]
        assert rows["gxnor"][7] == "55.6%"

    @pytest.mark.parametrize("fan_in", ["2.5", "1e30", "0", "-3", "nan", "9,0", "abc", ","])
    def test_fan_in_must_be_positive_integers(self, fan_in, capsys):
        assert run("costmodel", "--fan-in", fan_in) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    def test_several_fan_ins(self, capsys):
        assert run("costmodel", "--fan-in", " 9, 16") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["9"] * 5 + ["16"] * 5

    def test_checkpoint_table_uses_measured_distributions(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_BLOBS.to_text())
        out = str(tmp_path / "out")
        assert run("train", "--config", str(cfg), "--out-dir", out) == 0
        capsys.readouterr()
        assert run("costmodel", "--checkpoint",
                   os.path.join(out, "model.gxnr")) == 0
        lines = capsys.readouterr().out.splitlines()
        layer_rows = [l for l in lines[1:] if l.startswith("layer")]
        # Two weighted layers in mlp-16-32-4, five architecture rows each.
        assert len(layer_rows) == 10
        assert any(",gxnor," in l for l in layer_rows)

    @pytest.fixture
    def multilevel_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "n1_2.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, n1=2).to_text())
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--out-dir", str(out)) == 0
        capsys.readouterr()
        return str(out / "model.gxnr")

    @staticmethod
    def hand_rows(path, a_zeros):
        """TWN and GXNOR rows of mlp-16-32-4's weighted layers 1 and 4, from
        each layer's share of zero weights and its input's zero fraction."""
        net, _, _ = load_checkpoint(path)
        rows = []
        for i, a_zero in zip((1, 4), a_zeros):
            w = net.layers[i].weight.value
            fan_in, w_zero = w.shape[1], np.mean(w == 0)
            open_share = (1 - w_zero) * (1 - a_zero)
            rows += [
                f"layer{i},{fan_in},twn,0,{(1 - w_zero) * fan_in:g},0,0,{100 * w_zero:.1f}%",
                f"layer{i},{fan_in},gxnor,0,0,{open_share * fan_in:g},1,"
                f"{100 * (1 - open_share):.1f}%",
            ]
        return rows

    def test_checkpoint_rows_follow_zero_fractions(self, multilevel_checkpoint, capsys):
        _, _, header = load_checkpoint(multilevel_checkpoint)
        # The first Dense sees the raw features; the second, the QuantAct's output.
        a_zeros = [0.0, header["activation_zero_fractions"][0]]
        assert a_zeros[1] > 0
        assert run("costmodel", "--checkpoint", multilevel_checkpoint) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = self.hand_rows(multilevel_checkpoint, a_zeros)
        assert [l for l in lines if ",twn," in l or ",gxnor," in l] == expected
        assert any(not l.endswith(",0.0%") for l in expected[::2])  # some weights are 0

    def test_checkpoint_without_activation_fractions_costs_dense_inputs(
            self, multilevel_checkpoint, tmp_path, capsys):
        net, cfg, _ = load_checkpoint(multilevel_checkpoint)
        bare = str(tmp_path / "bare.gxnr")
        save_checkpoint(bare, net, cfg, activation_zero_fractions=None)
        assert run("costmodel", "--checkpoint", bare) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = self.hand_rows(bare, [0.0, 0.0])
        assert [l for l in lines if ",twn," in l or ",gxnor," in l] == expected


def test_importing_the_cli_loads_no_network_code():
    # Only fetch_mnist needs urllib.request, and with it ssl; it imports them.
    code = "import sys, gxnor.cli; print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=src_env(),
                          check=True, timeout=60)
    assert proc.stdout == b"[]\n"


class TestExitCodes:
    def test_closed_stdout_exits_4_quietly(self):
        # 2000 fan-ins print some 340 kB, more than a pipe buffer holds, so
        # the command is still writing when its reader leaves.
        fan_ins = ",".join(str(n) for n in range(1, 2001))
        proc = subprocess.Popen([sys.executable, "-m", "gxnor", "costmodel", "--fan-in", fan_ins],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
        assert proc.stdout.readline().startswith(b"source,fan_in,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 4
        assert err == b""

    def test_usage_error_unknown_flag(self, capsys):
        assert run("train", "--no-such-flag") == 1
        capsys.readouterr()

    def test_usage_error_missing_subcommand(self, capsys):
        assert run() == 1
        capsys.readouterr()

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("config_version=1\nepochs=0\n")
        assert run("train", "--config", str(bad), "--out-dir", str(tmp_path)) == 2

    # blobs has 16 features and 4 classes
    @pytest.mark.parametrize("architecture",
                             ["mlp-16-32-4x", "mlp-15-32-4", "mlp-16-32-3", "mlp-16-32-5"])
    def test_bad_architecture_is_config_error(self, tmp_path, capsys, architecture):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, architecture=architecture).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
        assert architecture in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    # Blobs images are 1x16 with 4 classes.  mlp-16-32-3 parses but has 3
    # outputs; the others have a zero or non-canonical width, a kernel larger
    # than its input, or a window that does not divide it.
    @pytest.mark.parametrize("architecture", [
        "mlp-16-32-3", "mlp-16-0-4", "conv-4c1-0fc", "conv-4c2-4fc", "conv-4c1-mp2-10fc",
        "conv-0c1-4fc", "mlp-16-+32-4", "mlp-16-032-4", "mlp-16-3_2-4", "conv-04c1-4fc",
    ])
    def test_architecture_misfit_leaves_no_out_dir(self, tmp_path, capsys, architecture):
        cfg = tmp_path / "misfit.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, architecture=architecture).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert architecture in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_architecture_too_wide_to_allocate_is_runtime_error(self, tmp_path, capsys):
        # 10**14 hidden units ask for petabytes, which no machine has: the
        # allocation fails at once and touches no memory.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(dataclasses.replace(
            FAST_BLOBS, architecture="mlp-16-100000000000000-4").to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_config_error_naming_seed(self, config_path, tmp_path, capsys):
        assert run("train", "--config", config_path, "--seed", "-1",
                   "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and FAST_BLOBS.architecture not in err
        assert not (tmp_path / "out").exists()

    def test_multilevel_span_is_config_error_naming_r(self, tmp_path, capsys):
        cfg = tmp_path / "span.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, n2=2, r=0.9).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "r=0.9" in err and "a=0.5" in err and "h=1.0" in err
        assert FAST_BLOBS.architecture not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n2", [16, 40, 64, 1000])
    def test_activation_grid_beyond_fifteen_is_config_error(self, tmp_path, capsys, n2):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, n2=n2, epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"n2={n2} exceeds 15" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_rect_pulse_whose_height_overflows_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, surrogate="rect", a=1e-320).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "rect pulse's height dz / (2a) overflows at a=1e-320" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_multilevel_threshold_at_h_is_config_error(self, tmp_path, capsys):
        # r + a rounds to h, so the span rule holds, but r = h leaves the
        # outer bands no room, which the quantizer refuses.
        cfg = tmp_path / "window.cfg"
        cfg.write_text(dataclasses.replace(
            FAST_BLOBS, n2=6, h=0.5, r=0.5, a=2.0**-511, epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "threshold must satisfy 0 <= r < h, got r=0.5 h=0.5" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_tri_pulse_whose_square_overflows_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "broad.cfg"
        cfg.write_text(dataclasses.replace(
            FAST_BLOBS, n2=0, h=2.0**32, r=2.0**32, surrogate="tri", a=1e300,
            epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "tri pulse needs a < 2**512, got a=1e+300" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_narrow_tri_pulses_on_a_wide_grid_train_without_warnings(self, tmp_path, capsys):
        # RuntimeWarnings are errors here, as pyproject.toml sets for the tests.
        # Far from a pulse 2**-510 wide, its ramp would overflow.
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(dataclasses.replace(
            FAST_BLOBS, n2=2, h=2.0**32, r=2.0**-511, surrogate="tri", a=2.0**-511,
            epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0
        capsys.readouterr()

    def test_weight_grid_step_below_normal_is_config_error(self, tmp_path, capsys):
        # dz = 1e-320 / 2**14 is 0.0, which merges the weight grid's states.
        cfg = tmp_path / "fine.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, n1=15, h=1e-320, epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "grid step dz=0.0 (n=15, h=1e-320)" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_value_leaves_no_out_dir(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(FAST_BLOBS.to_text().replace("r=0.5", "r=nan"))
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        assert "r must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # blobs has 1500 training samples.
    @pytest.mark.parametrize("batch_size", [1, 1499])
    def test_one_sample_batch_norm_batch_is_config_error(self, tmp_path, capsys, batch_size):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, batch_size=batch_size).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"batch_size={batch_size}" in err and "1500-sample" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("architecture, batch_size", [("mlp-16-32-4", 1498), ("mlp-16-4", 1499)])
    def test_batches_of_two_or_no_batch_norm_still_train(self, tmp_path, capsys,
                                                          architecture, batch_size):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(dataclasses.replace(
            FAST_BLOBS, architecture=architecture, batch_size=batch_size, epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0
        capsys.readouterr()

    def test_weight_grid_beyond_checkpoint_indices_is_config_error(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, n1=16).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
        assert not (tmp_path / "metrics.csv").exists()

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert run("train", "--config", str(tmp_path / "none.cfg")) == 2

    def test_data_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GXNOR_DATA_DIR", raising=False)
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(RunConfig(dataset="mnist", epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path)) == 3

    def test_header_claiming_more_than_the_file_holds_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(RunConfig(dataset="mnist", epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                   "--data-dir", overclaiming_mnist(tmp_path / "mnist")) == 3
        err = capsys.readouterr().err
        assert "truncated pixel data" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("h", [1e300, 1e150])
    def test_h_beyond_two_to_the_32_is_config_error(self, tmp_path, capsys, h):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, h=h, epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
        assert "h must lie in (0, 2**32]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_h_of_two_to_the_32_trains(self, tmp_path, capsys):
        # RuntimeWarnings are errors here, as pyproject.toml sets for the tests.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(dataclasses.replace(FAST_BLOBS, h=2.0**32, epochs=1).to_text())
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["metrics.csv", "model.gxnr"])
    def test_a_full_disk_is_runtime_error_leaving_no_temp_file(self, tmp_path, capsys,
                                                               monkeypatch, target):
        """``train`` on ``configs/blobs.cfg`` whose fsync of ``target`` finds
        the disk full exits 4 with one line on stderr, and removes its temp
        file."""
        out = tmp_path / "out"
        fsync = os.fsync

        def full_disk(fd):
            temp = out / f"{target}.tmp.{os.getpid()}"
            if temp.exists() and os.path.samestat(os.fstat(fd), os.stat(temp)):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fsync(fd)
        monkeypatch.setattr(os, "fsync", full_disk)
        blobs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "configs", "blobs.cfg")
        assert run("train", "--config", blobs, "--out-dir", str(out)) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: ") and "Traceback" not in err[0]
        assert not [name for name in os.listdir(out) if ".tmp." in name]

    def test_runtime_error_bad_checkpoint(self, tmp_path):
        junk = tmp_path / "junk.gxnr"
        junk.write_bytes(b"not a checkpoint")
        assert run("eval", "--checkpoint", str(junk)) == 4


# Edge values for h, r and a: zero, the smallest subnormal, 2**-511 (where a
# tri pulse's a*a leaves the normal range) and its neighbours, tiny, unit,
# and either side of h's bound of 2**32.
EDGE_FLOATS = [0.0, 5e-324, math.nextafter(2.0**-511, 0.0), 2.0**-511,
               math.nextafter(2.0**-511, 1.0), 1e-300, 0.5, 1.0, 2.0**32, 2.0**33, 1e300]
STATE_PARAMS = [*range(17), 64]


@settings(max_examples=3000, deadline=None)
@given(n1=st.sampled_from(STATE_PARAMS), n2=st.sampled_from(STATE_PARAMS),
       surrogate=st.sampled_from(["rect", "tri"]), h=st.sampled_from(EDGE_FLOATS),
       r=st.sampled_from(EDGE_FLOATS), a=st.sampled_from(EDGE_FLOATS))
def test_config_rejects_exactly_the_grids_and_pulses_no_net_is_built_for(
        n1, n2, surrogate, h, r, a):
    """A grid or pulse rule has one owner, the object it constrains: validate
    rejects a config exactly when build_network refuses its net on blobs'
    shape, or when one of validate's own rules (n1 <= 15, h <= 2**32) fails.
    A rejected config exits 2 from `gxnor train` before --out-dir exists."""
    config = dataclasses.replace(FAST_BLOBS, n1=n1, n2=n2, surrogate=surrogate,
                                 h=h, r=r, a=a, epochs=1)
    try:
        config.validate()
        rejected = False
    except ConfigError:
        rejected = True
    refused = n1 > 15 or h > 2**32
    if not refused:
        try:
            build_network(config.architecture, n1=n1, n2=n2, h=h, r=r,
                          surrogate=surrogate, a=a, input_shape=(1, 1, 16), classes=4)
        except ValueError:
            refused = True
    assert rejected == refused
    if rejected:
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "edge.cfg"), os.path.join(tmp, "out")
            with open(cfg, "w") as fh:
                fh.write(config.to_text())
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run("train", "--config", cfg, "--out-dir", out) == 2
            assert err.getvalue().startswith("config error: ")
            assert "Traceback" not in err.getvalue()
            assert not os.path.exists(out)
