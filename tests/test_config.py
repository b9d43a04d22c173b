"""Config text round-trips and metrics persistence."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from gxnor.config import (
    CONFIG_VERSION,
    ConfigError,
    METRICS_COLUMNS,
    MetricsRecord,
    RunConfig,
    read_metrics,
    write_metrics,
    write_sweep_table,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=1e-12, max_value=1e6)


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_round_trip_custom(self):
        cfg = RunConfig(architecture="mlp-16-32-4", dataset="blobs", n1=2, n2=0,
                        h=2.5, r=0.3, surrogate="tri", a=0.25, m=1.5,
                        lr_start=0.02, lr_fin=0.002, epochs=7, batch_size=32,
                        seed=99)
        assert RunConfig.from_text(cfg.to_text()) == cfg

    @given(h=finite_floats, r=finite_floats, a=finite_floats, m=finite_floats,
           lr=finite_floats)
    def test_float_fields_round_trip_losslessly(self, h, r, a, m, lr):
        cfg = RunConfig(h=h, r=r, a=a, m=m, lr_start=lr, lr_fin=lr)
        back = RunConfig.from_text(cfg.to_text())
        for field in ("h", "r", "a", "m", "lr_start", "lr_fin"):
            assert getattr(back, field) == getattr(cfg, field)

    def test_comments_and_blank_lines_ignored(self):
        text = (f"config_version={CONFIG_VERSION}\n"
                "\n"
                "# a comment\n"
                "epochs=3  # trailing comment\n"
                "seed = 5\n")
        cfg = RunConfig.from_text(text)
        assert (cfg.epochs, cfg.seed) == (3, 5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_text(f"config_version={CONFIG_VERSION}\nmomentum=0.9\n")

    def test_missing_version_rejected(self):
        with pytest.raises(ConfigError, match="config_version"):
            RunConfig.from_text("epochs=3\n")

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigError, match="config_version"):
            RunConfig.from_text("config_version=999\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            RunConfig.from_text(f"config_version={CONFIG_VERSION}\nepochs=three\n")

    def test_non_assignment_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.from_text(f"config_version={CONFIG_VERSION}\nepochs\n")

    @pytest.mark.parametrize("text, lines", [
        (f"config_version={CONFIG_VERSION}\nseed=1\nseed=2\n", (3, 2)),
        (f"config_version=2\n\n# again\nconfig_version={CONFIG_VERSION}\n", (4, 1)),
    ], ids=["seed", "config_version"])
    def test_repeated_key_rejected_naming_both_lines(self, text, lines):
        with pytest.raises(ConfigError, match=r"line %d: .* already given on line %d" % lines):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("overrides", [
        dict(n1=-1), dict(h=0.0), dict(r=-0.5), dict(surrogate="gauss"),
        dict(a=0.0), dict(m=0.0), dict(lr_start=0.0), dict(epochs=0),
        dict(batch_size=0),
    ])
    def test_validate_rejects(self, overrides):
        with pytest.raises(ConfigError):
            dataclasses.replace(RunConfig(), **overrides).validate()

    @pytest.mark.parametrize("key", ["h", "r", "a", "m", "lr_start", "lr_fin"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, key, value):
        text = f"config_version={CONFIG_VERSION}\n{key}={value}\n"
        with pytest.raises(ConfigError, match=f"{key} must be finite, got {value}"):
            RunConfig.from_text(text)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            dataclasses.replace(RunConfig(), seed=-1).validate()
        dataclasses.replace(RunConfig(), seed=0).validate()

    def test_tri_pulse_width_whose_square_underflows_rejected(self):
        # a*a falls below the smallest normal float just under a = 2**-511.
        tiny = math.nextafter(2.0 ** -511, 0.0)
        for a in (tiny, 1e-300):
            with pytest.raises(ConfigError, match=r"tri pulse needs a >= 2\*\*-511.*underflows"):
                dataclasses.replace(RunConfig(), surrogate="tri", a=a).validate()
        dataclasses.replace(RunConfig(), surrogate="tri", a=2.0 ** -511).validate()
        dataclasses.replace(RunConfig(), surrogate="rect", a=1e-300).validate()

    def test_tri_pulse_width_whose_square_overflows_rejected(self):
        # a*a passes the largest float from a = 2**512 on.
        for a in (2.0 ** 512, 1e300):
            with pytest.raises(ConfigError, match=r"tri pulse needs a < 2\*\*512.*overflows"):
                dataclasses.replace(RunConfig(), surrogate="tri", a=a).validate()
        dataclasses.replace(RunConfig(), surrogate="tri", a=math.nextafter(2.0 ** 512, 0.0)).validate()
        dataclasses.replace(RunConfig(), surrogate="rect", a=1e300).validate()

    def test_activation_grid_beyond_fifteen_rejected(self):
        for n2 in (16, 40, 64, 1000):
            with pytest.raises(ConfigError, match=rf"n2={n2} exceeds 15.*one pass .* per pulse"):
                dataclasses.replace(RunConfig(), n2=n2).validate()
        dataclasses.replace(RunConfig(), n2=15).validate()

    def test_rect_pulse_whose_height_overflows_rejected(self):
        # dz / (2a) = 1 / 2e-320 overflows; the tri test above keeps a = 1e-300.
        with pytest.raises(ConfigError, match=r"rect pulse's height dz / \(2a\) overflows"):
            dataclasses.replace(RunConfig(), surrogate="rect", a=1e-320).validate()

    def test_multilevel_activation_span_checked(self):
        with pytest.raises(ConfigError, match=r"r \+ a <= h.*r=0\.9, a=0\.5, h=1\.0"):
            dataclasses.replace(RunConfig(), n2=2, r=0.9).validate()
        # The span is inclusive, and ternary and binary windows may exceed h.
        dataclasses.replace(RunConfig(), n2=2, r=0.5, a=0.5).validate()
        dataclasses.replace(RunConfig(), n2=1, r=0.9).validate()
        dataclasses.replace(RunConfig(), n2=0, r=3.5).validate()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.load(str(tmp_path / "absent.cfg"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(RunConfig(epochs=2).to_text())
        assert RunConfig.load(str(path)).epochs == 2


class TestMetrics:
    RECORDS = [
        MetricsRecord(epoch=1, train_loss=3.25, test_accuracy=0.5, sparsity=0.125,
                      wall_time=9.9),
        MetricsRecord(epoch=2, train_loss=1.0 / 3.0, test_accuracy=0.9875,
                      sparsity=0.4, wall_time=8.8),
    ]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        cfg = RunConfig(dataset="blobs", epochs=2)
        write_metrics(path, cfg, self.RECORDS)
        header, records = read_metrics(path)
        assert header["dataset"] == "blobs"
        assert header["metrics_version"] == "1"
        assert header["config_version"] == str(CONFIG_VERSION)
        assert len(records) == 2
        for got, want in zip(records, self.RECORDS):
            assert got.epoch == want.epoch
            assert got.train_loss == want.train_loss  # repr round-trips exactly
            assert got.test_accuracy == want.test_accuracy
            assert got.sparsity == want.sparsity

    def test_wall_time_never_persisted(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics(path, RunConfig(), self.RECORDS)
        text = open(path).read()
        assert "wall" not in text and "9.9" not in text
        _, records = read_metrics(path)
        assert all(r.wall_time == 0.0 for r in records)

    def test_identical_inputs_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_metrics(a, RunConfig(), self.RECORDS)
        write_metrics(b, RunConfig(), self.RECORDS)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_no_partial_files_left_behind(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics(path, RunConfig(), self.RECORDS)
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_metrics(str(target), RunConfig(), self.RECORDS)
        with pytest.raises(OSError):
            write_sweep_table(str(target), "m", [(1.0, 0.5)])
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_read_rejects_missing_column_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# metrics_version=1\n1,2,3,4\n")
        with pytest.raises(ConfigError, match="column header"):
            read_metrics(str(path))

    @pytest.mark.parametrize("row", ["1,2.0,0.5", "1,2.0,0.5,0.1,7", "1,2.0,half,0.1"])
    def test_read_rejects_a_malformed_row_naming_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"# metrics_version=1\n{','.join(METRICS_COLUMNS)}\n"
                        f"1,2.0,0.5,0.1\n{row}\n")
        with pytest.raises(ConfigError, match=r"bad\.csv line 4: bad row"):
            read_metrics(str(path))

    def test_full_precision_survives_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        awkward = MetricsRecord(epoch=1, train_loss=math.pi,
                                test_accuracy=2.0 / 3.0, sparsity=0.1 + 0.2)
        write_metrics(path, RunConfig(), [awkward])
        _, [back] = read_metrics(path)
        assert back.train_loss == math.pi
        assert back.test_accuracy == 2.0 / 3.0
        assert back.sparsity == 0.1 + 0.2


class TestSweepTable:
    def test_sorted_by_value(self, tmp_path):
        path = str(tmp_path / "sweep_m.csv")
        write_sweep_table(path, "m", [(3.0, 0.9), (0.5, 0.7), (1.0, 0.8)])
        lines = open(path).read().splitlines()
        assert lines[1] == "m,test_accuracy"
        values = [float(line.split(",")[0]) for line in lines[2:]]
        assert values == sorted(values) == [0.5, 1.0, 3.0]
