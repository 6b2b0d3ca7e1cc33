import json

import pytest

from dmqkd.config import (
    RunConfig,
    config_from_flat,
    config_from_text,
    config_to_flat,
    config_to_text,
    load_config,
    with_overrides,
)
from dmqkd.errors import ConfigurationError


class TestFlatRoundTrip:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert config_from_flat(config_to_flat(cfg)) == cfg

    def test_text_round_trip(self):
        cfg = RunConfig()
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_partial_flat_uses_defaults(self):
        cfg = config_from_flat({"loss_db": 30.0})
        assert cfg.link.loss_db == 30.0
        assert cfg.intensities.mu == 0.4

    @pytest.mark.parametrize(
        "flat",
        [
            {"mc_seed": -1},
            {"sweep_min_db": 70.0},
            {"sweep_max_db": float("nan")},
            {"sweep_step_db": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, flat):
        with pytest.raises(ConfigurationError):
            config_from_flat(flat)

    def test_negative_seed_in_text_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            config_from_text("mc_seed = -3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_flat({"loss": 30.0})

    def test_clock_follows_master_rate(self):
        cfg = config_from_flat({"master_rate_hz": 5e8, "slave_rate_hz": 1.5e9,
                                "amzi_delay_s": 1.0 / 1.5e9,
                                "master_on_time_s": 1.8e-9})
        assert cfg.link.clock == 5e8

    def test_decoy_table(self):
        table = RunConfig().decoy_table()
        assert table["signal"] == 1.0
        assert table["decoy"] == pytest.approx(0.4)
        assert table["vacuum"] == pytest.approx(0.0375)


class TestTextFormat:
    def test_comments_and_blank_lines_ignored(self):
        cfg = config_from_text("# hello\n\nloss_db = 20.0  # tail\n")
        assert cfg.link.loss_db == 20.0

    def test_error_reports_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            config_from_text("loss_db = 10.0\nnot a pair\n")
        with pytest.raises(ConfigurationError, match="line 1"):
            config_from_text("loss_db = ten\n")


class TestLoadConfig:
    def test_text_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(config_to_text(RunConfig()))
        assert load_config(path) == RunConfig()

    def test_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config_to_flat(RunConfig())))
        assert load_config(path) == RunConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.txt")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestOverrides:
    def test_seed_and_frames(self):
        cfg = with_overrides(RunConfig(), seed=42, frames=123456)
        assert cfg.mc.seed == 42
        assert cfg.mc.n_frames == 123456

    def test_sweep_range(self):
        cfg = with_overrides(RunConfig(), loss_min=5.0, loss_max=25.0, loss_step=0.5)
        assert (cfg.sweep.loss_min_db, cfg.sweep.loss_max_db, cfg.sweep.loss_step_db) == (
            5.0, 25.0, 0.5,
        )

    def test_bad_step(self):
        with pytest.raises(ConfigurationError):
            with_overrides(RunConfig(), loss_step=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -1},
            {"loss_min": 70.0, "loss_max": 10.0},
            {"loss_min": 61.0},
            {"loss_max": float("inf")},
        ],
    )
    def test_invalid_overrides_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            with_overrides(RunConfig(), **overrides)

    def test_range_checked_after_all_overrides(self):
        cfg = with_overrides(RunConfig(), loss_min=70.0, loss_max=80.0)
        assert (cfg.sweep.loss_min_db, cfg.sweep.loss_max_db) == (70.0, 80.0)

    def test_none_leaves_defaults(self):
        assert with_overrides(RunConfig()) == RunConfig()
